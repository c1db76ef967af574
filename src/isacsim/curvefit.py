"""Parametric learning-curve regression and inversion.

Seven candidate families map a cycle count C to an accuracy A:

    vapor_pressure   exp(alpha + beta / C)
    pow3             gamma - alpha * C**(-beta)
    log_power        alpha / (1 + (C / e**beta)**gamma)
    exp4             gamma - exp(-alpha * C**epsilon + beta)
    log_log_linear   log(alpha * log(C) + beta)
    ilog2            beta - alpha / log(C)
    pow4             gamma - (alpha * C + beta)**epsilon

Each family is declared once, in :data:`FAMILIES`: its expression and
analytic Jacobian, its data-driven starts, parameter bounds, C-domain,
the sense of monotonicity, and its closed-form asymptote where one
exists.  pow4 and log_log_linear share one parameter-dependent domain,
``alpha*h(C) + beta > 0`` with a nudge that keeps the data inside it;
at every C it admits, that expression computes positive.

Fitting minimizes the sum of squared residuals with a multi-start damped
Gauss-Newton iteration.  The starts of a family descend in lockstep, as
one stack: each iteration solves the Gauss-Newton steps of all live
starts in one batched least-squares call, scores all 40 halvings of
every step as one stack and moves each start to its longest halving that
lowers its SSR, exactly the step it would take alone; parameter bounds
are enforced by projection.  Model selection ranks the families by
attained SSR.  Every family is monotone in C over its domain for fixed
parameters, so curves invert by bisection; an accuracy at or above a
closed-form asymptote is rejected before bisecting.

``eval_curve`` and ``invert_curve`` share one evaluation, vectorized over
C, with each C's scalar bits: pow4's ``(alpha*C + beta)**epsilon`` and
log_power's ``(C/e**beta)**gamma`` take numpy scalar powers; fits keep ``**``.

The expressions leave numpy's floating-point warnings to their callers:
``fit_curve``, ``invert_curve`` and ``eval_curve`` each silence them once
per call, around all their work, and ``_Family.evaluate`` and
``curve_jacobian`` silence them per call.  A non-finite result is caught
by an explicit finiteness check instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np
from numpy.linalg import _umath_linalg

from .manifest import write_csv
from .validation import as_float_array, check_count, check_seed

DEFAULT_N_STARTS = 64  # Gauss-Newton starts per family
DEFAULT_MAX_ITER = 500  # iterations per start
DEFAULT_FIT_SEED = 0  # seed of the random starts

_STEPS = np.array([0.5**k for k in range(40)])  # step halving from 1 down to 1.8e-12
# How a Gauss-Newton start can end, the keys of ``CurveFit.stops``.
STOP_REASONS = ("no_descent", "zero_step", "nonfinite", "max_iter", "diverged_start")


class CurveFitError(RuntimeError):
    """Raised when a family cannot be fitted to the given points."""


class _Family:
    """Every fact about one curve family, declared in one place.

    ``starts(c, a)`` yields the data-driven initial parameter vectors;
    ``domain(p)`` gives the open C interval as two floats;
    ``feasible(P, c)``, where the domain depends on the parameters, nudges
    the rows of the (S, arity) stack ``P`` in place until every data point
    lies in each row's domain (one start is the one-row case);
    ``asymptote(p)`` is the closed-form supremum of an increasing curve,
    where one exists.

    The raw expressions ``_evaluate``/``_jacobian`` expect float arrays
    and run under the caller's ``np.errstate``; ``evaluate`` (and
    :func:`curve_jacobian` for ``_jacobian``) casts its arguments and
    silences numpy warnings itself.  ``_evaluate(p, c, power)`` raises a
    base computed from C (pow4's, log_power's) by ``power``, ``**`` by default.
    Both broadcast: given ``P.T[:, :, None]`` they return the (S, q)
    predictions and (S, q, arity) Jacobians of every row of ``P``.
    """

    def __init__(self, name, param_names, evaluate, jacobian, starts, *, increasing,
                 bounds, domain=lambda p: (0.0, math.inf), feasible=None,
                 domain_message="C must be positive", asymptote=None):
        self.name = name
        self.param_names = param_names
        self.arity = len(param_names)
        self._evaluate = evaluate
        self._jacobian = jacobian
        self.domain = domain
        self.increasing = increasing
        self.bounds = (np.asarray(bounds[0], float), np.asarray(bounds[1], float))
        self.starts = starts
        self.feasible = feasible
        self.domain_message = domain_message
        self.asymptote = asymptote

    def evaluate(self, params, c):
        with np.errstate(all="ignore"):
            return self._evaluate(np.asarray(params, float), np.asarray(c, float))

    def admit(self, P, c):
        """A fresh copy of the (S, arity) stack ``P``, each row projected
        into the bounds, then nudged so every data point lies in its domain."""
        P = np.clip(P, self.bounds[0], self.bounds[1])
        if self.feasible is not None:
            self.feasible(P, c)
        return P


def _check_domain(fam: _Family, c, lo: float, hi: float, error: type[Exception]):
    """Raise ``error`` naming the family's domain unless every C lies in
    (lo, hi); a NaN C lies in no interval."""
    if not np.all((c > lo) & (c < hi)):
        raise error(f"{fam.name}: {fam.domain_message} (domain ({lo!r}, {hi!r}))")


def _vapor_eval(p, c, power=None):
    return np.exp(p[0] + p[1] / c)


def _vapor_jac(p, c):
    v = np.exp(p[0] + p[1] / c)
    return np.stack([v, v / c], axis=-1)


def _vapor_starts(c, a):
    if np.all(a > 0):
        m, q = np.polyfit(1.0 / c, np.log(a), 1)
        yield [q, m]


def _pow3_eval(p, c, power=None):
    return p[2] - p[0] * c ** (-p[1])


def _pow3_jac(p, c):
    cb = c ** (-p[1])
    return np.stack([-cb, p[0] * cb * np.log(c), np.ones_like(cb)], axis=-1)


def _pow3_starts(c, a):
    a_max = float(a.max())
    for gamma in (a_max + 0.005, a_max + 0.02, min(a_max + 0.1, 1.15), 1.0):
        for beta in (0.3, 0.7, 1.2, 2.0, 3.0):
            gap = np.maximum(gamma - a, 1e-9)
            alpha = float(np.exp(np.median(np.log(gap) + beta * np.log(c))))
            yield [alpha, beta, gamma]


def _logpow_eval(p, c, power=pow):
    u = power(c / np.exp(p[1]), p[2])
    return p[0] / (1.0 + u)


def _logpow_jac(p, c):
    u = (c / np.exp(p[1])) ** p[2]
    denom = (1.0 + u) ** 2
    d_alpha = 1.0 / (1.0 + u)
    d_beta = p[0] * p[2] * u / denom
    d_gamma = -p[0] * u * (np.log(c) - p[1]) / denom
    return np.stack([d_alpha, d_beta, d_gamma], axis=-1)


def _logpow_starts(c, a):
    a_max = float(a.max())
    for alpha in (a_max * 1.002, a_max * 1.05, min(a_max * 1.3, 1.2)):
        for gamma in (-0.5, -1.5, -3.0, -5.0):
            ratio = np.maximum(alpha / np.maximum(a, 1e-9) - 1.0, 1e-12)
            beta = float(np.median(np.log(c) - np.log(ratio) / gamma))
            yield [alpha, beta, gamma]


def _exp4_eval(p, c, power=None):
    return p[2] - np.exp(-p[0] * c ** p[3] + p[1])


def _exp4_jac(p, c):
    ce = c ** p[3]
    e = np.exp(-p[0] * ce + p[1])
    return np.stack([ce * e, -e, np.ones_like(e), p[0] * ce * np.log(c) * e], axis=-1)


def _exp4_starts(c, a):
    a_max = float(a.max())
    for gamma in (a_max + 0.005, a_max + 0.05, 1.0):
        gap = np.maximum(gamma - a, 1e-9)
        for eps in (0.1, 0.3, 0.6, 1.0):
            m, q = np.polyfit(c**eps, np.log(gap), 1)
            yield [-m, q, gamma, eps]


def _lll_eval(p, c, power=None):
    return np.log(p[0] * np.log(c) + p[1])


def _lll_jac(p, c):
    inner = p[0] * np.log(c) + p[1]
    return np.stack([np.log(c) / inner, 1.0 / inner], axis=-1)


def _lll_starts(c, a):
    m, q = np.polyfit(np.log(c), np.exp(a), 1)
    yield [m, q]


def _exp(x: float) -> float:
    """``math.exp`` that gives inf where it would raise ``OverflowError``."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _ilog2_eval(p, c, power=None):
    return p[1] - p[0] / np.log(c)


def _ilog2_jac(p, c):
    # The same for every parameter vector, so broadcast to the stack's shape.
    d_alpha = np.broadcast_to(-1.0 / np.log(c), np.broadcast(p[0], c).shape)
    return np.stack([d_alpha, np.ones_like(d_alpha)], axis=-1)


def _ilog2_starts(c, a):
    m, q = np.polyfit(1.0 / np.log(c), a, 1)
    yield [-m, q]


def _pow4_eval(p, c, power=pow):
    return p[2] - power(p[0] * c + p[1], p[3])


def _pow4_jac(p, c):
    s = p[0] * c + p[1]
    se1 = s ** (p[3] - 1.0)
    return np.stack(
        [-p[3] * se1 * c, -p[3] * se1, np.ones_like(s), -(s ** p[3]) * np.log(s)],
        axis=-1,
    )


def _pow4_starts(c, a):
    a_max = float(a.max())
    for gamma in (a_max + 0.005, a_max + 0.05, 1.0, 1.2):
        gap = np.maximum(gamma - a, 1e-9)
        m, q = np.polyfit(np.log(c), np.log(gap), 1)  # slope eps, intercept eps*ln(alpha)
        eps = m if abs(m) > 1e-3 else -0.5
        alpha = _exp(q / eps) if abs(eps) > 1e-6 else 1.0  # admit clips inf
        yield [alpha, 0.0, gamma, eps]


def _linear_constraint(h, h_inv, margin: float, text: str) -> dict:
    """``domain``, ``feasible`` and ``domain_message`` of a family whose C
    must satisfy ``alpha*h(C) + beta > 0`` (its first two parameters; ``h``
    increasing, with inverse ``h_inv``).  An empty domain is ``(inf, inf)``;
    ``feasible`` raises a short row's beta until its least value is ``margin``.
    The computed ``alpha*h(C) + beta`` is positive at every admitted C: a
    finite end is the root moved inward in h by 4 eps max(1, |root|,
    2**-1022/|alpha|), more than the rounding of the root, ``h``, ``alpha*h``
    and the sum together, then mapped by ``h_inv``.
    """
    def domain(p):
        a, b = float(p[0]), float(p[1])
        if a == 0:
            return (0.0, math.inf) if b > 0 else (math.inf, math.inf)
        root = -b / a
        if math.isfinite(root):
            root += math.copysign(2.0**-50 * max(1.0, abs(root), 2.0**-1022 / abs(a)), a)
        end = h_inv(root)
        lo, hi = (max(0.0, end), math.inf) if a > 0 else (0.0, end)
        return (lo, hi) if lo < hi else (math.inf, math.inf)

    def feasible(P, c):
        deficit = (P[:, :1] * h(c) + P[:, 1:2]).min(axis=1)
        low = deficit <= 0
        P[low, 1] += -deficit[low] + margin

    return dict(domain=domain, feasible=feasible, domain_message=text)


FAMILIES: dict[str, _Family] = {
    f.name: f
    for f in (
        _Family(
            "vapor_pressure", ("alpha", "beta"), _vapor_eval, _vapor_jac, _vapor_starts,
            increasing=lambda p: p[1] < 0,
            bounds=([-50.0, -1e5], [50.0, 1e5]),
            asymptote=lambda p: float(math.exp(p[0])),
        ),
        _Family(
            "pow3", ("alpha", "beta", "gamma"), _pow3_eval, _pow3_jac, _pow3_starts,
            increasing=lambda p: p[0] * p[1] > 0,
            bounds=([1e-8, 1e-4, 0.0], [1e12, 20.0, 1.2]),
            # with alpha, beta < 0 the increasing curve grows without bound
            asymptote=lambda p: float(p[2]) if p[1] > 0 else math.inf,
        ),
        _Family(
            "log_power", ("alpha", "beta", "gamma"), _logpow_eval, _logpow_jac,
            _logpow_starts,
            increasing=lambda p: p[0] * p[2] < 0,
            bounds=([1e-8, -50.0, -50.0], [5.0, 100.0, 50.0]),
        ),
        _Family(
            "exp4", ("alpha", "beta", "gamma", "epsilon"), _exp4_eval, _exp4_jac,
            _exp4_starts,
            increasing=lambda p: p[0] * p[3] > 0,
            bounds=([-1e3, -100.0, 0.0, 1e-3], [1e3, 100.0, 1.5, 3.0]),
        ),
        _Family(
            "log_log_linear", ("alpha", "beta"), _lll_eval, _lll_jac, _lll_starts,
            increasing=lambda p: p[0] > 0,
            bounds=([-1e3, -1e3], [1e3, 1e3]),
            **_linear_constraint(np.log, _exp, 0.05, "alpha*log(C) + beta must be positive"),
        ),
        _Family(
            "ilog2", ("alpha", "beta"), _ilog2_eval, _ilog2_jac, _ilog2_starts,
            increasing=lambda p: p[0] > 0,
            bounds=([-1e3, -10.0], [1e3, 10.0]),
            domain=lambda p: (1.0, math.inf),
            domain_message="C must exceed 1",
            asymptote=lambda p: float(p[1]),
        ),
        _Family(
            "pow4", ("alpha", "beta", "gamma", "epsilon"), _pow4_eval, _pow4_jac,
            _pow4_starts,
            increasing=lambda p: p[0] * p[3] < 0,
            bounds=([-1e6, -1e7, 0.0, -5.0], [1e6, 1e7, 1.5, 5.0]),
            **_linear_constraint(lambda c: c, lambda c: c, 1e-3,
                                 "alpha*C + beta must be positive"),
        ),
    )
}

FAMILY_NAMES = tuple(FAMILIES)


def get_family(name: str) -> _Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown curve family {name!r}; choose from {FAMILY_NAMES}"
        ) from None


@dataclass
class CurveFit:
    """A fitted learning curve.

    ``domain`` is the open C interval where the expression is defined,
    ``(inf, inf)`` when empty; at every float C inside it pow4's and
    log_log_linear's base computes positive.  Each family is monotone over
    its domain for fixed parameters, so the monotone range coincides with
    it and ``increasing`` gives the sense.
    ``stops`` counts how each Gauss-Newton start of ``fit_curve`` ended,
    by the keys of :data:`STOP_REASONS` (empty for :func:`make_fit`); it
    is diagnostic and written to no artifact.
    """

    family: str
    params: np.ndarray
    ssr: float
    residuals: np.ndarray
    num_points: int
    domain: tuple[float, float]
    increasing: bool
    stops: dict[str, int] = field(default_factory=dict)

    @property
    def param_names(self) -> tuple[str, ...]:
        return get_family(self.family).param_names

    @property
    def ssr_over_q(self) -> float:
        return self.ssr / self.num_points


def _scalar_pow(base, e):
    """``base ** e`` for each float of the array or numpy scalar ``base`` as
    a numpy scalar power (libm ``pow``), which numpy's array power may miss
    by an ulp: a scalar C's bits.  Runs under the caller's ``np.errstate``."""
    return np.fromiter(map(pow, base.flat, repeat(e)), float, base.size).reshape(base.shape)


def eval_curve(fit: CurveFit, c) -> np.ndarray | float:
    """Evaluate a fitted curve, enforcing the family's C-domain.

    Returns a float for a scalar C and an array of C's shape otherwise.
    All C go through the expression in one vectorized pass, each with the
    bits of its own scalar call (:func:`_scalar_pow`).
    """
    fam = get_family(fit.family)
    c_arr = np.asarray(c, dtype=float)
    _check_domain(fam, c_arr, *fit.domain, ValueError)
    p = np.asarray(fit.params, dtype=float)
    with np.errstate(all="ignore"):
        out = fam._evaluate(p, c_arr, _scalar_pow)
    return float(out) if c_arr.ndim == 0 else out


def curve_jacobian(family: str, params, c) -> np.ndarray:
    """Analytic Jacobian d(curve)/d(params), shape (..., arity)."""
    with np.errstate(all="ignore"):
        return get_family(family)._jacobian(np.asarray(params, float), np.asarray(c, float))


def _starts(fam: _Family, c: np.ndarray, a: np.ndarray, n: int, rng) -> np.ndarray:
    """The (n, arity) stack of data-driven initial points padded with random
    draws from the bounds, each row admitted (projected and nudged)."""
    starts = list(fam.starts(c, a))[:n]
    lo, hi = fam.bounds
    # Random fill within a moderate box (full bounds are too diffuse).
    span_lo = np.maximum(lo, -100.0)
    span_hi = np.minimum(hi, 100.0)
    while len(starts) < n:
        starts.append(span_lo + rng.uniform(size=fam.arity) * (span_hi - span_lo))
    return fam.admit(np.array(starts, dtype=float).reshape(-1, fam.arity), c)


def _ssr(fam: _Family, P: np.ndarray, c: np.ndarray, a: np.ndarray):
    """Row-wise SSRs (S,) and residuals (S, q) of the parameter stack ``P``.

    A row whose prediction is not finite has a non-finite SSR.  Each SSR is
    one BLAS dot of a residual row with itself, the rounding of
    ``np.dot(r, r)``, which ``np.einsum`` and ``.sum(axis=1)`` do not keep.
    """
    R = fam._evaluate(P.T[:, :, None], c) - a
    return (R[:, None, :] @ R[:, :, None]).ravel(), R


def _svd_did_not_converge(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _gauss_newton_steps(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The (L, arity) Gauss-Newton steps of the finite (L, q, arity)
    Jacobians ``J`` and their (L, q) residuals ``R``, in one call.

    Row ``i`` holds the bits of ``np.linalg.lstsq(J[i], -R[i], rcond=None)[0]``:
    this calls the batched LAPACK gelsd gufunc that ``lstsq`` calls one 2-D
    matrix at a time, with its rcond, signature and errstate, so an SVD
    that does not converge raises whatever the caller's errstate.
    """
    _, q, arity = J.shape
    with np.errstate(call=_svd_did_not_converge, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        D = _umath_linalg.lstsq(J, -R[:, :, None], np.finfo(float).eps * max(q, arity),
                                signature="ddd->ddid")[0]
    return D[:, :, 0]


def fit_curve(cycles, accuracy, family: str = "pow3", *, n_starts: int = DEFAULT_N_STARTS,
              seed: int = DEFAULT_FIT_SEED) -> CurveFit:
    """Nonlinear least-squares fit of one family to (C, A) points.

    Runs ``n_starts`` damped Gauss-Newton descents from data-driven and
    random initial points in lockstep, as one (S, arity) stack.  Each
    iteration takes the (S, q, arity) Jacobian of the live starts, solves
    their steps in one batched least-squares call, admits (projects into
    the family's bounds and nudges into its domain) all S x 40 halvings of
    those steps, from 1 to 2**-39, and scores them as one stack.  Each
    start moves to its longest halving that lowers its SSR, or leaves the
    stack when none does; starts never mix, so each takes exactly the
    steps it would take alone, for at most ``DEFAULT_MAX_ITER`` iterations.
    The fit is the first start with the least SSR, never worse than any
    start's initial SSR, and ``stops`` counts how the starts ended.  Bad
    points (see :func:`_points`), a negative or non-integer ``n_starts`` or
    a bad ``seed`` raise ``ValueError``; :class:`CurveFitError` when no
    start produces a finite fit.
    """
    fam = get_family(family)
    n_starts = check_count("n_starts", n_starts)
    seed = check_seed("seed", seed)
    c, a = _points(cycles, accuracy)
    if c.size < fam.arity:
        raise ValueError(f"insufficient points: {fam.name} needs at least {fam.arity}, "
                         f"got {c.size}")
    if fam.feasible is None:  # a fixed domain: no parameter can move it onto the data
        _check_domain(fam, c, *fam.domain(np.zeros(fam.arity)), CurveFitError)

    # A step that overflows or leaves the domain gives a non-finite SSR,
    # Jacobian or step, which the descent rejects.
    with np.errstate(all="ignore"):
        starts = _starts(fam, c, a, n_starts, np.random.default_rng(seed))
        P, ssr, R, stop = _descend(fam, starts, c, a, DEFAULT_MAX_ITER)
    # The descent accepts decreasing SSRs only: just diverged starts end non-finite.
    finite = np.flatnonzero(np.isfinite(ssr))
    if not finite.size:
        raise CurveFitError(
            f"{fam.name}: all {n_starts} starts diverged on the given points")
    best = finite[np.argmin(ssr[finite])]  # the first start with the least SSR

    # Copies, so the fit holds no view into the descent's stacks.
    fit = make_fit(fam.name, P[best].copy())
    fit.ssr, fit.residuals, fit.num_points = float(ssr[best]), R[best].copy(), c.size
    fit.stops = dict(zip(STOP_REASONS, np.bincount(stop, minlength=len(STOP_REASONS)).tolist()))
    return fit


def _points(cycles, accuracy) -> tuple[np.ndarray, np.ndarray]:
    """The (C, A) points as float arrays: 1-d, finite, of one length, with
    positive, distinct C; otherwise ``ValueError`` names what is wrong."""
    c = as_float_array(cycles, "cycles")
    a = as_float_array(accuracy, "accuracy")
    if c.size != a.size:
        raise ValueError(f"cycles and accuracy differ in length: {c.size} vs {a.size}")
    if np.any(c <= 0):
        raise ValueError("cycles must be positive")
    if np.unique(c).size != c.size:
        raise ValueError("cycles must be distinct")
    return c, a


def _descend(fam: _Family, P: np.ndarray, c: np.ndarray, a: np.ndarray, max_iter: int):
    """:func:`fit_curve`'s lockstep descent of the rows of the (S, arity) stack
    ``P``, under the caller's ``np.errstate``; rows never mix.  Each iteration
    makes one batched least-squares call for the steps of all live rows.
    Returns the final parameters, SSRs, residuals and stop reasons (indices
    into STOP_REASONS)."""
    ssr, R = _ssr(fam, P, c, a)
    P = P.copy()
    stop = np.full(len(P), STOP_REASONS.index("max_iter"))
    stop[~np.isfinite(ssr)] = STOP_REASONS.index("diverged_start")
    live = np.flatnonzero(np.isfinite(ssr))
    for _ in range(max_iter):
        if not live.size:
            break
        J = fam._jacobian(P[live].T[:, :, None], c)
        D = np.full((live.size, fam.arity), np.nan)  # a non-finite Jacobian keeps NaN
        solvable = np.isfinite(J).all(axis=(1, 2))
        D[solvable] = _gauss_newton_steps(J[solvable], R[live[solvable]])
        finite = np.isfinite(D).all(axis=1)
        steps = finite & D.any(axis=1)
        stop[live[~finite]] = STOP_REASONS.index("nonfinite")
        stop[live[finite & ~steps]] = STOP_REASONS.index("zero_step")
        live, D = live[steps], D[steps]
        cands = fam.admit((P[live, None] + _STEPS[:, None] * D[:, None]).reshape(-1, fam.arity), c)
        ssrs, Rs = _ssr(fam, cands, c, a)
        descends = ssrs.reshape(live.size, _STEPS.size) < ssr[live, None]
        k = np.arange(live.size) * _STEPS.size + descends.argmax(axis=1)  # the longest step
        moved = descends.any(axis=1)
        stop[live[~moved]] = STOP_REASONS.index("no_descent")
        live, k = live[moved], k[moved]
        P[live], ssr[live], R[live] = cands[k], ssrs[k], Rs[k]
    return P, ssr, R, stop


def make_fit(family: str, params) -> CurveFit:
    """Wrap externally supplied parameters as a CurveFit (no residuals).

    Each parameter must be finite; the error names the first that is not.
    """
    fam = get_family(family)
    p = np.asarray(params, dtype=float)
    if p.size != fam.arity:
        raise ValueError(f"{family} takes {fam.arity} parameters, got {p.size}")
    for name, value in zip(fam.param_names, p.ravel().tolist()):
        if not math.isfinite(value):
            raise ValueError(f"{family}: parameter {name} must be finite, got {value!r}")
    return CurveFit(
        family=family,
        params=p,
        ssr=math.nan,
        residuals=np.empty(0),
        num_points=0,
        domain=fam.domain(p),
        increasing=bool(fam.increasing(p)),
    )


@dataclass
class ModelSelection:
    fits: list[CurveFit]  # ascending SSR
    failures: dict[str, str]

    @property
    def best(self) -> CurveFit:
        return self.fits[0]

    def to_csv(self, path):
        """CSV ``family,param1..param4,ssr,ssr_over_q`` (ranked); returns the path."""
        header = ("family", "param1", "param2", "param3", "param4", "ssr", "ssr_over_q")
        pad = [None] * 4  # empty cells after a family's last parameter
        rows = ((f.family, *f.params, *pad[f.params.size:], f.ssr, f.ssr_over_q)
                for f in self.fits)
        return write_csv(path, header, rows)


def select_model(cycles, accuracy, families=None, *,
                 seed: int = DEFAULT_FIT_SEED) -> ModelSelection:
    """Fit several families with :func:`fit_curve` and rank them by
    attained SSR.  The points, ``seed`` and family names are checked once,
    before any fit, as :func:`fit_curve` checks them; a family that fails
    on the points is listed in ``failures``."""
    c, a = _points(cycles, accuracy)
    seed = check_seed("seed", seed)
    names = FAMILY_NAMES if families is None else tuple(families)
    for name in names:
        get_family(name)
    fits: list[CurveFit] = []
    failures: dict[str, str] = {}
    for name in names:
        try:
            fits.append(fit_curve(c, a, name, seed=seed))
        except (CurveFitError, ValueError) as exc:
            failures[name] = str(exc)
    if not fits:
        raise CurveFitError(f"all families failed: {failures}")
    fits.sort(key=lambda f: f.ssr)
    return ModelSelection(fits=fits, failures=failures)


@np.errstate(all="ignore")
def invert_curve(fit: CurveFit, accuracy: float) -> float:
    """Cycle count at which the fitted curve reaches ``accuracy``.

    Bisects the monotone range down to two adjacent floats, so the curve
    values next to the returned C bracket ``accuracy``.  Raises when the
    accuracy lies outside the achievable range (e.g. at or above the
    curve's asymptote) or is NaN.
    """
    a_target = float(accuracy)
    if math.isnan(a_target):  # every comparison of the bisection would read "above"
        raise ValueError(f"accuracy must be a number, got {a_target!r}")
    fam = get_family(fit.family)
    p = np.asarray(fit.params, dtype=float)
    lo, hi = fit.domain
    if lo >= hi:
        raise ValueError(f"{fit.family}: empty domain")
    if fit.increasing and fam.asymptote is not None and a_target >= fam.asymptote(p):
        raise ValueError(
            f"accuracy {a_target!r} is unreachable: at or above the "
            f"asymptote {fam.asymptote(p)!r}"
        )

    at = lambda c: float(fam._evaluate(p, np.asarray(c), _scalar_pow))
    sign = 1.0 if fit.increasing else -1.0
    lo_b = max(lo * (1.0 + 1e-12), lo + 1e-12, 1e-12)
    if math.isfinite(hi):
        hi_b = hi - max(1e-12, hi * 1e-12)
    else:
        hi_b = max(4.0 * lo_b, 64.0)
        while sign * (at(hi_b) - a_target) < 0:
            if 4.0 * hi_b > 1e18:
                raise ValueError(
                    f"accuracy {a_target!r} is unreachable for C below 1e18 "
                    f"(the curve is {at(hi_b)!r} at C={hi_b!r})"
                )
            hi_b *= 4.0
    if sign * (at(lo_b) - a_target) > 0:
        raise ValueError(f"accuracy {a_target!r} lies below the achievable range")
    if sign * (at(hi_b) - a_target) < 0:
        raise ValueError(
            f"accuracy {a_target!r} is unreachable within the domain "
            f"({lo!r}, {hi!r})"
        )
    while True:
        mid = 0.5 * (lo_b + hi_b)
        if not lo_b < mid < hi_b:  # adjacent floats: their values bracket a_target
            return mid
        if sign * (at(mid) - a_target) < 0:
            lo_b = mid
        else:
            hi_b = mid
