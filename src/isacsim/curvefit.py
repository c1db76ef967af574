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
analytic Jacobian, its data-driven starts, parameter bounds, C-domain
(with the nudge that keeps the data inside a parameter-dependent one),
the sense of monotonicity, and its closed-form asymptote where one
exists.

Fitting minimizes the sum of squared residuals with a multi-start damped
Gauss-Newton iteration.  Each iteration scores all 40 halvings of the
Gauss-Newton step as one stack and moves to the longest one that lowers
the SSR; parameter bounds are enforced by projection.  Model selection
ranks the families by attained SSR.  Every family is monotone in C over
its domain for fixed parameters, so curves invert by bisection; an
accuracy at or above a closed-form asymptote is rejected before
bisecting.

The expressions leave numpy's floating-point warnings to their callers:
``fit_curve`` and ``invert_curve`` each silence them once, around their
whole loop, and the public ``_Family.evaluate``/``jacobian`` wrappers
silence them per call.  A non-finite result is caught by an explicit
finiteness check instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .manifest import write_csv
from .validation import as_float_array

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
    ``feasible(P, c)``, where the domain depends on the parameters, nudges
    the rows of the (S, arity) stack ``P`` in place until every data point
    lies in each row's domain (one start is the one-row case);
    ``asymptote(p)`` is the closed-form supremum of an increasing curve,
    where one exists.

    The raw expressions ``_evaluate``/``_jacobian`` expect float arrays
    and run under the caller's ``np.errstate``; ``evaluate``/``jacobian``
    cast their arguments and silence numpy warnings themselves.
    ``_evaluate`` broadcasts: given ``P.T[:, :, None]`` it returns the
    (S, q) predictions of every row of ``P``.
    """

    def __init__(self, name, param_names, evaluate, jacobian, starts, *, increasing,
                 bounds, domain=lambda p: (0.0, math.inf), feasible=None,
                 domain_message="C must be positive", asymptote=None):
        self.name = name
        self.param_names = param_names
        self.arity = len(param_names)
        self._evaluate = evaluate
        self._jacobian = jacobian
        self._domain = domain
        self.increasing = increasing
        self.bounds = (np.asarray(bounds[0], float), np.asarray(bounds[1], float))
        self.starts = starts
        self.feasible = feasible
        self.domain_message = domain_message
        self.asymptote = asymptote

    def evaluate(self, params, c):
        with np.errstate(all="ignore"):
            return self._evaluate(np.asarray(params, float), np.asarray(c, float))

    def jacobian(self, params, c):
        with np.errstate(all="ignore"):
            return self._jacobian(np.asarray(params, float), np.asarray(c, float))

    def domain(self, params):
        return tuple(float(v) for v in self._domain(np.asarray(params, float)))

    def admit(self, P, c):
        """A fresh copy of the (S, arity) stack ``P``, each row projected
        into the bounds, then nudged so every data point lies in its domain."""
        P = np.clip(P, self.bounds[0], self.bounds[1])
        if self.feasible is not None:
            self.feasible(P, c)
        return P


def _check_domain(fam: _Family, c, lo: float, hi: float, error: type[Exception]):
    """Raise ``error`` naming the family's domain when a C lies outside (lo, hi)."""
    if np.any(c <= lo) or np.any(c >= hi):
        raise error(f"{fam.name}: {fam.domain_message} (domain ({lo!r}, {hi!r}))")


def _vapor_eval(p, c):
    return np.exp(p[0] + p[1] / c)


def _vapor_jac(p, c):
    v = np.exp(p[0] + p[1] / c)
    return np.stack([v, v / c], axis=-1)


def _vapor_starts(c, a):
    if np.all(a > 0):
        m, q = np.polyfit(1.0 / c, np.log(a), 1)
        yield [q, m]


def _pow3_eval(p, c):
    return p[2] - p[0] * c ** (-p[1])


def _pow3_jac(p, c):
    cb = c ** (-p[1])
    return np.stack([-cb, p[0] * cb * np.log(c), np.ones_like(c)], axis=-1)


def _pow3_starts(c, a):
    a_max = float(a.max())
    for gamma in (a_max + 0.005, a_max + 0.02, min(a_max + 0.1, 1.15), 1.0):
        for beta in (0.3, 0.7, 1.2, 2.0, 3.0):
            gap = np.maximum(gamma - a, 1e-9)
            alpha = float(np.exp(np.median(np.log(gap) + beta * np.log(c))))
            yield [alpha, beta, gamma]


def _logpow_eval(p, c):
    u = (c / np.exp(p[1])) ** p[2]
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


def _exp4_eval(p, c):
    return p[2] - np.exp(-p[0] * c ** p[3] + p[1])


def _exp4_jac(p, c):
    ce = c ** p[3]
    e = np.exp(-p[0] * ce + p[1])
    return np.stack([ce * e, -e, np.ones_like(c), p[0] * ce * np.log(c) * e], axis=-1)


def _exp4_starts(c, a):
    a_max = float(a.max())
    for gamma in (a_max + 0.005, a_max + 0.05, 1.0):
        gap = np.maximum(gamma - a, 1e-9)
        for eps in (0.1, 0.3, 0.6, 1.0):
            m, q = np.polyfit(c**eps, np.log(gap), 1)
            yield [-m, q, gamma, eps]


def _lll_eval(p, c):
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


def _lll_domain(p):
    a, b = p
    if a > 0:
        return (_exp(-b / a), math.inf)
    if a < 0:
        return (0.0, _exp(-b / a))
    return (0.0, math.inf) if b > 0 else (math.inf, math.inf)


def _lll_feasible(P, c):
    deficit = (P[:, :1] * np.log(c) + P[:, 1:2]).min(axis=1)
    low = deficit <= 0
    P[low, 1] += -deficit[low] + 0.05


def _ilog2_eval(p, c):
    return p[1] - p[0] / np.log(c)


def _ilog2_jac(p, c):
    return np.stack([-1.0 / np.log(c), np.ones_like(c)], axis=-1)


def _ilog2_starts(c, a):
    m, q = np.polyfit(1.0 / np.log(c), a, 1)
    yield [-m, q]


def _pow4_eval(p, c):
    return p[2] - (p[0] * c + p[1]) ** p[3]


def _pow4_jac(p, c):
    s = p[0] * c + p[1]
    se1 = s ** (p[3] - 1.0)
    return np.stack(
        [-p[3] * se1 * c, -p[3] * se1, np.ones_like(c), -(s ** p[3]) * np.log(s)],
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


def _pow4_domain(p):
    a, b = p[0], p[1]
    if a > 0:
        return (max(0.0, -b / a), math.inf)
    if a < 0:
        return (0.0, -b / a) if b > 0 else (math.inf, math.inf)
    return (0.0, math.inf) if b > 0 else (math.inf, math.inf)


def _pow4_feasible(P, c):
    deficit = (P[:, :1] * c + P[:, 1:2]).min(axis=1)
    low = deficit <= 0
    P[low, 1] += -deficit[low] + 1e-3


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
            domain=_lll_domain,
            feasible=_lll_feasible,
            domain_message="alpha*log(C) + beta must be positive",
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
            domain=_pow4_domain,
            feasible=_pow4_feasible,
            domain_message="alpha*C + beta must be positive",
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

    ``domain`` is the open C interval where the expression is defined;
    each family is monotone over its domain for fixed parameters, so the
    monotone range coincides with it and ``increasing`` gives the sense.
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


def eval_curve(fit: CurveFit, c) -> np.ndarray | float:
    """Evaluate a fitted curve, enforcing the family's C-domain."""
    fam = get_family(fit.family)
    c_arr = np.asarray(c, dtype=float)
    _check_domain(fam, c_arr, *fit.domain, ValueError)
    out = fam.evaluate(fit.params, c_arr)
    return float(out) if np.isscalar(c) or c_arr.ndim == 0 else out


def curve_jacobian(family: str, params, c) -> np.ndarray:
    """Analytic Jacobian d(curve)/d(params), shape (..., arity)."""
    return get_family(family).jacobian(params, c)


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


def fit_curve(
    cycles,
    accuracy,
    family: str = "pow3",
    *,
    n_starts: int = DEFAULT_N_STARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = DEFAULT_FIT_SEED,
) -> CurveFit:
    """Nonlinear least-squares fit of one family to (C, A) points.

    Runs ``n_starts`` damped Gauss-Newton descents from data-driven and
    random initial points.  Each iteration admits (projects into the
    family's bounds and nudges into its domain) all 40 halvings of the
    Gauss-Newton step, from the full step down to 2**-39 of it, scores them
    as one stack and moves to the longest one that lowers the SSR; a start
    ends when none does.  The returned SSR is never worse than any start's
    initial SSR, and ``stops`` counts how the starts ended.  Raises
    :class:`CurveFitError` when no start produces a finite fit.
    """
    fam = get_family(family)
    c = as_float_array(cycles, "cycles", ndim=1)
    a = as_float_array(accuracy, "accuracy", ndim=1)
    if c.size != a.size:
        raise ValueError(f"cycles and accuracy differ in length: {c.size} vs {a.size}")
    if c.size < fam.arity:
        raise ValueError(
            f"insufficient points: {fam.name} needs at least {fam.arity}, got {c.size}"
        )
    if np.any(c <= 0):
        raise ValueError("cycles must be positive")
    if np.unique(c).size != c.size:
        raise ValueError("cycles must be distinct")
    if fam.feasible is None:  # a fixed domain: no parameter can move it onto the data
        _check_domain(fam, c, *fam.domain(np.zeros(fam.arity)), CurveFitError)

    best_params, best_ssr, best_resid = None, math.inf, None
    stops = dict.fromkeys(STOP_REASONS, 0)
    # A step that overflows or leaves the domain gives a non-finite SSR,
    # Jacobian or step, which the descent rejects.  One errstate per fit keeps
    # its cost (~3 us) out of the thousands of stacks a fit scores.
    with np.errstate(all="ignore"):
        starts = _starts(fam, c, a, n_starts, np.random.default_rng(seed))
        for p, ssr, resid in zip(starts, *_ssr(fam, starts, c, a)):
            if not math.isfinite(ssr):
                stops["diverged_start"] += 1
                continue
            for _ in range(max_iter):
                jac = fam._jacobian(p, c)
                if not np.isfinite(jac).all():
                    stops["nonfinite"] += 1
                    break
                delta, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
                if not np.isfinite(delta).all():
                    stops["nonfinite"] += 1
                    break
                if not delta.any():
                    stops["zero_step"] += 1
                    break
                cands = fam.admit(p + _STEPS[:, None] * delta, c)
                ssrs, resids = _ssr(fam, cands, c, a)
                k = int(np.argmax(ssrs < ssr))  # the longest step that descends
                if not ssrs[k] < ssr:
                    stops["no_descent"] += 1
                    break
                p, ssr, resid = cands[k], ssrs[k], resids[k]
            else:
                stops["max_iter"] += 1
            if ssr < best_ssr:
                best_params, best_ssr, best_resid = p, ssr, resid
    # The descent only accepts decreasing, hence finite, SSRs: a fit is
    # missing only when every start was non-finite.
    if best_params is None:
        raise CurveFitError(
            f"{fam.name}: all {n_starts} starts diverged on the given points")

    # Copies, so the fit holds no view into a candidate stack.
    fit = make_fit(fam.name, best_params.copy())
    fit.ssr, fit.residuals, fit.num_points = float(best_ssr), best_resid.copy(), c.size
    fit.stops = stops
    return fit


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


def select_model(
    cycles, accuracy, families=None, **fit_kwargs
) -> ModelSelection:
    """Fit several families and rank them by attained SSR."""
    names = FAMILY_NAMES if families is None else tuple(families)
    fits: list[CurveFit] = []
    failures: dict[str, str] = {}
    for name in names:
        try:
            fits.append(fit_curve(cycles, accuracy, name, **fit_kwargs))
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
    curve's asymptote).
    """
    a_target = float(accuracy)
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

    # At a 0-d array, not a scalar: scalar and array pow may differ by 1 ulp.
    at = lambda c: float(fam._evaluate(p, np.asarray(c, dtype=float)))
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
