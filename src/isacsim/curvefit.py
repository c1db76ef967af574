"""Parametric learning-curve regression and inversion.

Seven candidate families map a cycle count C to an accuracy A:

    vapor_pressure   exp(alpha + beta / C)
    pow3             gamma - alpha * C**(-beta)
    log_power        alpha / (1 + (C / e**beta)**gamma)
    exp4             gamma - exp(-alpha * C**epsilon + beta)
    log_log_linear   log(alpha * log(C) + beta)
    ilog2            beta - alpha / log(C)
    pow4             gamma - (alpha * C + beta)**epsilon

Fitting minimizes the sum of squared residuals with a multi-start damped
Gauss-Newton iteration: analytic Jacobians, step halving on residual
increase, and parameter bounds enforced by projection.  Model selection
ranks the families by attained SSR.  Every family is monotone in C over
its domain for fixed parameters, so curves invert by bisection (pow3 in
closed form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .base import ParamsMixin
from .validation import as_float_array

DEFAULT_N_STARTS = 64  # Gauss-Newton starts per family
DEFAULT_MAX_ITER = 500  # iterations per start
DEFAULT_FIT_SEED = 0  # seed of the random starts

_EPS_SSR = 1e-15  # relative improvement considered progress
_MIN_STEP = 1e-12


class CurveFitError(RuntimeError):
    """Raised when a family cannot be fitted to the given points."""


def _ln(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(x)


class _Family:
    def __init__(self, name, param_names, evaluate, jacobian, domain, increasing, bounds):
        self.name = name
        self.param_names = param_names
        self.arity = len(param_names)
        self._evaluate = evaluate
        self._jacobian = jacobian
        self._domain = domain
        self._increasing = increasing
        self.bounds = (np.asarray(bounds[0], float), np.asarray(bounds[1], float))

    def evaluate(self, params, c):
        with np.errstate(all="ignore"):
            return self._evaluate(np.asarray(params, float), np.asarray(c, float))

    def jacobian(self, params, c):
        with np.errstate(all="ignore"):
            return self._jacobian(np.asarray(params, float), np.asarray(c, float))

    def domain(self, params):
        return self._domain(np.asarray(params, float))

    def increasing(self, params):
        return self._increasing(np.asarray(params, float))

    def project(self, params):
        return np.clip(params, self.bounds[0], self.bounds[1])


def _vapor_eval(p, c):
    return np.exp(p[0] + p[1] / c)


def _vapor_jac(p, c):
    v = np.exp(p[0] + p[1] / c)
    return np.stack([v, v / c], axis=-1)


def _pow3_eval(p, c):
    return p[2] - p[0] * c ** (-p[1])


def _pow3_jac(p, c):
    cb = c ** (-p[1])
    return np.stack([-cb, p[0] * cb * _ln(c), np.ones_like(c)], axis=-1)


def _logpow_eval(p, c):
    u = (c / np.exp(p[1])) ** p[2]
    return p[0] / (1.0 + u)


def _logpow_jac(p, c):
    u = (c / np.exp(p[1])) ** p[2]
    denom = (1.0 + u) ** 2
    d_alpha = 1.0 / (1.0 + u)
    d_beta = p[0] * p[2] * u / denom
    d_gamma = -p[0] * u * (_ln(c) - p[1]) / denom
    return np.stack([d_alpha, d_beta, d_gamma], axis=-1)


def _exp4_eval(p, c):
    return p[2] - np.exp(-p[0] * c ** p[3] + p[1])


def _exp4_jac(p, c):
    ce = c ** p[3]
    e = np.exp(-p[0] * ce + p[1])
    return np.stack([ce * e, -e, np.ones_like(c), p[0] * ce * _ln(c) * e], axis=-1)


def _lll_eval(p, c):
    return _ln(p[0] * _ln(c) + p[1])


def _lll_jac(p, c):
    inner = p[0] * _ln(c) + p[1]
    return np.stack([_ln(c) / inner, 1.0 / inner], axis=-1)


def _ilog2_eval(p, c):
    return p[1] - p[0] / _ln(c)


def _ilog2_jac(p, c):
    return np.stack([-1.0 / _ln(c), np.ones_like(c)], axis=-1)


def _pow4_eval(p, c):
    return p[2] - (p[0] * c + p[1]) ** p[3]


def _pow4_jac(p, c):
    s = p[0] * c + p[1]
    se1 = s ** (p[3] - 1.0)
    return np.stack(
        [-p[3] * se1 * c, -p[3] * se1, np.ones_like(c), -(s ** p[3]) * _ln(s)],
        axis=-1,
    )


def _pos_domain(p):
    return (0.0, math.inf)


def _lll_domain(p):
    a, b = p
    if a > 0:
        return (math.exp(-b / a), math.inf)
    if a < 0:
        return (0.0, math.exp(-b / a))
    return (0.0, math.inf) if b > 0 else (math.inf, math.inf)


def _pow4_domain(p):
    a, b = p[0], p[1]
    if a > 0:
        return (max(0.0, -b / a), math.inf)
    if a < 0:
        return (0.0, -b / a) if b > 0 else (math.inf, math.inf)
    return (0.0, math.inf) if b > 0 else (math.inf, math.inf)


FAMILIES: dict[str, _Family] = {
    f.name: f
    for f in (
        _Family(
            "vapor_pressure",
            ("alpha", "beta"),
            _vapor_eval,
            _vapor_jac,
            _pos_domain,
            lambda p: p[1] < 0,
            ([-50.0, -1e5], [50.0, 1e5]),
        ),
        _Family(
            "pow3",
            ("alpha", "beta", "gamma"),
            _pow3_eval,
            _pow3_jac,
            _pos_domain,
            lambda p: p[0] * p[1] > 0,
            ([1e-8, 1e-4, 0.0], [1e12, 20.0, 1.2]),
        ),
        _Family(
            "log_power",
            ("alpha", "beta", "gamma"),
            _logpow_eval,
            _logpow_jac,
            _pos_domain,
            lambda p: p[0] * p[2] < 0,
            ([1e-8, -50.0, -50.0], [5.0, 100.0, 50.0]),
        ),
        _Family(
            "exp4",
            ("alpha", "beta", "gamma", "epsilon"),
            _exp4_eval,
            _exp4_jac,
            _pos_domain,
            lambda p: p[0] * p[3] > 0,
            ([-1e3, -100.0, 0.0, 1e-3], [1e3, 100.0, 1.5, 3.0]),
        ),
        _Family(
            "log_log_linear",
            ("alpha", "beta"),
            _lll_eval,
            _lll_jac,
            _lll_domain,
            lambda p: p[0] > 0,
            ([-1e3, -1e3], [1e3, 1e3]),
        ),
        _Family(
            "ilog2",
            ("alpha", "beta"),
            _ilog2_eval,
            _ilog2_jac,
            lambda p: (1.0, math.inf),
            lambda p: p[0] > 0,
            ([-1e3, -10.0], [1e3, 10.0]),
        ),
        _Family(
            "pow4",
            ("alpha", "beta", "gamma", "epsilon"),
            _pow4_eval,
            _pow4_jac,
            _pow4_domain,
            lambda p: p[0] * p[3] < 0,
            ([-1e6, -1e7, 0.0, -5.0], [1e6, 1e7, 1.5, 5.0]),
        ),
    )
}

FAMILY_NAMES = tuple(FAMILIES)

_DOMAIN_MESSAGES = {
    "vapor_pressure": "C must be positive",
    "pow3": "C must be positive",
    "log_power": "C must be positive",
    "exp4": "C must be positive",
    "log_log_linear": "alpha*log(C) + beta must be positive",
    "ilog2": "C must exceed 1",
    "pow4": "alpha*C + beta must be positive",
}


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
    """

    family: str
    params: np.ndarray
    ssr: float
    residuals: np.ndarray
    num_points: int
    domain: tuple[float, float]
    increasing: bool

    @property
    def param_names(self) -> tuple[str, ...]:
        return get_family(self.family).param_names

    @property
    def ssr_over_q(self) -> float:
        return self.ssr / self.num_points

    def __call__(self, c):
        return eval_curve(self, c)


def eval_curve(fit: CurveFit, c) -> np.ndarray | float:
    """Evaluate a fitted curve, enforcing the family's C-domain."""
    fam = get_family(fit.family)
    c_arr = np.asarray(c, dtype=float)
    lo, hi = fit.domain
    if np.any(c_arr <= lo) or np.any(c_arr >= hi):
        raise ValueError(f"{fit.family}: {_DOMAIN_MESSAGES[fit.family]} "
                         f"(domain ({lo!r}, {hi!r}))")
    out = fam.evaluate(fit.params, c_arr)
    return float(out) if np.isscalar(c) or c_arr.ndim == 0 else out


def curve_jacobian(family: str, params, c) -> np.ndarray:
    """Analytic Jacobian d(curve)/d(params), shape (..., arity)."""
    return get_family(family).jacobian(params, c)


def _linear_ls(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope/intercept of y = m*x + q."""
    m, q = np.polyfit(x, y, 1)
    return float(m), float(q)


def _starts(fam: _Family, c: np.ndarray, a: np.ndarray, n: int, rng) -> list[np.ndarray]:
    """Data-driven initial points padded with random draws from the bounds."""
    starts: list[np.ndarray] = []
    a_max = float(a.max())
    lnc = np.log(c)

    def add(vec):
        starts.append(np.asarray(vec, dtype=float))

    if fam.name == "vapor_pressure":
        if np.all(a > 0):
            m, q = _linear_ls(1.0 / c, np.log(a))
            add([q, m])
    elif fam.name == "pow3":
        for gamma in (a_max + 0.005, a_max + 0.02, min(a_max + 0.1, 1.15), 1.0):
            for beta in (0.3, 0.7, 1.2, 2.0, 3.0):
                gap = np.maximum(gamma - a, 1e-9)
                alpha = float(np.exp(np.median(np.log(gap) + beta * lnc)))
                add([alpha, beta, gamma])
    elif fam.name == "log_power":
        for alpha in (a_max * 1.002, a_max * 1.05, min(a_max * 1.3, 1.2)):
            for gamma in (-0.5, -1.5, -3.0, -5.0):
                ratio = np.maximum(alpha / np.maximum(a, 1e-9) - 1.0, 1e-12)
                beta = float(np.median(lnc - np.log(ratio) / gamma))
                add([alpha, beta, gamma])
    elif fam.name == "exp4":
        for gamma in (a_max + 0.005, a_max + 0.05, 1.0):
            gap = np.maximum(gamma - a, 1e-9)
            for eps in (0.1, 0.3, 0.6, 1.0):
                m, q = _linear_ls(c**eps, np.log(gap))
                add([-m, q, gamma, eps])
    elif fam.name == "log_log_linear":
        m, q = _linear_ls(lnc, np.exp(a))
        add([m, q])
    elif fam.name == "ilog2":
        m, q = _linear_ls(1.0 / lnc, a)
        add([-m, q])
    elif fam.name == "pow4":
        for gamma in (a_max + 0.005, a_max + 0.05, 1.0, 1.2):
            gap = np.maximum(gamma - a, 1e-9)
            m, q = _linear_ls(lnc, np.log(gap))  # slope = eps, intercept = eps*ln(alpha)
            eps = m if abs(m) > 1e-3 else -0.5
            alpha = math.exp(q / eps) if abs(eps) > 1e-6 else 1.0
            add([alpha, 0.0, gamma, eps])

    lo, hi = fam.bounds
    # Random fill within a moderate box (full bounds are too diffuse).
    span_lo = np.maximum(lo, -100.0)
    span_hi = np.minimum(hi, 100.0)
    while len(starts) < n:
        add(span_lo + rng.uniform(size=fam.arity) * (span_hi - span_lo))
    return [fam.project(s) for s in starts[:n]]


def _feasible(fam: _Family, params: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Nudge parameters so every data point lies in the family domain."""
    p = params.copy()
    if fam.name == "log_log_linear":
        inner = p[0] * np.log(c) + p[1]
        deficit = inner.min()
        if deficit <= 0:
            p[1] += -deficit + 0.05
    elif fam.name == "pow4":
        inner = p[0] * c + p[1]
        deficit = inner.min()
        if deficit <= 0:
            p[1] += -deficit + 1e-3
    return p


def _ssr(fam: _Family, params: np.ndarray, c: np.ndarray, a: np.ndarray):
    pred = fam.evaluate(params, c)
    if not np.all(np.isfinite(pred)):
        return math.inf, None
    r = pred - a
    ssr = float(np.dot(r, r))  # overflow is silenced by the caller, fit_curve
    if not math.isfinite(ssr):
        return math.inf, None
    return ssr, r


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
    random initial points; each step is halved until the SSR decreases,
    and parameters are projected into the family's bounds.  The returned
    SSR is never worse than any start's initial SSR.  Raises
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
    if fam.name == "ilog2" and np.any(c <= 1):
        raise CurveFitError("ilog2: all cycle counts must exceed 1")

    rng = np.random.default_rng(seed)
    best_params = None
    best_ssr = math.inf
    best_resid = None
    any_finite_start = False

    # A step that overflows yields a non-finite SSR, Jacobian or step,
    # which the descent already rejects.  One errstate per fit rather than
    # per SSR keeps its cost (~3 us) out of the tens of thousands of SSR
    # calls a fit makes.
    with np.errstate(over="ignore"):
        for start in _starts(fam, c, a, n_starts, rng):
            p = _feasible(fam, fam.project(start), c)
            ssr, resid = _ssr(fam, p, c, a)
            if not math.isfinite(ssr):
                continue
            any_finite_start = True
            for _ in range(max_iter):
                jac = fam.jacobian(p, c)
                if not np.all(np.isfinite(jac)):
                    break
                delta, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
                if not np.all(np.isfinite(delta)) or not np.any(delta):
                    break
                step = 1.0
                improved = False
                while step >= _MIN_STEP:
                    cand = _feasible(fam, fam.project(p + step * delta), c)
                    ssr_c, resid_c = _ssr(fam, cand, c, a)
                    if ssr_c < ssr:
                        p, ssr, resid = cand, ssr_c, resid_c
                        improved = True
                        break
                    step *= 0.5
                if not improved:
                    break
                if improved and (ssr == 0.0):
                    break
            if ssr < best_ssr:
                best_params, best_ssr, best_resid = p, ssr, resid

    if best_params is None:
        raise CurveFitError(
            f"{fam.name}: all {n_starts} starts diverged on the given points"
            if not any_finite_start
            else f"{fam.name}: no start converged to a finite fit"
        )

    return CurveFit(
        family=fam.name,
        params=best_params,
        ssr=best_ssr,
        residuals=best_resid,
        num_points=c.size,
        domain=fam.domain(best_params),
        increasing=bool(fam.increasing(best_params)),
    )


def make_fit(family: str, params) -> CurveFit:
    """Wrap externally supplied parameters as a CurveFit (no residuals)."""
    fam = get_family(family)
    p = np.asarray(params, dtype=float)
    if p.size != fam.arity:
        raise ValueError(f"{family} takes {fam.arity} parameters, got {p.size}")
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

    def to_csv(self, path) -> None:
        """CSV ``family,param1..param4,ssr,ssr_over_q`` (ranked)."""
        lines = ["family,param1,param2,param3,param4,ssr,ssr_over_q"]
        for f in self.fits:
            cells = [f"{v!r}" for v in f.params] + [""] * (4 - f.params.size)
            lines.append(f"{f.family}," + ",".join(cells) + f",{f.ssr!r},{f.ssr_over_q!r}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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


def _supremum(fit: CurveFit) -> float:
    """Least upper bound of an increasing curve over its domain."""
    fam = get_family(fit.family)
    p = fit.params
    if fit.family == "pow3":
        return float(p[2])
    if fit.family == "ilog2":
        return float(p[1])
    if fit.family == "vapor_pressure":
        return float(math.exp(p[0]))
    lo, hi = fit.domain
    probe = min(hi * (1 - 1e-12) if math.isfinite(hi) else 1e15, 1e15)
    val = fam.evaluate(p, np.asarray(probe))
    return float(val)


def invert_curve(fit: CurveFit, accuracy: float, tol: float = 1e-10) -> float:
    """Cycle count at which the fitted curve reaches ``accuracy``.

    pow3 inverts in closed form; other families by bisection over the
    monotone range.  Raises when the accuracy lies outside the achievable
    range (e.g. at or above the curve's asymptote).
    """
    a_target = float(accuracy)
    fam = get_family(fit.family)
    p = fit.params
    lo, hi = fit.domain
    if lo >= hi:
        raise ValueError(f"{fit.family}: empty domain")

    if fit.family == "pow3" and fit.increasing:
        alpha, beta, gamma = p
        if a_target >= gamma:
            raise ValueError(
                f"accuracy {a_target!r} is unreachable: at or above the "
                f"asymptote {gamma!r}"
            )
        return float((alpha / (gamma - a_target)) ** (1.0 / beta))

    sign = 1.0 if fit.increasing else -1.0
    lo_b = max(lo * (1.0 + 1e-12), lo + 1e-12, 1e-12)
    if math.isfinite(hi):
        hi_b = hi - max(1e-12, hi * 1e-12)
    else:
        hi_b = max(4.0 * lo_b, 64.0)
        while sign * (float(fam.evaluate(p, np.asarray(hi_b))) - a_target) < 0:
            hi_b *= 4.0
            if hi_b > 1e18:
                raise ValueError(
                    f"accuracy {a_target!r} is unreachable: above the curve's "
                    f"supremum {_supremum(fit)!r}"
                )
    f_lo = float(fam.evaluate(p, np.asarray(lo_b)))
    f_hi = float(fam.evaluate(p, np.asarray(hi_b)))
    if sign * (f_lo - a_target) > 0:
        raise ValueError(f"accuracy {a_target!r} lies below the achievable range")
    if sign * (f_hi - a_target) < 0:
        raise ValueError(
            f"accuracy {a_target!r} is unreachable within the domain "
            f"({lo!r}, {hi!r})"
        )
    for _ in range(200):
        mid = 0.5 * (lo_b + hi_b)
        f_mid = float(fam.evaluate(p, np.asarray(mid)))
        if sign * (f_mid - a_target) < 0:
            lo_b = mid
        else:
            hi_b = mid
        if hi_b - lo_b <= 1e-14 * max(1.0, abs(hi_b)) and abs(f_mid - a_target) <= tol:
            break
    return 0.5 * (lo_b + hi_b)


class LearningCurveModel(ParamsMixin):
    """Estimator-style wrapper: fit once, then predict and invert.

    Follows the scikit-learn protocol (constructor stores parameters
    verbatim; ``fit`` returns self; fitted attributes carry a trailing
    underscore).
    """

    def __init__(self, family: str = "pow3", n_starts: int = DEFAULT_N_STARTS,
                 max_iter: int = DEFAULT_MAX_ITER, seed: int = DEFAULT_FIT_SEED):
        self.family = family
        self.n_starts = n_starts
        self.max_iter = max_iter
        self.seed = seed

    def fit(self, cycles, accuracy):
        self.fit_ = fit_curve(
            cycles,
            accuracy,
            self.family,
            n_starts=self.n_starts,
            max_iter=self.max_iter,
            seed=self.seed,
        )
        self.params_ = self.fit_.params
        self.ssr_ = self.fit_.ssr
        return self

    def _check_fitted(self):
        if not hasattr(self, "fit_"):
            raise RuntimeError("this LearningCurveModel instance is not fitted yet")

    def predict(self, cycles):
        self._check_fitted()
        return eval_curve(self.fit_, cycles)

    def inverse(self, accuracy):
        self._check_fitted()
        return invert_curve(self.fit_, accuracy)
