import csv
import math
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isacsim import (
    FAMILY_NAMES,
    eval_curve,
    fit_curve,
    invert_curve,
    make_fit,
    select_model,
)
from isacsim.curvefit import (
    DEFAULT_FIT_SEED,
    DEFAULT_MAX_ITER,
    FAMILIES,
    STOP_REASONS,
    CurveFitError,
    _descend,
    _gauss_newton_steps,
    _ssr,
    _starts,
    curve_jacobian,
)

# Published benchmark: accuracy of a deep spectrogram classifier vs the
# number of sensing cycles, with its reported pow3 parameters.
BENCH_C = np.array([200.0, 300.0, 400.0, 500.0, 600.0, 1000.0])
BENCH_A = np.array([0.788, 0.902, 0.916, 0.926, 0.932, 0.956])
BENCH_POW3 = (6.1906e4, 2.4297, 0.9499)

# Noisy, non-monotone points on which math.exp once overflowed in the
# log_log_linear domain and in a pow4 start.
OVERFLOW_POINTS = {
    "log_log_linear": (
        [210.634, 749.871, 777.245, 967.004, 1015.018, 1520.085, 1646.243, 1895.088],
        [0.8634, 0.921, 0.7586, 0.8227, 0.934, 0.8718, 0.8303, 0.8675]),
    "pow4": (
        [136.473, 672.19, 734.881, 883.551, 1005.352, 1577.13, 1894.022],
        [0.8841, 0.8102, 0.9645, 0.9167, 0.8748, 0.8673, 0.8919]),
}

# Parameter draws for randomized checks, safely inside each family domain.
RANDOM_RANGES = {
    "vapor_pressure": ([-1.0, -200.0], [0.5, -10.0]),
    "pow3": ([10.0, 0.5, 0.7], [1e4, 2.5, 1.1]),
    "log_power": ([0.5, 1.0, -4.0], [1.0, 8.0, -0.5]),
    "exp4": ([0.1, -2.0, 0.7, 0.2], [2.0, 2.0, 1.1, 0.8]),
    "log_log_linear": ([0.1, 0.5], [0.4, 2.0]),
    "ilog2": ([0.5, 1.0], [4.0, 2.0]),
    "pow4": ([1.0, 1.0, 0.7, -1.5], [50.0, 100.0, 1.1, -0.2]),
}


def random_params(family, rng):
    lo, hi = RANDOM_RANGES[family]
    return np.asarray(lo) + rng.uniform(size=len(lo)) * (
        np.asarray(hi) - np.asarray(lo)
    )


class TestEvalCurve:
    def test_pow3_benchmark_value(self):
        fit = make_fit("pow3", BENCH_POW3)
        assert eval_curve(fit, 200.0) == pytest.approx(0.7913, abs=5e-4)

    def test_pow3_asymptote(self):
        fit = make_fit("pow3", BENCH_POW3)
        assert eval_curve(fit, 1e12) == pytest.approx(0.9499, abs=1e-6)

    def test_make_fit_arity_checked(self):
        with pytest.raises(ValueError, match="pow3 takes 3 parameters, got 2"):
            make_fit("pow3", (1.0, 2.0))

    def test_vapor_pressure_constant_when_beta_zero(self):
        fit = make_fit("vapor_pressure", (0.3, 0.0))
        values = [eval_curve(fit, c) for c in (1.0, 10.0, 1e6)]
        assert np.allclose(values, math.exp(0.3))

    def test_expressions_hand_checked(self):
        c = 50.0
        cases = {
            "vapor_pressure": ((0.2, -30.0), math.exp(0.2 - 30.0 / c)),
            "pow3": ((5.0, 1.2, 0.9), 0.9 - 5.0 * c**-1.2),
            "log_power": ((0.95, 3.0, -2.0),
                          0.95 / (1 + (c / math.exp(3.0)) ** -2.0)),
            "exp4": ((0.4, 0.5, 0.93, 0.5),
                     0.93 - math.exp(-0.4 * c**0.5 + 0.5)),
            "log_log_linear": ((0.25, 1.1),
                               math.log(0.25 * math.log(c) + 1.1)),
            "ilog2": ((1.5, 1.3), 1.3 - 1.5 / math.log(c)),
            "pow4": ((2.0, 3.0, 0.95, -0.8), 0.95 - (2.0 * c + 3.0) ** -0.8),
        }
        for family, (params, expected) in cases.items():
            assert eval_curve(make_fit(family, params), c) == pytest.approx(
                expected, rel=1e-12
            ), family

    @pytest.mark.parametrize("params, name", [
        ((math.nan, 1.0, 1.0), "alpha"),
        ((1.0, math.nan, 1.0), "beta"),
        ((math.inf, 1.0, 1.0), "alpha"),
        ((1.0, 1.0, math.inf), "gamma"),
    ])
    def test_non_finite_parameter_named(self, params, name):
        # Unchecked, it would surface only when the region is traced, as a
        # misleading "infeasible" ("need at least 3 boundary points").
        with pytest.raises(ValueError, match=f"pow3: parameter {name} must be finite"):
            make_fit("pow3", params)

    def test_domain_violations_named(self):
        with pytest.raises(ValueError, match="ilog2: C must exceed 1"):
            eval_curve(make_fit("ilog2", (1.0, 1.0)), 0.5)
        with pytest.raises(ValueError, match="pow4"):
            eval_curve(make_fit("pow4", (1.0, -500.0, 0.9, 0.5)), 100.0)
        with pytest.raises(ValueError, match="log_log_linear"):
            eval_curve(make_fit("log_log_linear", (1.0, -10.0)), 2.0)

    @pytest.mark.parametrize("c", [math.nan, [500.0, math.nan]])
    def test_nan_cycles_outside_every_domain(self, c):
        # NaN compares False both ways: it must not slip past the domain check.
        with pytest.raises(ValueError, match=r"pow3: C must be positive"):
            eval_curve(make_fit("pow3", BENCH_POW3), c)


# alpha*h(C) + beta, the base of the two families whose domain moves with
# their parameters, computed as their expressions compute it.
DOMAIN_BASE = {
    "pow4": lambda a, b, c: a * c + b,
    "log_log_linear": lambda a, b, c: a * np.log(c) + b,
}


class TestLinearConstraintDomain:
    """pow4's and log_log_linear's domains admit no float C at which
    ``alpha*h(C) + beta`` computes zero or below, and an empty domain has
    one form, ``(inf, inf)``."""

    def first_admitted(self, family, ab):
        """(alpha, beta, C) rows: each finite end's first float inside it,
        for every (alpha, beta) row of ``ab`` whose domain is not empty; the
        curve (pow4 with gamma 0.9, epsilon -1.5) must not read NaN there."""
        rest = [0.9, -1.5][: FAMILIES[family].arity - 2]
        rows = []
        for a, b in ab:
            fit = make_fit(family, [a, b, *rest])
            lo, hi = fit.domain
            for end, inward in ((lo, math.inf), (hi, 0.0)):
                if lo < hi and math.isfinite(end):
                    c = math.nextafter(end, inward)
                    assert not math.isnan(eval_curve(fit, c)), (family, a, b, c)
                    rows.append((a, b, c))
        return np.array(rows).reshape(-1, 3)

    @pytest.mark.parametrize("family", list(DOMAIN_BASE))
    @pytest.mark.parametrize("scale", [1.0, 50.0, 1000.0])
    def test_first_admitted_float_has_a_positive_base(self, family, scale):
        ab = np.random.default_rng(int(scale)).uniform(-scale, scale, (4000, 2))
        if family == "pow4":
            ab[::4, 0] *= 1e-6  # shallow slopes put the root far out
        rows = self.first_admitted(family, ab.tolist())
        base = DOMAIN_BASE[family](*rows.T)
        assert rows.shape[0] > 3000
        assert np.all(base > 0), f"{np.sum(base <= 0)} of {base.size} ends"

    @pytest.mark.parametrize("family, ab", [
        ("pow4", (9.347030807966872, -35.84374015123612)),  # once read -inf just inside
        ("pow4", (5e-320, -1e-319)),  # a subnormal slope
        ("pow4", (-5e-320, 1e-319)),
        ("log_log_linear", (1e-310, -1e-308)),
        ("log_log_linear", (1.0, 740.0)),  # the lower end is a subnormal C
        ("log_log_linear", (-1.0, -740.0)),  # the upper end is a subnormal C
    ])
    def test_extreme_ends_have_a_positive_base(self, family, ab):
        rows = self.first_admitted(family, [ab])
        assert rows.shape[0] and np.all(DOMAIN_BASE[family](*rows.T) > 0)

    @pytest.mark.parametrize("family, params", [
        ("pow4", (-1.0, -5.0, 1.0, 0.5)),
        ("pow4", (0.0, 0.0, 1.0, 0.5)),
        ("pow4", (1e-300, -1e300, 1.0, 0.5)),  # the root lies beyond the float range
        ("log_log_linear", (-1.0, -800.0)),  # exp of the end underflows to 0
        ("log_log_linear", (1.0, -800.0)),  # exp of the end overflows
        ("log_log_linear", (0.0, -1.0)),
    ])
    def test_empty_domain_has_one_form(self, family, params):
        fit = make_fit(family, params)
        assert fit.domain == (math.inf, math.inf)
        with pytest.raises(ValueError, match=f"{family}: empty domain"):
            invert_curve(fit, 0.5)

    @pytest.mark.parametrize("family, params, domain", [
        ("pow4", (0.0, 2.0, 1.0, 0.5), (0.0, math.inf)),
        ("pow4", (2.0, 3.0, 1.0, 0.5), (0.0, math.inf)),
        ("pow4", (-2.0, 3.0, 1.0, 0.5), (0.0, 1.5)),
        ("pow4", (2.0, -3.0, 1.0, 0.5), (1.5, math.inf)),
        ("log_log_linear", (1.0, 2.0), (math.exp(-2.0), math.inf)),
        ("log_log_linear", (-1.0, 2.0), (0.0, math.exp(2.0))),
    ])
    def test_domain_ends_sit_a_few_ulps_inside_the_root(self, family, params, domain):
        lo, hi = make_fit(family, params).domain
        assert (lo, hi) == pytest.approx(domain, rel=1e-14, abs=0.0)
        assert domain[0] <= lo and hi <= domain[1]


class TestJacobians:
    def test_matches_central_differences(self):
        # Analytic Jacobians agree with central finite differences to 1e-6
        # relative, for every family at 100 random parameter points.  The
        # check applies where the difference quotient is numerically
        # certifiable: below |derivative| ~ eps*|f|/h the quotient is pure
        # cancellation noise, so those entries get a loose guard instead.
        rng = np.random.default_rng(42)
        c = np.array([30.0, 120.0, 480.0, 950.0])
        for family in FAMILY_NAMES:
            fam = FAMILIES[family]
            for _ in range(100):
                p = random_params(family, rng)
                jac = curve_jacobian(family, p, c)
                fd = np.empty_like(jac)
                for j in range(fam.arity):
                    h = 1e-6 * max(1.0, abs(p[j]))
                    up, dn = p.copy(), p.copy()
                    up[j] += h
                    dn[j] -= h
                    fd[:, j] = (fam.evaluate(up, c) - fam.evaluate(dn, c)) / (2 * h)
                scale = np.maximum(np.abs(jac), np.abs(fd))
                err = np.abs(jac - fd)
                certifiable = scale > 1e-3
                assert np.all(err[certifiable] < 1e-6 * scale[certifiable]), family
                assert np.all(err[~certifiable] < 1e-2 * scale[~certifiable] + 1e-9), family

    def test_matches_complex_step(self):
        # Complex-step differentiation has no cancellation error, so every
        # entry is held to 1e-6 relative (or twice machine eps absolute).
        rng = np.random.default_rng(43)
        c = np.array([30.0, 120.0, 480.0, 950.0])
        h = 1e-30
        for family in FAMILY_NAMES:
            fam = FAMILIES[family]
            for _ in range(100):
                p = random_params(family, rng)
                jac = curve_jacobian(family, p, c)
                cs = np.empty_like(jac)
                for j in range(fam.arity):
                    pc = p.astype(complex)
                    pc[j] += 1j * h
                    with np.errstate(all="ignore"):
                        cs[:, j] = np.imag(fam._evaluate(pc, c)) / h
                scale = np.maximum(np.abs(jac), np.abs(cs))
                assert np.all(np.abs(jac - cs) <= 1e-6 * scale + 1e-15), family

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_stack_equals_each_row_alone(self, family):
        # The lockstep descent takes the (S, q, arity) Jacobian of a whole
        # parameter stack; each row must hold its curve_jacobian to the
        # last bit, a non-finite row included.  Exponents of exactly 0.5, 2
        # and -1 are not drawn: numpy may take sqrt, square or reciprocal for
        # them in a one- or two-row column, which can differ from pow by an ulp.
        fam = FAMILIES[family]
        rng = np.random.default_rng(44)
        P = np.array([random_params(family, rng) for _ in range(6)])
        P[2, 0] = math.nan
        P[4, -1] = math.inf
        with np.errstate(all="ignore"):
            J = fam._jacobian(P.T[:, :, None], BENCH_C)
        assert J.shape == (6, BENCH_C.size, fam.arity)
        rows = np.stack([curve_jacobian(family, p, BENCH_C) for p in P])
        assert J.tobytes() == rows.tobytes()


class TestFitCurve:
    def test_noiseless_pow3_recovery(self):
        c = np.arange(100.0, 1001.0, 100.0)
        truth = make_fit("pow3", (1000.0, 1.5, 0.95))
        a = np.array([eval_curve(truth, x) for x in c])
        fit = fit_curve(c, a, "pow3")
        assert fit.ssr < 1e-12
        assert np.allclose(fit.params, (1000.0, 1.5, 0.95), rtol=1e-3)

    def test_benchmark_pow3_beats_published_ssr(self):
        fit = fit_curve(BENCH_C, BENCH_A, "pow3")
        assert fit.ssr <= 3.383e-4
        assert 0.93 <= fit.params[2] <= 0.97
        assert fit.increasing

    def test_published_params_residual(self):
        # Evaluating the reported pow3 parameters on the benchmark points
        # reproduces the reported error as a summed squared residual.
        fit = make_fit("pow3", BENCH_POW3)
        resid = np.array([eval_curve(fit, c) for c in BENCH_C]) - BENCH_A
        ssr = float(resid @ resid)
        assert 3.0e-4 <= ssr <= 3.8e-4

    @pytest.mark.parametrize("row", list(csv.DictReader(
        line for line in resources.files("isacsim").joinpath(
            "data", "reference_curve_fits.csv").read_text().splitlines()
        if not line.startswith("#")
    )), ids=lambda row: row["family"])
    def test_bundled_published_fit(self, row):
        # Every bundled fit rises with C and reproduces its published SSR.
        params = [float(row[k]) for k in ("alpha", "beta", "gamma", "epsilon") if row[k]]
        fit = make_fit(row["family"], params)
        assert fit.increasing
        resid = eval_curve(fit, BENCH_C) - BENCH_A
        assert float(resid @ resid) == pytest.approx(float(row["ssr"]), rel=0.02)

    def test_insufficient_points_rejected(self):
        with pytest.raises(ValueError, match="insufficient"):
            fit_curve([100.0, 200.0], [0.5, 0.6], "pow3")

    def test_duplicate_cycles_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_curve([100.0, 100.0, 300.0], [0.5, 0.6, 0.7], "pow3")

    def test_points_outside_fixed_domain_rejected(self):
        with pytest.raises(CurveFitError, match="ilog2: C must exceed 1"):
            fit_curve([1.0, 2.0, 3.0], [0.5, 0.6, 0.7], "ilog2")

    def test_ssr_never_worse_than_any_start(self):
        # Monotone acceptance: the returned SSR, checked against a fresh
        # evaluation, is bounded by every start's initial SSR.
        c = BENCH_C
        a = BENCH_A
        for family in ("pow3", "ilog2", "vapor_pressure", "log_power", "pow4"):
            fam = FAMILIES[family]
            fit = fit_curve(c, a, family, n_starts=16)
            pred = np.array([eval_curve(fit, x) for x in c])
            assert fit.ssr == pytest.approx(float(np.sum((pred - a) ** 2)), rel=1e-9)
            starts = _starts(fam, c, a, 16, np.random.default_rng(DEFAULT_FIT_SEED))
            with np.errstate(over="ignore"):  # a diverging start may square to inf
                initial = [float(np.sum((fam.evaluate(p, c) - a) ** 2)) for p in starts]
            assert len(starts) == 16 and any(math.isfinite(s) for s in initial)
            assert all(fit.ssr <= s for s in initial if not math.isnan(s))

    def test_all_starts_diverged(self):
        # A random vapor_pressure start overflows exp(alpha + beta / C) at
        # C ~ 1e-6, and no data-driven start exists for negative accuracies.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CurveFitError,
                               match=r"^vapor_pressure: all 1 starts diverged"):
                fit_curve([1e-6, 2e-6, 3e-6], [-0.1, 0.5, 0.6], "vapor_pressure",
                          n_starts=1, seed=1)

    def test_no_starts_is_a_fit_error(self):
        with pytest.raises(CurveFitError, match=r"^pow3: all 0 starts diverged"):
            fit_curve(BENCH_C, BENCH_A, "pow3", n_starts=0)

    @pytest.mark.parametrize("bad", [
        -1,   # would run 19 of pow3's 20 data-driven starts
        -19,
        2.5,  # would fail as a slice index
    ])
    def test_bad_counts_named(self, bad):
        with pytest.raises(ValueError, match=rf"^n_starts must be (an integer|>= 0), got {bad}$"):
            fit_curve(BENCH_C, BENCH_A, "pow3", n_starts=bad)

    def test_numpy_integer_counts_accepted(self):
        fit = fit_curve(BENCH_C, BENCH_A, "ilog2", n_starts=np.int64(4))
        assert sum(fit.stops.values()) == 4

    def test_residuals_reported_per_point(self):
        fit = fit_curve(BENCH_C, BENCH_A, "ilog2")
        assert fit.residuals.shape == BENCH_C.shape
        assert fit.ssr == pytest.approx(float(np.sum(fit.residuals**2)))


def sequential_fit(fam, c, a, n_starts):
    """Reference for ``fit_curve``: one start at a time, the step search one
    candidate at a time, each admitted as a one-row stack and scored with
    ``np.dot``.

    Invariant guarded: each start of ``fit_curve`` takes exactly the steps
    a lone start takes, so neither the lockstep stack of starts nor the
    stack of step halvings moves a bit of the fit.  Its layout-free part,
    checked by ``test_fit_is_the_least_final_ssr_of_its_starts`` at the
    default budget: the fit's SSR is the least finite final SSR over the
    starts, no start ends above its initial SSR, and ``fit.stops`` counts
    every start.
    """
    def ssr(p):
        r = fam._evaluate(p, c) - a
        s = float(np.dot(r, r))
        return (s, r) if math.isfinite(s) else (math.inf, None)

    best = (None, math.inf, None)
    with np.errstate(all="ignore"):
        for p in _starts(fam, c, a, n_starts, np.random.default_rng(DEFAULT_FIT_SEED)):
            s, r = ssr(p)
            if not math.isfinite(s):
                continue
            for _ in range(DEFAULT_MAX_ITER):
                jac = fam._jacobian(p, c)
                if not np.all(np.isfinite(jac)):
                    break
                delta, *_ = np.linalg.lstsq(jac, -r, rcond=None)
                if not np.all(np.isfinite(delta)) or not np.any(delta):
                    break
                for step in (0.5**k for k in range(40)):
                    cand = fam.admit((p + step * delta)[None], c)[0]
                    s_c, r_c = ssr(cand)
                    if s_c < s:
                        break
                else:  # no step decreases the SSR
                    break
                p, s, r = cand, s_c, r_c
            if s < best[1]:
                best = (p, s, r)
    return best


class TestBatchedStepSearch:
    """Byte pins of the stacked descent.  Invariants guarded:

    - each start takes exactly the steps a lone start takes
      (:func:`sequential_fit`, and a stack against each row alone), with
      its layout-free part checked on any BLAS kernel;
    - ``select_model`` at seed 0 holds the stored ``curves_region``
      reference bits of perfbench.
    """

    @pytest.mark.parametrize("points", ["bench", *OVERFLOW_POINTS])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_matches_sequential_step_search_bytewise(self, family, points):
        c, a = (BENCH_C, BENCH_A) if points == "bench" else map(
            np.array, OVERFLOW_POINTS[points])
        params, ssr, resid = sequential_fit(FAMILIES[family], c, a, n_starts=8)
        fit = fit_curve(c, a, family, n_starts=8)
        assert fit.params.tobytes() == params.tobytes()
        assert repr(fit.ssr) == repr(ssr)
        assert fit.residuals.tobytes() == resid.tobytes()

    @pytest.mark.parametrize("points", ["bench", "planted"])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_fit_is_the_least_final_ssr_of_its_starts(self, family, points):
        # sequential_fit's invariants without a bit of any step compared, so
        # they hold on every BLAS kernel.
        c, a = (BENCH_C, BENCH_A) if points == "bench" else (
            self.PLANTED_C, 1.4 - 1.2 / np.log(self.PLANTED_C))
        fam = FAMILIES[family]
        starts = _starts(fam, c, a, 8, np.random.default_rng(DEFAULT_FIT_SEED))
        with np.errstate(all="ignore"):
            initial = _ssr(fam, starts, c, a)[0]
            final = _descend(fam, starts, c, a, DEFAULT_MAX_ITER)[1]
        fit = fit_curve(c, a, family, n_starts=8)
        assert fit.ssr == final[np.isfinite(final)].min()
        assert np.array_equal(np.isfinite(final), np.isfinite(initial))
        assert np.all(final[np.isfinite(final)] <= initial[np.isfinite(initial)])
        assert sum(fit.stops.values()) == 8

    def test_select_model_matches_benchmark_reference(self, bench_selection,
                                                      curves_region_reference):
        # perfbench's stored curves_region check fits: select_model at seed 0
        # on the bundled points, to the last bit.
        ref = curves_region_reference
        stored = {k.split("/")[2] for k in ref if k.startswith("check/fit/")}
        assert {f.family for f in bench_selection.fits} == stored
        for fit in bench_selection.fits:
            key = f"check/fit/{fit.family}"
            assert fit.params.tobytes() == ref[f"{key}/params"].tobytes(), key
            assert np.array([fit.ssr]).tobytes() == ref[f"{key}/ssr"].tobytes(), key

    @pytest.mark.parametrize("family, rows", [
        ("log_log_linear", [
            [1.0, -math.log(200.0)],  # deficit exactly 0 at C = 200
            [0.1, -2.0],              # negative deficit
            [0.2, 1.0],               # already inside the domain
            [math.nan, 1.0],
            [5e3, -5e3],              # outside the bounds
        ]),
        ("pow4", [
            [1.0, -200.0, 0.9, -0.5],  # deficit exactly 0 at C = 200
            [-1.0, 10.0, 0.9, 0.5],    # negative deficit
            [2.0, 3.0, 0.95, -0.8],    # already inside the domain
            [1.0, math.nan, 0.9, -0.5],
            [2e6, -2e7, 2.0, 9.0],     # outside the bounds
        ]),
    ])
    def test_admit_stack_equals_each_row_alone(self, family, rows):
        fam = FAMILIES[family]
        P = np.array(rows)
        admitted = fam.admit(P, BENCH_C)
        alone = np.vstack([fam.admit(row[None], BENCH_C) for row in P])
        assert admitted.tobytes() == alone.tobytes()
        assert admitted[0, 1] != P[0, 1]  # a zero deficit is nudged too
        assert np.array_equal(P, np.array(rows), equal_nan=True)  # input untouched
        assert admitted[4, 0] == fam.bounds[1][0]  # projected onto the bound

    @pytest.mark.parametrize("points", ["bench", "log_log_linear", "planted", "negative"])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_descent_of_stack_equals_each_row_alone(self, family, points):
        # 8 starts in lockstep against each start descended as a one-row
        # stack.  One start is diverged; the others end by every other stop
        # reason somewhere in the parametrization (max_iter at 60 steps,
        # zero_step on planted ilog2, nonfinite on negative log_power).
        c, a = {
            "bench": (BENCH_C, BENCH_A),
            "log_log_linear": tuple(map(np.array, OVERFLOW_POINTS["log_log_linear"])),
            "planted": (self.PLANTED_C, 1.4 - 1.2 / np.log(self.PLANTED_C)),
            "negative": (np.array([167.0, 236.0, 495.0, 1454.0, 2648.0]),
                         np.array([-0.404, 0.387, -0.479, -0.232, -0.42])),
        }[points]
        fam = FAMILIES[family]
        starts = _starts(fam, c, a, 8, np.random.default_rng(DEFAULT_FIT_SEED))
        starts[5] = math.nan
        with np.errstate(all="ignore"):
            stacked = _descend(fam, starts, c, a, 60)
            alone = [_descend(fam, row[None], c, a, 60) for row in starts]
        assert stacked[3][5] == STOP_REASONS.index("diverged_start")
        for i, lone in enumerate(alone):
            for got, want in zip(stacked, lone):  # params, SSR, residuals, stop reason
                assert got[i].tobytes() == want[0].tobytes(), (i, got[i], want[0])

    @pytest.mark.parametrize("q", [2, 6, 17])
    def test_batched_ssr_rounds_like_dot(self, q):
        # _ssr scores a stack with one batched matmul; every row must round
        # like np.dot(r, r), the sequential SSR.  A BLAS whose batched
        # product sums in another order fails here by name.
        rng = np.random.default_rng(q)
        c = np.sort(rng.uniform(2.0, 5000.0, size=q))
        a = rng.uniform(0.3, 1.0, size=q)
        P = rng.uniform([0.1, -2.0], [4.0, 2.0], size=(500, 2))
        ssrs, R = _ssr(FAMILIES["ilog2"], P, c, a)
        assert R.shape == (500, q)
        assert ssrs.tobytes() == np.array([np.dot(r, r) for r in R]).tobytes()

    def test_fit_owns_its_arrays(self):
        fit = fit_curve(BENCH_C, BENCH_A, "pow4", n_starts=8)
        assert fit.params.base is None
        assert fit.residuals.base is None

    PLANTED_C = np.array([10.0, 30.0, 90.0, 270.0, 810.0])

    @pytest.mark.parametrize("case, kwargs, expected", [
        ("bench", dict(family="pow3"), {"no_descent": 8}),
        ("planted", dict(family="ilog2"), {"zero_step": 8}),
        ("tiny_c", dict(family="vapor_pressure", seed=1, n_starts=4),
         {"diverged_start": 2}),
        ("negative", dict(family="log_power"), {"nonfinite": 2}),
    ])
    def test_stop_reasons_count_every_start(self, case, kwargs, expected):
        c, a = {
            "bench": (BENCH_C, BENCH_A),
            # ilog2 with alpha 1.2, beta 1.4
            "planted": (self.PLANTED_C, 1.4 - 1.2 / np.log(self.PLANTED_C)),
            "tiny_c": ([1e-6, 2e-6, 3e-6, 1.0], [-0.1, 0.5, 0.6, 0.7]),
            "negative": ([167.0, 236.0, 495.0, 1454.0, 2648.0],
                         [-0.404, 0.387, -0.479, -0.232, -0.42]),
        }[case]
        kwargs = {"n_starts": 8, **kwargs}
        fit = fit_curve(c, a, **kwargs)
        assert tuple(fit.stops) == STOP_REASONS
        assert sum(fit.stops.values()) == kwargs["n_starts"]
        assert all(fit.stops[k] == v for k, v in expected.items())

    def test_max_iter_stops_count_every_start(self):
        # The budget is fixed at DEFAULT_MAX_ITER, so the descent is cut at
        # 2 iterations directly; every start is still counted, as max_iter.
        fam = FAMILIES["pow3"]
        starts = _starts(fam, BENCH_C, BENCH_A, 8, np.random.default_rng(DEFAULT_FIT_SEED))
        with np.errstate(all="ignore"):
            stop = _descend(fam, starts, BENCH_C, BENCH_A, 2)[3]
        counts = dict(zip(STOP_REASONS, np.bincount(stop, minlength=len(STOP_REASONS))))
        assert counts == {**dict.fromkeys(STOP_REASONS, 0), "max_iter": 8}


class TestGaussNewtonSteps:
    """The batched least-squares call of the descent.  Invariant guarded:
    each row is the bits of ``np.linalg.lstsq(J[i], -R[i], rcond=None)[0]``,
    so a numpy whose gelsd gufunc or ``lstsq`` wrapper changes fails here."""

    @staticmethod
    def per_row(J, R):
        return np.array([np.linalg.lstsq(j, -r, rcond=None)[0] for j, r in zip(J, R)])

    @pytest.mark.parametrize("q, arity", [  # a family fits at least arity points
        (q, arity) for q in range(2, 12) for arity in (2, 3, 4) if q >= arity])
    def test_equals_lstsq_per_row(self, q, arity):
        rng = np.random.default_rng(100 * q + arity)
        J = rng.normal(size=(9, q, arity)) * 10.0 ** rng.uniform(-6, 6, size=(9, 1, arity))
        R = rng.normal(size=(9, q))
        J[1, :, -1] = J[1, :, 0]  # rank-deficient: a repeated column
        R[2] = 0.0                # already at a zero residual
        D = _gauss_newton_steps(J, R)
        assert D.shape == (9, arity)
        assert D.tobytes() == self.per_row(J, R).tobytes()
        assert not D[2].any()

    def test_empty_stack(self):
        assert _gauss_newton_steps(np.empty((0, 6, 3)), np.empty((0, 6))).shape == (0, 3)

    def test_svd_failure_raises_under_silenced_errstate(self):
        # fit_curve runs the descent with every numpy warning silenced; a
        # non-converging SVD must still raise, as it does from lstsq.
        J = np.ones((2, 4, 2))
        J[1, 0, 0] = math.inf
        with np.errstate(all="ignore"):
            with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                _gauss_newton_steps(J, np.ones((2, 4)))


class TestSelectModel:
    def test_benchmark_ranking_has_pow3_on_top(self):
        selection = select_model(BENCH_C, BENCH_A)
        names = [f.family for f in selection.fits]
        assert "pow3" in names[:2]
        assert selection.fits[0].ssr <= selection.fits[-1].ssr

    def test_planted_family_wins(self):
        c = np.array([10.0, 30.0, 90.0, 270.0, 810.0])
        truth = make_fit("ilog2", (1.2, 1.4))
        a = np.array([eval_curve(truth, x) for x in c])
        selection = select_model(c, a)
        assert selection.fits[0].family == "ilog2"
        assert selection.fits[0].ssr < 1e-12

    def test_single_family(self):
        selection = select_model(BENCH_C, BENCH_A, families=["pow3"])
        assert [f.family for f in selection.fits] == ["pow3"]

    def test_failures_reported(self):
        # Two points cannot support three-parameter families.
        selection = select_model(
            np.array([10.0, 100.0]), np.array([0.5, 0.8])
        )
        assert "pow3" in selection.failures
        assert any(f.family in ("ilog2", "vapor_pressure", "log_log_linear")
                   for f in selection.fits)

    @pytest.mark.parametrize("family, c, a",
                             [(f, *OVERFLOW_POINTS[f]) for f in OVERFLOW_POINTS])
    def test_exp_overflow_on_noisy_points_is_not_fatal(self, family, c, a):
        # Noisy, non-monotone points drive exp(-b/a) in the log_log_linear
        # domain and exp(q/eps) in a pow4 start past the float range; the
        # family must still come out fitted or failed.
        selection = select_model(np.array(c), np.array(a), families=[family])
        assert [f.family for f in selection.fits] + list(selection.failures) == [family]

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_each_fit_is_fit_curve_at_the_same_seed(self, family):
        # select_model forwards only the seed: each ranked fit is the
        # family's fit_curve at the default starts and budget.
        fit = select_model(BENCH_C, BENCH_A, [family], seed=3).fits[0]
        alone = fit_curve(BENCH_C, BENCH_A, family, seed=3)
        assert fit.params.tobytes() == alone.params.tobytes()
        assert repr(fit.ssr) == repr(alone.ssr)
        assert fit.stops == alone.stops

    def test_csv_format(self, tmp_path):
        selection = select_model(BENCH_C, BENCH_A, families=["pow3", "ilog2"])
        out = tmp_path / "fits.csv"
        selection.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "family,param1,param2,param3,param4,ssr,ssr_over_q"
        assert len(lines) == 3


class TestInvertCurve:
    def test_pow3_closed_form(self):
        fit = make_fit("pow3", BENCH_POW3)
        c = invert_curve(fit, 0.9)
        alpha, beta, gamma = BENCH_POW3
        expected = (alpha / (gamma - 0.9)) ** (1.0 / beta)
        assert c == pytest.approx(expected, rel=1e-12)
        assert round(c) == 322

    def test_round_trip_all_families(self):
        rng = np.random.default_rng(7)
        for family in FAMILY_NAMES:
            for _ in range(25):
                p = random_params(family, rng)
                fit = make_fit(family, p)
                lo, hi = fit.domain
                c_ref = min(max(500.0, 4.0 * lo), 1e5)
                if not lo < c_ref < hi:
                    c_ref = math.sqrt(max(lo, 1.0) * hi) if math.isfinite(hi) else 10.0
                a = eval_curve(fit, c_ref)
                c_back = invert_curve(fit, a)
                assert eval_curve(fit, c_back) == pytest.approx(a, abs=1e-9), family

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(st.data(), st.floats(math.log(2.0), math.log(1e5)))
    def test_backward_error_within_float_neighbours(self, family, data, log_c):
        # An inverse is judged by its backward error: the accuracy must lie
        # between the curve values at the floats next to the returned C, up
        # to rounding of the curve itself.  Drawn where the slope is
        # resolvable: the accuracy moves over a relative step of 1e-12 in C.
        params = [data.draw(st.floats(lo, hi)) for lo, hi in zip(*RANDOM_RANGES[family])]
        fit = make_fit(family, params)
        c = math.exp(log_c)
        assume(fit.domain[0] < c < fit.domain[1])
        a = eval_curve(fit, c)
        assume(eval_curve(fit, c * (1.0 + 1e-12)) > a)
        c_back = invert_curve(fit, a)
        near = [eval_curve(fit, math.nextafter(c_back, side)) for side in (-math.inf, math.inf)]
        slack = 2.0 * math.ulp(a)
        assert min(near) - slack <= a <= max(near) + slack

    def test_round_trip_at_500(self):
        fit = fit_curve(BENCH_C, BENCH_A, "pow3")
        a = eval_curve(fit, 500.0)
        assert invert_curve(fit, a) == pytest.approx(500.0, abs=1e-6)

    def test_asymptote_unreachable(self):
        fit = make_fit("pow3", BENCH_POW3)
        with pytest.raises(ValueError, match="unreachable"):
            invert_curve(fit, 0.9499)
        with pytest.raises(ValueError, match="unreachable"):
            invert_curve(fit, 0.99)

    @pytest.mark.parametrize("family", ["pow3", "ilog2", "vapor_pressure"])
    def test_closed_form_asymptote_unreachable(self, family):
        params, asymptote = {
            "pow3": (BENCH_POW3, 0.9499),
            "ilog2": ((3.5228, 1.4863), 1.4863),
            "vapor_pressure": ((0.0117, -44.518), math.exp(0.0117)),
        }[family]
        with pytest.raises(ValueError, match="at or above the asymptote"):
            invert_curve(make_fit(family, params), asymptote)

    def test_unbounded_pow3_inverts_above_gamma(self):
        # alpha, beta < 0: A = 0.5 + sqrt(C) is increasing and unbounded.
        fit = make_fit("pow3", (-1.0, -0.5, 0.5))
        assert invert_curve(fit, 0.9) == pytest.approx(0.16, rel=1e-12)

    def test_unreachable_below_1e18_reports_last_probe(self):
        # log_power tends to alpha = 0.946 without a closed-form asymptote.
        fit = make_fit("log_power", (0.9460, 4.7438, -2.9235))
        with pytest.raises(ValueError, match=r"below 1e18 \(the curve is 0\.94"):
            invert_curve(fit, 0.99)

    @pytest.mark.parametrize("family, params", [
        ("pow3", BENCH_POW3), ("log_power", (0.9460, 4.7438, -2.9235))])
    def test_nan_accuracy_rejected(self, family, params):
        # Every NaN comparison in the bisection reads "above": it would
        # return the lowest C instead of failing.
        with pytest.raises(ValueError, match="accuracy must be a number, got nan"):
            invert_curve(make_fit(family, params), math.nan)

    def test_below_range_rejected(self):
        # vapor pressure with beta < 0 tends to zero at C -> 0+, so a
        # negative accuracy lies below the achievable range.
        fit = make_fit("vapor_pressure", (0.0117, -44.518))
        with pytest.raises(ValueError, match="below"):
            invert_curve(fit, -0.5)


class TestProperties:
    def test_fitted_pow3_increasing_with_vanishing_slope(self):
        fit = fit_curve(BENCH_C, BENCH_A, "pow3")
        probes = np.array([1e2, 1e4, 1e6])
        h = 1e-3
        slopes = [
            (eval_curve(fit, c + c * h) - eval_curve(fit, c - c * h)) / (2 * c * h)
            for c in probes
        ]
        assert all(s > 0 for s in slopes)
        assert slopes[0] > slopes[1] > slopes[2]
