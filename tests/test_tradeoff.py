import heapq
import math
import warnings
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from isacsim import (
    InfeasibleError,
    RngStream,
    SystemConfig,
    classify_zones,
    eval_curve,
    load_config,
    make_fit,
    optimal_allocation,
    region_boundary,
    sample_user_gains,
)
from isacsim import tradeoff
from isacsim.curvefit import FAMILIES
from isacsim.manifest import write_csv
from isacsim.tradeoff import (
    DEFAULT_SLOPE_HI,
    DEFAULT_SLOPE_LO,
    IDENTITY_RTOL,
    RegionBoundary,
    ZONE_ADVERSARIAL,
    ZONE_COMM,
    ZONE_SENSING,
    gains_from_csv,
    zone_bands,
)

BENCH_POW3 = (6.1906e4, 2.4297, 0.9499)
SATURATING_POW3 = (51.18, 19.01, 0.9375)  # A(C) rounds to gamma beyond C ~ 7


@pytest.fixture
def comm_cfg():
    """Budget configuration for allocation tests (T divisible by N*T0)."""
    return SystemConfig(
        carrier_freq=3.5e9, bandwidth=1.0e7, sample_rate=1.0e7,
        sweep_time=1.0e-5, slot_time=5.0e-5, pri=1.0e-3,
        tx_power=1.0, noise_power=1.0e-13, total_time=1.0,
        num_targets=1, num_users=5, user_pathloss=(1.0e-5,) * 5,
    )


@pytest.fixture
def fig_cfg():
    """K=5, 10 MHz, 60 us slots, 1 s budget."""
    return SystemConfig(
        carrier_freq=3.5e9, bandwidth=1.0e7, sample_rate=1.0e7,
        sweep_time=1.0e-5, slot_time=6.0e-5, pri=1.0e-3,
        tx_power=1.0, noise_power=1.0e-13, total_time=1.0,
        num_targets=1, num_users=5, user_pathloss=(1.0e-5,) * 5,
    )


def greedy_max_min_rate(gains, cfg, remaining, steps=10_000):
    """Brute-force oracle: hand out the communication time in equal
    quanta, always to the currently worst user."""
    w = cfg.bandwidth * np.log2(1.0 + gains * cfg.tx_power / cfg.noise_power)
    quantum = remaining / steps
    t = np.zeros(len(gains))
    heap = [(0.0, k) for k in range(len(gains))]
    heapq.heapify(heap)
    for _ in range(steps):
        rate, k = heapq.heappop(heap)
        t[k] += quantum
        heapq.heappush(heap, (t[k] * w[k] / cfg.total_time, k))
    return heap[0][0], t


class TestOptimalAllocation:
    def test_budget_fully_used_and_rates_equal(self, comm_cfg):
        gains = sample_user_gains(comm_cfg, RngStream(3, "g"))
        alloc = optimal_allocation(5000, gains, comm_cfg)
        sensing = comm_cfg.num_targets * comm_cfg.slot_time * 5000
        assert sensing + alloc.times.sum() == pytest.approx(
            comm_cfg.total_time, rel=1e-9
        )
        snr = gains * comm_cfg.tx_power / comm_cfg.noise_power
        rates = alloc.times / comm_cfg.total_time * comm_cfg.bandwidth * np.log2(1.0 + snr)
        assert np.ptp(rates) <= 1e-12 * max(rates)
        assert alloc.rate == pytest.approx(min(rates), rel=1e-12)

    def test_all_time_to_sensing_boundary(self, comm_cfg):
        gains = np.full(5, 1e-5)
        c_max = int(comm_cfg.total_time / (comm_cfg.slot_time))  # 20000
        alloc = optimal_allocation(c_max, gains, comm_cfg)
        assert np.all(alloc.times == 0.0)
        assert alloc.rate == 0.0

    def test_equal_gains_equal_split(self, comm_cfg):
        gains = np.full(5, 1e-5)
        alloc = optimal_allocation(4000, gains, comm_cfg)
        remaining = comm_cfg.total_time - 4000 * comm_cfg.slot_time
        assert np.allclose(alloc.times, remaining / 5, rtol=1e-12)

    def test_matches_greedy_brute_force(self, comm_cfg):
        # Independent oracle: discretized max-min water filling.
        gains = sample_user_gains(comm_cfg, RngStream(17, "g"))
        for cycles in (1000, 7000, 15000):
            alloc = optimal_allocation(cycles, gains, comm_cfg)
            remaining = comm_cfg.total_time - cycles * comm_cfg.slot_time
            oracle_rate, _ = greedy_max_min_rate(gains, comm_cfg, remaining)
            assert alloc.rate == pytest.approx(oracle_rate, rel=1e-3)
            assert alloc.rate >= oracle_rate - 1e-12  # grid cannot beat it

    def test_infeasible_sensing_budget(self, comm_cfg):
        with pytest.raises(InfeasibleError, match="exceeds"):
            optimal_allocation(30000, np.full(5, 1e-5), comm_cfg)

    def test_negative_cycles_rejected(self, comm_cfg):
        with pytest.raises(ValueError, match="cycles must be >= 0, got -1"):
            optimal_allocation(-1, np.full(5, 1e-5), comm_cfg)

    def test_zero_gain_reported(self, comm_cfg):
        gains = np.array([1e-5, 0.0, 1e-5, 1e-5, 1e-5])
        with pytest.raises(ValueError, match="pins the min-rate"):
            optimal_allocation(1000, gains, comm_cfg)

    def test_noiseless_link_rejected(self, comm_cfg):
        noiseless = replace(comm_cfg, noise_power=0.0)
        with pytest.raises(ValueError, match="noise_power: a noiseless link"):
            optimal_allocation(1000, np.full(5, 1e-5), noiseless)
        with pytest.raises(ValueError, match="noise_power: a noiseless link"):
            region_boundary(make_fit("pow3", BENCH_POW3), np.full(5, 1e-5), noiseless)


class TestRegionBoundary:
    def test_monotone_tradeoff(self, fig_cfg):
        gains = sample_user_gains(fig_cfg, RngStream(5, "g"))
        fit = make_fit("pow3", BENCH_POW3)
        boundary = region_boundary(fit, gains, fig_cfg, num_points=150)
        a = boundary.accuracies
        r = boundary.rates
        assert np.all(np.diff(a) > 0)
        assert np.all(np.diff(r) <= 1e-12)
        assert np.all(a >= 0.0)

    def test_num_points_below_two_rejected(self, comm_cfg):
        with pytest.raises(ValueError, match="num_points must be >= 2, got 1"):
            region_boundary(make_fit("pow3", BENCH_POW3), np.full(5, 1e-5), comm_cfg,
                            num_points=1)

    def test_endpoint_all_time_to_sensing(self, comm_cfg):
        gains = np.full(5, 1e-5)
        fit = make_fit("pow3", BENCH_POW3)
        boundary = region_boundary(fit, gains, comm_cfg, num_points=50)
        assert boundary.rates[-1] == pytest.approx(0.0, abs=1e-12)
        c_max = int(comm_cfg.total_time / comm_cfg.slot_time)
        assert boundary.cycles[-1] == c_max

    def test_deterministic(self, fig_cfg):
        gains = sample_user_gains(fig_cfg, RngStream(5, "g"))
        fit = make_fit("pow3", BENCH_POW3)
        b1 = region_boundary(fit, gains, fig_cfg, num_points=80)
        b2 = region_boundary(fit, gains, fig_cfg, num_points=80)
        for column in ("cycles", "accuracies", "rates"):
            assert np.array_equal(getattr(b1, column), getattr(b2, column))

    def test_pareto_no_random_point_dominates(self, fig_cfg):
        # 1e5 random feasible schedules never dominate a boundary point.
        gains = sample_user_gains(fig_cfg, RngStream(7, "g"))
        fit = make_fit("pow3", BENCH_POW3)
        boundary = region_boundary(fit, gains, fig_cfg, num_points=60)
        rng = np.random.default_rng(11)
        c_lo = boundary.cycles[0]
        c_hi = boundary.cycles[-1]
        cycles = rng.integers(c_lo, c_hi + 1, size=100_000)
        w = fig_cfg.bandwidth * np.log2(1 + gains * fig_cfg.tx_power
                                        / fig_cfg.noise_power)
        remaining = fig_cfg.total_time - fig_cfg.num_targets \
            * fig_cfg.slot_time * cycles
        # Random simplex split of the remaining time across users.
        splits = rng.dirichlet(np.ones(len(gains)), size=cycles.size)
        rates = (splits * remaining[:, None] * w / fig_cfg.total_time).min(axis=1)
        from isacsim import eval_curve

        accs = eval_curve(fit, cycles.astype(float))
        b_acc = boundary.accuracies
        b_rate = boundary.rates
        idx = np.searchsorted(b_acc, accs, side="right") - 1
        valid = idx >= 0
        assert not np.any(
            (accs[valid] > b_acc[idx[valid]] + 1e-9)
            & (rates[valid] > b_rate[idx[valid]] + 1e-9)
        )
        # Stronger: rate above the boundary envelope never happens.
        assert np.all(rates[valid] <= b_rate[idx[valid]] + 1e-9)

    def test_rate_scaling_law(self, fig_cfg):
        # Doubling every log2(1 + snr) doubles every boundary rate and
        # leaves accuracies untouched.
        gains = sample_user_gains(fig_cfg, RngStream(9, "g"))
        fit = make_fit("pow3", BENCH_POW3)
        base = region_boundary(fit, gains, fig_cfg, num_points=40)
        snr = gains * fig_cfg.tx_power / fig_cfg.noise_power
        boosted_gains = ((1 + snr) ** 2 - 1) * fig_cfg.noise_power / fig_cfg.tx_power
        boosted = region_boundary(fit, boosted_gains, fig_cfg, num_points=40)
        assert np.allclose(boosted.accuracies, base.accuracies)
        assert np.allclose(boosted.rates, 2.0 * base.rates, rtol=1e-12)

    def test_budget_identity_enforced(self, fig_cfg):
        # The budget identity is cross-checked inside the sweep; a healthy
        # run passes and covers the full achievable accuracy span.
        gains = sample_user_gains(fig_cfg, RngStream(13, "g"))
        fit = make_fit("pow3", BENCH_POW3)
        boundary = region_boundary(fit, gains, fig_cfg, num_points=400)
        assert boundary.accuracies[0] < 0.05
        assert boundary.accuracies[-1] > 0.94

    def test_broken_allocation_violates_identity(self, fig_cfg, monkeypatch):
        max_min_rate = tradeoff._max_min_rate

        def skewed(*args):
            return max_min_rate(*args) * (1.0 + 1e-6)

        monkeypatch.setattr(tradeoff, "_max_min_rate", skewed)
        gains = sample_user_gains(fig_cfg, RngStream(13, "g"))
        fit = make_fit("pow3", BENCH_POW3)
        with pytest.raises(AssertionError, match=r"budget identity violated at C=96:"):
            region_boundary(fit, gains, fig_cfg, num_points=50)

    def test_saturating_curve_keeps_pareto_points_only(self, fig_cfg):
        # Beyond C ~ 7 every swept C repeats the accuracy of an earlier C
        # at a lower rate, so only the first two points are Pareto-optimal.
        gains = sample_user_gains(fig_cfg, RngStream(1, "g"))
        fit = make_fit("pow3", SATURATING_POW3)
        boundary = region_boundary(fit, gains, fig_cfg, num_points=120)
        assert len(boundary) == 2
        assert boundary.accuracies[1] == 0.9375
        with pytest.raises(InfeasibleError, match="saturates"):
            classify_zones(boundary)

    def test_bundled_log_power_traces_every_point(self):
        # In the flat tail of this fit A no longer determines C in double
        # precision, so the trace must not rest on inverting the curve.
        cfg = load_config(resources.files("isacsim").joinpath("data", "default.cfg"))
        gains = sample_user_gains(cfg, RngStream(1234, "gains"))
        fit = make_fit("log_power", (0.9460, 4.7438, -2.9235))
        boundary = classify_zones(region_boundary(fit, gains, cfg, num_points=300))
        assert len(boundary) == 300
        assert [z for z, _, _ in zone_bands(boundary)] == [
            ZONE_COMM, ZONE_ADVERSARIAL, ZONE_SENSING
        ]

    @pytest.mark.parametrize("family, params", [
        ("pow3", BENCH_POW3),
        ("ilog2", (3.5228, 1.4863)),
        ("exp4", (2.9129, 6.9568, 0.9576, 0.2082)),
        ("log_log_linear", (0.3, -0.5)),
        ("pow4", (-1.0, 1000.0, 1.0, 0.5)),  # domain (0, 1000)
    ])
    def test_min_feasible_cycles_matches_scan(self, family, params):
        fit = make_fit(family, params)
        c = int(fit.domain[0]) + 1
        assert eval_curve(fit, float(c)) < 0.0
        while eval_curve(fit, float(c)) < 0.0:
            c += 1
        assert tradeoff._min_feasible_cycles(fit) == c

    def test_curve_below_zero_everywhere_infeasible(self):
        with pytest.raises(InfeasibleError, match="never reaches a valid accuracy"):
            tradeoff._min_feasible_cycles(make_fit("ilog2", (1.0, -0.5)))

    def test_sweep_ends_inside_a_bounded_domain(self, comm_cfg):
        # A = 1 - sqrt(1 - C/1000) is defined for C < 1000 only, well below
        # the budget's 20000 cycles: the sweep stops at the last integer.
        fit = make_fit("pow4", (-1e-3, 1.0, 1.0, 0.5))
        boundary = region_boundary(fit, np.full(5, 1e-5), comm_cfg, num_points=50)
        assert boundary.cycles[-1] == 999
        assert np.all(np.diff(boundary.accuracies) > 0)

    def test_single_cycle_count_inside_domain_infeasible(self, comm_cfg):
        # A >= 0 needs C >= 999 and the domain ends at 1000: one cycle count.
        fit = make_fit("pow4", (-1.0, 1000.0, 1.0, 0.5))
        with pytest.raises(InfeasibleError, match=r"\[999, 999\]"):
            region_boundary(fit, np.full(5, 1e-5), comm_cfg)

    @pytest.mark.parametrize("family, params", [
        ("pow4", (-1.0, -5.0, 1.0, 0.5)),
        ("pow4", (0.0, 0.0, 1.0, 0.5)),
        ("log_log_linear", (-1.0, -800.0)),
    ])
    def test_empty_domain_named(self, comm_cfg, family, params):
        fit = make_fit(family, params)
        with pytest.raises(InfeasibleError, match=f"^{family}: empty domain"):
            region_boundary(fit, np.full(5, 1e-5), comm_cfg)

    def test_empty_feasible_range_rejected(self, comm_cfg):
        tiny = replace(comm_cfg, total_time=1e-3)  # at most 20 cycles
        fit = make_fit("pow3", BENCH_POW3)  # needs C >= 96 for A >= 0
        with pytest.raises(InfeasibleError, match="feasible"):
            region_boundary(fit, np.full(5, 1e-5), tiny, num_points=10)


def synthetic_boundary(a, r):
    return RegionBoundary(cycles=np.arange(len(a)), accuracies=np.asarray(a, float),
                          rates=np.asarray(r, float), zones=[""] * len(a))


class TestZones:
    def test_affine_boundary_all_adversarial(self):
        a = np.linspace(0.0, 1.0, 21)
        r = 1e6 * (1.0 - a)
        boundary = classify_zones(synthetic_boundary(a, r))
        assert boundary.zones == [ZONE_ADVERSARIAL] * 21

    def test_three_zones_in_order(self, fig_cfg):
        gains = sample_user_gains(fig_cfg, RngStream(21, "g"))
        fit = make_fit("pow3", BENCH_POW3)
        boundary = region_boundary(fit, gains, fig_cfg, num_points=400)
        classify_zones(boundary)
        bands = [z for z, _, _ in zone_bands(boundary)]
        assert bands == [ZONE_COMM, ZONE_ADVERSARIAL, ZONE_SENSING]

    def test_sensing_saturation_exists_near_asymptote(self, fig_cfg):
        gains = sample_user_gains(fig_cfg, RngStream(21, "g"))
        fit = make_fit("pow3", BENCH_POW3)
        boundary = classify_zones(region_boundary(fit, gains, fig_cfg, 400))
        assert boundary.zones[-1] == ZONE_SENSING

    def test_threshold_collapse_still_contiguous(self):
        a = np.linspace(0.1, 0.9, 30)
        r = 1e6 * np.sqrt(1.0 - a)
        boundary = classify_zones(synthetic_boundary(a, r),
                                  slope_hi=1.0, slope_lo=1.0)
        bands = [z for z, _, _ in zone_bands(boundary)]
        assert len(bands) <= 3
        assert [z for z in bands if z == ZONE_ADVERSARIAL] in ([], [ZONE_ADVERSARIAL])

    def test_too_few_points_rejected(self):
        with pytest.raises(InfeasibleError, match="at least 3 boundary points, got 2"):
            classify_zones(synthetic_boundary([0.1, 0.2], [2.0, 1.0]))

    def test_slope_order_checked(self):
        a = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="slope_lo must not exceed slope_hi"):
            classify_zones(synthetic_boundary(a, 1e6 * (1 - a)), slope_hi=0.5, slope_lo=2.0)

    @pytest.mark.parametrize("slopes, name", [
        (dict(slope_lo=math.nan), "slope_lo"),  # labelled a pow3 boundary {adversarial, sensing}
        (dict(slope_hi=math.nan), "slope_hi"),
        (dict(slope_lo=-1.0, slope_hi=-0.5), "slope_hi"),  # every point sensing-saturated
        (dict(slope_lo=-1.0), "slope_lo"),
        (dict(slope_hi=math.inf), "slope_hi"),
    ])
    def test_non_finite_or_negative_slopes_rejected(self, fig_cfg, slopes, name):
        gains = sample_user_gains(fig_cfg, RngStream(21, "g"))
        boundary = region_boundary(make_fit("pow3", BENCH_POW3), gains, fig_cfg, num_points=400)
        with pytest.raises(ValueError, match=f"^{name}: must be (finite|non-negative), got "):
            classify_zones(boundary, **slopes)

    def test_csv_export(self, tmp_path):
        a = np.linspace(0.0, 1.0, 5)
        boundary = classify_zones(synthetic_boundary(a, 1e6 * (1 - a)))
        out = tmp_path / "boundary.csv"
        boundary.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "C,A,R_bps,zone"
        assert len(lines) == 6


class TestGainsCsv:
    def test_reads_plain_and_header(self, tmp_path):
        path = tmp_path / "gains.csv"
        path.write_text("gain\n1e-5\n2e-5\n# comment\n3e-5\n")
        g = gains_from_csv(path)
        assert np.allclose(g, [1e-5, 2e-5, 3e-5])

    def test_other_columns_ignored(self, tmp_path):
        path = tmp_path / "gains.csv"
        path.write_text("user,gain,note\n1,1e-5,near\n2,2e-5,far\n")
        assert gains_from_csv(path).tolist() == [1e-5, 2e-5]

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "gains.csv"
        path.write_text("gain\n")
        with pytest.raises(ValueError, match="no gains"):
            gains_from_csv(path)


def oracle_curve(fit, c):
    """A(C) as every C was evaluated before sweeps were vectorized: each C
    alone, as a 0-d float array, through the family's expression with its
    default ``**``.  A float for a scalar C, an array of C's shape otherwise."""
    fam = FAMILIES[fit.family]
    p = np.asarray(fit.params, dtype=float)
    z = np.empty(())
    values = []
    with np.errstate(all="ignore"):
        for value in np.ravel(c).tolist():
            z[()] = value
            values.append(float(fam._evaluate(p, z)))
    return values[0] if np.ndim(c) == 0 else np.reshape(values, np.shape(c))


def assert_oracle_bits(fit, cs):
    """``eval_curve`` holds the oracle's bits for every C of the 1-d ``cs``:
    called on each C alone (a float, a 0-d and a 1-element array), on all
    of them at once, and on them as a grid in C and in Fortran order."""
    ref = oracle_curve(fit, cs)
    scalar = [eval_curve(fit, c) for c in cs.tolist()]
    assert all(type(a) is float for a in scalar)
    zero_d = [eval_curve(fit, np.array(c)) for c in cs.tolist()]
    one = [eval_curve(fit, cs[i : i + 1]) for i in range(cs.size)]
    for got in (np.array(scalar), np.array(zero_d), np.concatenate(one), eval_curve(fit, cs)):
        assert got.tobytes() == ref.tobytes(), fit.family
    grid = cs[: cs.size // 2 * 2].reshape(2, -1)
    for layout in (grid, np.asfortranarray(grid), grid.T):
        got = eval_curve(fit, layout)
        assert got.shape == layout.shape
        assert got.tobytes() == oracle_curve(fit, layout).tobytes(), fit.family


def swept_cycles(fit, cfg, num_points):
    """The integer C that ``region_boundary`` sweeps, by its stated rule."""
    c_min = tradeoff._min_feasible_cycles(fit)
    c_max = int(math.floor(cfg.total_time / (cfg.num_targets * cfg.slot_time)))
    if math.isfinite(fit.domain[1]):
        c_max = min(c_max, math.ceil(fit.domain[1]) - 1)
    if c_max < c_min:
        raise InfeasibleError(f"no feasible cycle count: need C in [{c_min}, {c_max}]")
    return np.unique(np.linspace(c_min, c_max, num_points).round().astype(int)).tolist()


def loop_region_csv(fit, gains, cfg, num_points, path, curve=oracle_curve):
    """Sequential reference: the per-C loop, with the scalar rate formula of
    one optimal_allocation call per swept C and the accuracy ``curve(fit, C)``
    of each C alone, writing the boundary CSV."""
    cs = swept_cycles(fit, cfg, num_points)
    if abs(curve(fit, float(cs[-1])) - curve(fit, float(cs[0]))) < 1e-9:
        raise InfeasibleError(
            f"the fitted curve is constant over the feasible cycle range "
            f"[{cs[0]}, {cs[-1]}]; no accuracy-rate tradeoff to trace"
        )
    w = cfg.bandwidth * np.log2(1.0 + gains * cfg.comm_antenna_gain * cfg.tx_power
                                / cfg.noise_power)
    inv_sum, time_over_rate = float(np.sum(1.0 / w)), float(np.sum(cfg.total_time / w))
    rows = []
    for c in cs:
        rate = max(cfg.total_time - cfg.num_targets * cfg.slot_time * c, 0.0) / (
            cfg.total_time * inv_sum)
        lhs = cfg.num_targets * cfg.slot_time * c + time_over_rate * rate
        if abs(lhs - cfg.total_time) > IDENTITY_RTOL * cfg.total_time:
            raise AssertionError(f"budget identity violated at C={c}: {lhs!r}")
        acc = curve(fit, float(c))
        if not rows or acc > rows[-1][1]:
            rows.append([c, acc, rate, ""])
    return write_csv(path, ("C", "A", "R_bps", "zone"), rows).read_bytes()


def loop_zones(norm, slope_lo, slope_hi):
    """Sequential reference for the zone prefix and suffix scans."""
    n, comm_end = len(norm), 0
    while comm_end < n and norm[comm_end] < slope_lo:
        comm_end += 1
    sens_start = n
    while sens_start > comm_end and norm[sens_start - 1] > slope_hi:
        sens_start -= 1
    return [ZONE_COMM if i < comm_end else ZONE_SENSING if i >= sens_start
            else ZONE_ADVERSARIAL for i in range(n)]


def outcome(trace, *args):
    """The CSV bytes a trace writes, or the type and message it raises."""
    try:
        return trace(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def bundled_fits(bench_selection):
    """The seven families fitted to the bundled accuracy points."""
    fits = bench_selection.fits
    assert len(fits) == 7
    return fits


def test_array_eval_curve_gives_each_c_its_scalar_bits(bundled_fits):
    # region_boundary sweeps all its C in one call; a vectorised pow would
    # move pow4 and log_power accuracies by one ulp against the oracle.
    for fit in bundled_fits:
        lo, hi = fit.domain
        first = max(math.floor(lo) + 1, 1)
        last = 60000 if hi > 60000 else math.ceil(hi) - 1
        cs = np.r_[np.linspace(first, last, 3000), np.arange(first, first + 2000.0)]
        assert_oracle_bits(fit, cs)
        with pytest.raises(ValueError) as exc:
            eval_curve(fit, np.r_[cs[:5], lo])
        with pytest.raises(ValueError) as one:
            eval_curve(fit, lo)
        assert str(exc.value) == str(one.value)
        assert str(one.value).startswith(f"{fit.family}: ")


# Each power of the expressions at exponents where numpy may take sqrt,
# square or reciprocal instead of pow, or where the power is exact.
@pytest.mark.parametrize("family, params", [
    ("pow3", (100.0, 1.0, 0.9)),
    *[("exp4", (0.05, 0.0, 0.9, eps)) for eps in (0.5, 2.0)],
    *[("pow4", (0.5, 3.0, 0.9, eps)) for eps in (-1.0, 0.5, 2.0, 3.0)],
    *[("log_power", (0.9, 4.0, gamma)) for gamma in (-1.0, 2.0)],
])
def test_exact_exponents_keep_scalar_bits(family, params):
    cs = np.r_[np.arange(1.0, 400.0), np.exp(np.random.default_rng(7).uniform(0.0, 12.0, 2000))]
    assert_oracle_bits(make_fit(family, params), cs)


@pytest.mark.parametrize("family, params, c, expected", [
    ("pow4", (1e6, 1.0, 0.9, 0.5), 1e305, -math.inf),  # alpha*C overflows
    ("pow4", (1.0, 1.0, 0.9, 3.0), 1e200, -math.inf),  # the power overflows
    # alpha*C + beta is about 1e-115 just inside the domain: its power -3 overflows
    ("pow4", (1e-100, -1e-100, 0.9, -3.0), "edge", -math.inf),
    ("exp4", (0.0, 0.0, 0.9, 2.0), 1e200, math.nan),  # 0 * C**2 is 0 * inf
])
def test_non_finite_accuracy_keeps_scalar_bits_silently(family, params, c, expected):
    # Inside its domain pow4's base is never negative, so pow4 cannot read
    # NaN with finite parameters; exp4 stands in for it.
    fit = make_fit(family, params)
    if c == "edge":
        c = math.nextafter(fit.domain[0], math.inf)
    cs = np.array([c, 5.0, c])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_oracle_bits(fit, cs)
        values = eval_curve(fit, cs)
    assert repr(float(values[0])) == repr(expected) and math.isfinite(values[1])


def test_check_boundaries_match_benchmark_reference(bench_selection, curves_region_reference,
                                                    tmp_path):
    # perfbench's curves_region check job: the seed-0 fits, job 0's first
    # gains draw, 300 points, zones classified, to the last byte.  No
    # log_power boundary is stored, so it is pinned against the loop oracle.
    cfg = load_config(resources.files("isacsim").joinpath("data", "default.cfg"))
    gains = sample_user_gains(cfg, RngStream(0, "curves_region/job0/gains0"))
    stored = {k.split("/")[2] for k in curves_region_reference if k.startswith("check/gains0/")}
    assert stored == {fit.family for fit in bench_selection.fits} - {"log_power"}
    for fit in bench_selection.fits:
        boundary = region_boundary(fit, gains, cfg, num_points=300)
        if fit.family in stored:
            got = classify_zones(boundary).to_csv(tmp_path / "b.csv").read_bytes()
            key = f"check/gains0/{fit.family}/boundary"
            assert got == curves_region_reference[key].tobytes(), key
        else:
            got = boundary.to_csv(tmp_path / "b.csv").read_bytes()
            assert got == loop_region_csv(fit, gains, cfg, 300, tmp_path / "loop.csv")


class TestColumnSweepMatchesLoop:
    """Byte pins of ``region_boundary`` and ``classify_zones`` against the
    per-C loop over the oracle accuracies (``loop_region_csv``) and the
    sequential zone scans (``loop_zones``).

    Invariants guarded (and checked layout-free by :class:`TestRegionInvariants`):

    - the boundary is exactly the swept C whose accuracy beats every
      smaller swept C, each with its own accuracy and its max-min rate;
    - along it accuracy rises strictly and rate falls strictly;
    - the zones form at most three bands, comm -> adversarial -> sensing;
    - the comm band is the longest prefix whose normalized slope is below
      ``slope_lo``, and the sensing band the longest remaining suffix
      above ``slope_hi``.
    """

    def check(self, fit, gains, cfg, num_points, tmp_path, curve=oracle_curve):
        def columns(*args):
            return region_boundary(*args).to_csv(tmp_path / "columns.csv").read_bytes()

        expected = outcome(loop_region_csv, fit, gains, cfg, num_points, tmp_path / "loop.csv",
                           curve)
        assert outcome(columns, fit, gains, cfg, num_points) == expected
        return expected

    @pytest.mark.parametrize("num_points", [20, 200, 300, 1000])
    def test_bundled_fits_byte_equal(self, bundled_fits, num_points, tmp_path):
        cfg = load_config(resources.files("isacsim").joinpath("data", "default.cfg"))
        for draw in range(5):
            gains = sample_user_gains(cfg, RngStream(draw, "oracle-gains"))
            for fit in bundled_fits:
                assert isinstance(self.check(fit, gains, cfg, num_points, tmp_path), bytes)

    @pytest.mark.parametrize("family, params, slot_time, total_time", [
        ("pow3", SATURATING_POW3, 6e-5, 1.0),
        ("log_power", (0.9460, 4.7438, -2.9235), 6e-5, 1.0),
        ("pow4", (-1e-3, 1.0, 1.0, 0.5), 5e-5, 1.0),  # bounded domain
        ("pow4", (-1.0, 1000.0, 1.0, 0.5), 5e-5, 1.0),  # one cycle count
        ("ilog2", (1.0, -0.5), 5e-5, 1.0),  # never a valid accuracy
        ("pow3", BENCH_POW3, 5e-5, 1e-3),  # empty feasible range
    ])
    def test_edge_fits_byte_equal(self, comm_cfg, family, params, slot_time, total_time,
                                  tmp_path):
        cfg = replace(comm_cfg, slot_time=slot_time, total_time=total_time)
        for num_points in (10, 120, 300):
            self.check(make_fit(family, params), np.full(5, 1e-5), cfg, num_points, tmp_path)

    @pytest.mark.parametrize("nan_at", [[0], [1, 2, 7], [0, 5]])
    def test_nan_accuracy_keeps_loop_semantics(self, fig_cfg, monkeypatch, nan_at, tmp_path):
        # A NaN after the first point is skipped; a NaN first point is kept
        # and never beaten, as in the loop's `acc > last kept` test.
        fit = make_fit("pow3", BENCH_POW3)
        cs = np.unique(np.linspace(96, 16666, 40).round().astype(int))
        poisoned = cs[nan_at].astype(float)

        def with_nan(curve):
            def poisoned_curve(f, c):
                if np.ndim(c) == 0:  # the loop's and _min_feasible_cycles' scalar calls
                    return math.nan if c in poisoned else curve(f, c)
                return np.where(np.isin(c, poisoned), math.nan, curve(f, c))
            return poisoned_curve

        monkeypatch.setattr(tradeoff, "eval_curve", with_nan(eval_curve))
        gains = sample_user_gains(fig_cfg, RngStream(2, "g"))
        csv = self.check(fit, gains, fig_cfg, 40, tmp_path, with_nan(oracle_curve))
        assert csv.count(b"nan") == (1 if 0 in nan_at else 0)

    @pytest.mark.parametrize("num_targets", [1, 2])
    def test_swept_rates_equal_single_allocation(self, fig_cfg, num_targets):
        cfg = replace(fig_cfg, num_targets=num_targets)
        gains = sample_user_gains(cfg, RngStream(4, "g"))
        boundary = region_boundary(make_fit("pow3", BENCH_POW3), gains, cfg, num_points=300)
        single = [optimal_allocation(c, gains, cfg).rate for c in boundary.cycles.tolist()]
        assert boundary.rates.tobytes() == np.array(single).tobytes()

    def test_zones_match_loop_scans(self, bundled_fits):
        cfg = load_config(resources.files("isacsim").joinpath("data", "default.cfg"))
        gains = sample_user_gains(cfg, RngStream(1, "oracle-gains"))
        for fit in bundled_fits:
            boundary = region_boundary(fit, gains, cfg, num_points=300)
            a, r = boundary.accuracies, boundary.rates
            norm = np.abs(np.gradient(r, a)) / (np.max(np.abs(r)) / (a[-1] - a[0]))
            ties = sorted((norm[0], norm[-1]))  # a threshold equal to an end slope
            for lo, hi in [(0.2, 5.0), (1.0, 1.0), (0.0, 0.0), (1e9, 1e9), (0.5, 50.0), ties]:
                classify_zones(boundary, slope_hi=hi, slope_lo=lo)
                assert boundary.zones == loop_zones(norm, lo, hi)


def unique_grid_trace(fit, gains, cfg, num_points, slope_hi, slope_lo):
    """``region_boundary`` then ``classify_zones`` as first written in
    columns: the grid through ``np.unique``, the Pareto mask through
    ``np.r_``, the slopes through ``np.gradient`` and the band ends through
    ``logical_and.accumulate``.  The boundary columns and the zones, or the
    message ``classify_zones`` raises on too few points."""
    cs = np.array(swept_cycles(fit, cfg, num_points))
    acc = eval_curve(fit, cs.astype(float))
    rates = tradeoff._max_min_rate(cs, tradeoff._rate_weights(gains, cfg), cfg)
    floor = np.where(np.isnan(acc), -np.inf, acc)
    floor[0] = acc[0]
    keep = np.r_[True, acc[1:] > np.maximum.accumulate(floor)[:-1]]
    c, a, r = cs[keep], acc[keep], rates[keep]
    if len(c) < 3:
        return c, a, r, f"need at least 3 boundary points, got {len(c)}"
    norm = np.abs(np.gradient(r, a)) / (float(np.max(np.abs(r))) / float(a[-1] - a[0]))
    n = len(c)
    comm_end = int(np.logical_and.accumulate(norm < slope_lo).sum())
    sens_start = n - int(np.logical_and.accumulate(norm[::-1] > slope_hi).sum())
    zones = ([ZONE_COMM] * comm_end + [ZONE_ADVERSARIAL] * (sens_start - comm_end)
             + [ZONE_SENSING] * (n - sens_start))
    return c, a, r, zones


class TestTraceMatchesUniqueGridFormulation:
    """``region_boundary`` drops the rounded grid's adjacent repeats and
    ``classify_zones`` takes its slopes from ``tradeoff._slopes`` and its
    band ends from the first failing point; both keep the bytes of the
    ``np.unique`` / ``np.gradient`` formulation (``unique_grid_trace``)."""

    @pytest.mark.parametrize("num_points", [2, 3, 20, 300])
    def test_bundled_fits_byte_equal(self, bundled_fits, num_points):
        cfg = load_config(resources.files("isacsim").joinpath("data", "default.cfg"))
        for draw in range(4):
            gains = sample_user_gains(cfg, RngStream(draw, "unique-grid-gains"))
            for fit in bundled_fits:
                boundary = region_boundary(fit, gains, cfg, num_points)
                for lo, hi in [(DEFAULT_SLOPE_LO, DEFAULT_SLOPE_HI), (1.0, 1.0), (0.0, 0.0)]:
                    c, a, r, zones = unique_grid_trace(fit, gains, cfg, num_points, hi, lo)
                    assert boundary.cycles.dtype == c.dtype
                    assert boundary.cycles.tobytes() == c.tobytes()
                    assert boundary.accuracies.tobytes() == a.tobytes()
                    assert boundary.rates.tobytes() == r.tobytes()
                    if isinstance(zones, str):
                        with pytest.raises(InfeasibleError, match=f"^{zones}: "):
                            classify_zones(boundary, slope_hi=hi, slope_lo=lo)
                    else:
                        assert classify_zones(boundary, slope_hi=hi, slope_lo=lo).zones == zones

    @pytest.mark.parametrize("x", [
        np.cumsum(np.random.default_rng(3).uniform(1e-4, 0.02, 300)),  # uneven
        7.0 + 3.0 * np.arange(300),  # exactly equal spacing, not a power of 2
        np.array([0.1, 0.35, 0.4]),  # three points, uneven
        np.array([1.0, 4.0, 7.0]),  # three points, equal
        np.array([0.2, 0.2 + 1e-12, 0.9, 0.9000001]),  # spacings far apart
    ])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_slopes_equal_gradient(self, x, sign):
        rng = np.random.default_rng(x.size)
        for f in (sign * 1e6 * (1.0 - x) ** 2, sign * np.sort(rng.uniform(0, 1e7, x.size)),
                  sign * np.exp(-3 * x)):
            got = tradeoff._slopes(f, x)
            assert got.tobytes() == np.gradient(f, x).tobytes()
        assert np.all(tradeoff._slopes(-1e6 * x, x) < 0)


# Parameter boxes of increasing curves, for random fits.
INCREASING_RANGES = {
    "vapor_pressure": ([-1.0, -2000.0], [0.5, -10.0]),
    "pow3": ([10.0, 0.5, 0.7], [1e4, 2.5, 1.1]),
    "log_power": ([0.5, 1.0, -4.0], [1.0, 8.0, -0.5]),
    "exp4": ([0.1, -2.0, 0.7, 0.2], [2.0, 2.0, 1.1, 0.8]),
    "log_log_linear": ([0.1, 0.5], [0.4, 2.0]),
    "ilog2": ([0.5, 1.0], [4.0, 2.0]),
    "pow4": ([1.0, 1.0, 0.7, -1.5], [50.0, 100.0, 1.1, -0.2]),
}


class TestRegionInvariants:
    """The invariants :class:`TestColumnSweepMatchesLoop` pins byte for
    byte, checked by brute force on bundled and random fits and gains,
    whatever the layout of the trace."""

    SLOPES = [(DEFAULT_SLOPE_LO, DEFAULT_SLOPE_HI), (1.0, 1.0), (0.5, 50.0), (0.0, 0.0)]

    def check(self, fit, gains, cfg, num_points):
        """True when the trace was checked, False when it is infeasible."""
        try:
            boundary = region_boundary(fit, gains, cfg, num_points)
        except InfeasibleError:
            return False
        cs = swept_cycles(fit, cfg, num_points)
        acc = [oracle_curve(fit, float(c)) for c in cs]
        kept = [i for i in range(len(cs)) if all(acc[i] > acc[j] for j in range(i))]
        assert boundary.cycles.tolist() == [cs[i] for i in kept]
        assert boundary.accuracies.tolist() == [acc[i] for i in kept]
        assert boundary.rates.tolist() == [optimal_allocation(cs[i], gains, cfg).rate
                                           for i in kept]
        a, r = boundary.accuracies, boundary.rates
        assert np.all(np.diff(a) > 0) and np.all(np.diff(r) < 0)
        if len(boundary) < 3:
            return True
        norm = np.abs(np.gradient(r, a)) / (np.max(np.abs(r)) / (a[-1] - a[0]))
        for lo, hi in self.SLOPES:
            zones = classify_zones(boundary, slope_hi=hi, slope_lo=lo).zones
            bands = [z for z, _, _ in zone_bands(boundary)]
            assert bands == [z for z in (ZONE_COMM, ZONE_ADVERSARIAL, ZONE_SENSING) if z in bands]
            comm = zones.count(ZONE_COMM)
            assert np.all(norm[:comm] < lo) and (comm == len(norm) or not norm[comm] < lo)
            sens = len(norm) - zones.count(ZONE_SENSING)
            assert np.all(norm[sens:] > hi) and (sens == comm or not norm[sens - 1] > hi)
        return True

    @pytest.mark.parametrize("num_points", [57, 300])
    def test_bundled_fits(self, bundled_fits, num_points):
        cfg = load_config(resources.files("isacsim").joinpath("data", "default.cfg"))
        for draw in range(3):
            gains = sample_user_gains(cfg, RngStream(draw, "invariant-gains"))
            for fit in bundled_fits:
                assert self.check(fit, gains, cfg, num_points)

    @pytest.mark.parametrize("family", sorted(INCREASING_RANGES))
    def test_random_fits(self, family, fig_cfg):
        rng = np.random.default_rng(list(INCREASING_RANGES).index(family))
        lo, hi = map(np.asarray, INCREASING_RANGES[family])
        checked = 0
        for draw in range(6):
            fit = make_fit(family, lo + rng.uniform(size=lo.size) * (hi - lo))
            gains = sample_user_gains(fig_cfg, RngStream(draw, f"invariant-{family}"))
            checked += self.check(fit, gains, fig_cfg, int(rng.integers(10, 400)))
        assert checked >= 4


class TestCommAntennaGain:
    def test_gain_scales_snr_like_user_gains(self, tmp_path):
        text = resources.files("isacsim").joinpath("data", "default.cfg").read_text()
        path = tmp_path / "gain10.cfg"
        path.write_text(text.replace("comm_gain_db = 0", "comm_gain_db = 10"))
        boosted_cfg = load_config(path)
        cfg = replace(boosted_cfg, comm_antenna_gain=1.0)
        assert boosted_cfg.comm_antenna_gain == 10.0
        gains = sample_user_gains(cfg, RngStream(6, "g"))
        fit = make_fit("pow3", BENCH_POW3)
        boosted = region_boundary(fit, gains, boosted_cfg, num_points=100)
        scaled = region_boundary(fit, gains * 10.0, cfg, num_points=100)
        plain = region_boundary(fit, gains, cfg, num_points=100)
        assert boosted.rates.tobytes() == scaled.rates.tobytes()
        assert np.all(boosted.rates[:-1] > plain.rates[:-1])
        assert (optimal_allocation(500, gains, boosted_cfg).rate
                == optimal_allocation(500, gains * 10.0, cfg).rate)
