import heapq
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
    min_rate,
    optimal_allocation,
    region_boundary,
    sample_user_gains,
    user_rate,
)
from isacsim import tradeoff
from isacsim.tradeoff import (
    BoundaryPoint,
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


class TestRates:
    def test_zero_time_zero_rate(self, comm_cfg):
        assert user_rate(0.0, 1e-5, comm_cfg) == 0.0

    def test_full_time_unit_snr(self, comm_cfg):
        # g P / s2 = 1 makes log2(1+snr) = 1, so R = B.
        gain = comm_cfg.noise_power / comm_cfg.tx_power
        assert user_rate(comm_cfg.total_time, gain, comm_cfg) == pytest.approx(
            comm_cfg.bandwidth
        )

    def test_min_rate_symmetric_split(self, comm_cfg):
        cfg = comm_cfg.replace(num_users=2, user_pathloss=(1e-5, 1e-5))
        t = (cfg.total_time / 2, cfg.total_time / 2)
        g = (1e-5, 1e-5)
        assert min_rate(t, g, cfg) == pytest.approx(user_rate(t[0], g[0], cfg))

    def test_negative_time_rejected(self, comm_cfg):
        with pytest.raises(ValueError, match="t_k"):
            user_rate(-1.0, 1e-5, comm_cfg)


class TestOptimalAllocation:
    def test_budget_fully_used_and_rates_equal(self, comm_cfg):
        gains = sample_user_gains(comm_cfg, RngStream(3, "g"))
        alloc = optimal_allocation(5000, gains, comm_cfg)
        sensing = comm_cfg.num_targets * comm_cfg.slot_time * 5000
        assert sensing + alloc.times.sum() == pytest.approx(
            comm_cfg.total_time, rel=1e-9
        )
        rates = [user_rate(t, g, comm_cfg) for t, g in zip(alloc.times, gains)]
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

    def test_multipliers_satisfy_stationarity(self, comm_cfg):
        gains = sample_user_gains(comm_cfg, RngStream(23, "g"))
        alloc = optimal_allocation(3000, gains, comm_cfg)
        assert alloc.multipliers.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(alloc.multipliers > 0)
        w = comm_cfg.bandwidth * np.log2(1 + gains * comm_cfg.tx_power
                                         / comm_cfg.noise_power)
        stationarity = alloc.multipliers * w / comm_cfg.total_time \
            + alloc.budget_multiplier
        assert np.allclose(stationarity / abs(alloc.budget_multiplier), 0.0,
                           atol=1e-9)

    def test_infeasible_sensing_budget(self, comm_cfg):
        with pytest.raises(InfeasibleError, match="exceeds"):
            optimal_allocation(30000, np.full(5, 1e-5), comm_cfg)

    def test_zero_gain_reported(self, comm_cfg):
        gains = np.array([1e-5, 0.0, 1e-5, 1e-5, 1e-5])
        with pytest.raises(ValueError, match="pins the min-rate"):
            optimal_allocation(1000, gains, comm_cfg)


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

    def test_endpoint_all_time_to_sensing(self, comm_cfg):
        gains = np.full(5, 1e-5)
        fit = make_fit("pow3", BENCH_POW3)
        boundary = region_boundary(fit, gains, comm_cfg, num_points=50)
        assert boundary.points[-1].rate == pytest.approx(0.0, abs=1e-12)
        c_max = int(comm_cfg.total_time / comm_cfg.slot_time)
        assert boundary.points[-1].cycles == c_max

    def test_deterministic(self, fig_cfg):
        gains = sample_user_gains(fig_cfg, RngStream(5, "g"))
        fit = make_fit("pow3", BENCH_POW3)
        b1 = region_boundary(fit, gains, fig_cfg, num_points=80)
        b2 = region_boundary(fit, gains, fig_cfg, num_points=80)
        assert [(p.cycles, p.accuracy, p.rate) for p in b1.points] == [
            (p.cycles, p.accuracy, p.rate) for p in b2.points
        ]

    def test_pareto_no_random_point_dominates(self, fig_cfg):
        # 1e5 random feasible schedules never dominate a boundary point.
        gains = sample_user_gains(fig_cfg, RngStream(7, "g"))
        fit = make_fit("pow3", BENCH_POW3)
        boundary = region_boundary(fit, gains, fig_cfg, num_points=60)
        rng = np.random.default_rng(11)
        c_lo = boundary.points[0].cycles
        c_hi = boundary.points[-1].cycles
        cycles = rng.integers(c_lo, c_hi + 1, size=100_000)
        w = fig_cfg.bandwidth * np.log2(1 + gains * fig_cfg.tx_power
                                        / fig_cfg.noise_power)
        remaining = fig_cfg.total_time - fig_cfg.num_targets \
            * fig_cfg.slot_time * cycles
        # Random simplex split of the remaining time across users.
        splits = rng.dirichlet(np.ones(len(gains)), size=cycles.size)
        rates = (splits * remaining[:, None] * w / fig_cfg.total_time).min(axis=1)
        from isacsim import eval_curve

        accs = np.array([eval_curve(fit, float(c)) for c in cycles])
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
        assert boundary.points[0].accuracy < 0.05
        assert boundary.points[-1].accuracy > 0.94

    def test_broken_allocation_violates_identity(self, fig_cfg, monkeypatch):
        allocate = tradeoff.optimal_allocation

        def skewed(*args):
            alloc = allocate(*args)
            alloc.rate *= 1.0 + 1e-6
            return alloc

        monkeypatch.setattr(tradeoff, "optimal_allocation", skewed)
        gains = sample_user_gains(fig_cfg, RngStream(13, "g"))
        fit = make_fit("pow3", BENCH_POW3)
        with pytest.raises(AssertionError, match="budget identity violated"):
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
        assert boundary.points[-1].cycles == 999
        assert np.all(np.diff(boundary.accuracies) > 0)

    def test_single_cycle_count_inside_domain_infeasible(self, comm_cfg):
        # A >= 0 needs C >= 999 and the domain ends at 1000: one cycle count.
        fit = make_fit("pow4", (-1.0, 1000.0, 1.0, 0.5))
        with pytest.raises(InfeasibleError, match=r"\[999, 999\]"):
            region_boundary(fit, np.full(5, 1e-5), comm_cfg)

    def test_empty_feasible_range_rejected(self, comm_cfg):
        tiny = comm_cfg.replace(total_time=1e-3)  # at most 20 cycles
        fit = make_fit("pow3", BENCH_POW3)  # needs C >= 96 for A >= 0
        with pytest.raises(InfeasibleError, match="feasible"):
            region_boundary(fit, np.full(5, 1e-5), tiny, num_points=10)


def synthetic_boundary(a, r):
    return RegionBoundary(
        points=[BoundaryPoint(cycles=i, accuracy=float(ai), rate=float(ri))
                for i, (ai, ri) in enumerate(zip(a, r))]
    )


class TestZones:
    def test_affine_boundary_all_adversarial(self):
        a = np.linspace(0.0, 1.0, 21)
        r = 1e6 * (1.0 - a)
        boundary = classify_zones(synthetic_boundary(a, r))
        assert all(p.zone == ZONE_ADVERSARIAL for p in boundary.points)

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
        assert boundary.points[-1].zone == ZONE_SENSING

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

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "gains.csv"
        path.write_text("gain\n")
        with pytest.raises(ValueError, match="no gains"):
            gains_from_csv(path)
