import math

import numpy as np
import pytest

from isacsim import RngStream, fit_rho, kl_divergence, write_pgm
from isacsim.calibration import reference_pmf_from_pgms


class TestKlDivergence:
    def test_identical_pmfs_zero(self):
        p = np.array([0.25, 0.5, 0.25])
        assert kl_divergence(p, p) == 0.0

    def test_hand_computed_value(self):
        # sum p log(p/q) with p=(1,0), q=(.5,.5) is log 2.
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_flooring_keeps_result_finite(self):
        val = kl_divergence([0.5, 0.5], [1.0, 0.0])
        assert math.isfinite(val)
        expected = 0.5 * math.log(0.5 / 1.0) + 0.5 * math.log(0.5 / 1e-9)
        assert val == pytest.approx(expected, rel=1e-6)

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            k = rng.integers(2, 65)
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            val = kl_divergence(p, q)
            assert val >= 0.0

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rng.dirichlet(np.ones(16))
            q = rng.dirichlet(np.ones(16))
            if not np.allclose(p, q):
                assert kl_divergence(p, q) > 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            kl_divergence([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            kl_divergence([1.5, -0.5], [0.5, 0.5])

    def test_not_a_pmf_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            kl_divergence([0.5, 0.1], [0.5, 0.5])


def brownian_pmf_simulator(bins=32, spread=4.0):
    """Toy pmf family: discretized Gaussian whose width tracks rho."""

    def simulate(rho, rng: RngStream):
        width = 1.0 + spread * (1.0 - rho)
        x = rng.normal(4000) * width
        edges = np.linspace(-8, 8, bins + 1)
        counts, _ = np.histogram(x, edges)
        counts = counts + 1.0
        return counts / counts.sum()

    return simulate


class TestFitRho:
    def test_singleton_grid(self):
        sim = brownian_pmf_simulator()
        ref = sim(0.7, RngStream(0, "ref"))
        fit = fit_rho(ref, sim, [0.7], RngStream(1, "fit"), samples_per_point=2)
        assert fit.rho == 0.7
        assert fit.kl.size == 1

    def test_recovers_planted_rate(self):
        sim = brownian_pmf_simulator()
        rng = RngStream(3, "ref")
        ref = np.mean([sim(0.5, rng.spawn(f"r{i}")) for i in range(8)], axis=0)
        ref /= ref.sum()
        grid = np.linspace(0.0, 1.0, 11)
        fit = fit_rho(ref, sim, grid, RngStream(4, "fit"), samples_per_point=6)
        assert abs(fit.rho - 0.5) <= 0.1 + 1e-9

    def test_static_reference_picks_one(self):
        # Reference at rho=1 (narrowest pmf) must select 1.0 from a grid
        # containing it.
        sim = brownian_pmf_simulator()
        rng = RngStream(5, "ref")
        ref = np.mean([sim(1.0, rng.spawn(f"r{i}")) for i in range(8)], axis=0)
        ref /= ref.sum()
        fit = fit_rho(ref, sim, [0.9, 0.95, 1.0], RngStream(6, "fit"),
                      samples_per_point=6)
        assert fit.rho == 1.0

    def test_deterministic_given_seeds(self):
        sim = brownian_pmf_simulator()
        ref = sim(0.6, RngStream(7, "ref"))
        grid = [0.4, 0.6, 0.8]
        a = fit_rho(ref, sim, grid, RngStream(8, "fit"), samples_per_point=3)
        b = fit_rho(ref, sim, grid, RngStream(8, "fit"), samples_per_point=3)
        assert a.rho == b.rho
        assert np.array_equal(a.kl, b.kl)

    def test_empty_grid_rejected(self):
        sim = brownian_pmf_simulator()
        with pytest.raises(ValueError, match="empty"):
            fit_rho(sim(0.5, RngStream(0, "r")), sim, [], RngStream(1, "f"))

    def test_grid_outside_unit_interval_rejected(self):
        sim = brownian_pmf_simulator()
        with pytest.raises(ValueError, match="0, 1"):
            fit_rho(sim(0.5, RngStream(0, "r")), sim, [0.5, 1.2], RngStream(1, "f"))

    @pytest.mark.parametrize("grid, match", [
        ([0.5, np.nan], "^grid: contains non-finite entries$"),
        ([[0.4, 0.6], [0.8, 0.9]], r"^grid: expected a 1-d array, got shape \(2, 2\)$"),
    ])
    def test_nan_or_2d_grid_rejected(self, grid, match):
        # With a callback that ignores rho, a NaN grid point used to come
        # back as the fitted rho, and a 2-d grid was searched row by row.
        def constant_sim(rho, rng):
            return np.array([0.5, 0.5])

        with pytest.raises(ValueError, match=match):
            fit_rho([0.5, 0.5], constant_sim, grid, RngStream(0, "f"), samples_per_point=1)

    def test_samples_per_point_below_one_rejected(self):
        sim = brownian_pmf_simulator()
        with pytest.raises(ValueError, match="samples_per_point must be >= 1, got 0"):
            fit_rho(sim(0.5, RngStream(0, "r")), sim, [0.5], RngStream(1, "f"),
                    samples_per_point=0)

    def test_ties_break_toward_larger_rate(self):
        def constant_sim(rho, rng):
            return np.array([0.5, 0.5])

        fit = fit_rho([0.5, 0.5], constant_sim, [0.1, 0.5, 0.9],
                      RngStream(0, "f"), samples_per_point=1)
        assert fit.rho == 0.9

    def test_curve_csv(self, tmp_path):
        sim = brownian_pmf_simulator()
        ref = sim(0.5, RngStream(2, "r"))
        fit = fit_rho(ref, sim, [0.4, 0.6], RngStream(3, "f"), samples_per_point=2)
        out = tmp_path / "rho_kl.csv"
        fit.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "rho,kl"
        assert len(lines) == 3

    def test_sensitivity_on_pipeline(self, desk_cfg, clutter_cfg, walking_radial):
        # The divergence curve over the grid is non-constant when the
        # reference sits strictly inside (0, 1).
        from isacsim.simulate import simulate_spectrogram
        from isacsim.channel import draw_primitive_phases

        phases = draw_primitive_phases(16, RngStream(9, "ph"))

        def sim(rho, rng):
            return simulate_spectrogram(
                desk_cfg, walking_radial, 384, rng, clutter=clutter_cfg,
                rho=rho, stft_window=128, phases=phases,
            ).pmf

        rng = RngStream(10, "ref")
        ref = np.mean([sim(0.99, rng.spawn(f"r{i}")) for i in range(3)], axis=0)
        ref /= ref.sum()
        fit = fit_rho(ref, sim, [0.9, 0.99, 1.0], RngStream(11, "fit"),
                      samples_per_point=3)
        assert fit.kl.max() / fit.kl.min() > 1.5


class TestReferenceFromPgm:
    def test_single_file(self, tmp_path):
        gray = np.arange(256, dtype=np.uint8).reshape(16, 16)
        write_pgm(tmp_path / "ref.pgm", gray)
        pmf = reference_pmf_from_pgms(tmp_path / "ref.pgm", bins=64)
        assert pmf.size == 64
        assert pmf.sum() == pytest.approx(1.0)
        assert np.allclose(pmf, 1.0 / 64)

    def test_directory_pooled(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", np.zeros((8, 8), np.uint8))
        write_pgm(tmp_path / "b.pgm", np.full((8, 8), 255, np.uint8))
        pmf = reference_pmf_from_pgms(tmp_path, bins=2)
        assert np.allclose(pmf, [0.5, 0.5])

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no .pgm"):
            reference_pmf_from_pgms(tmp_path)
