import math
from dataclasses import fields, replace

import numpy as np
import pytest

from isacsim import (
    ClutterConfig,
    ClutterProcess,
    MotionSpec,
    RngStream,
    SPEED_OF_LIGHT,
    synthesize_chirp,
)
from isacsim.channel import (
    DEFAULT_RHO,
    _phasor,
    cluster_delays,
    target_amplitudes,
)
from isacsim.kinematics import PrimitiveTracks
from isacsim.simulate import synthesize_received_matrix


def point_tracks(distances, gains=None, times=None):
    """Single-primitive track helper for channel-level tests."""
    d = np.atleast_2d(np.asarray(distances, dtype=float))
    g = np.ones_like(d) if gains is None else np.atleast_2d(gains)
    t = np.arange(d.shape[1]) * 1e-3 if times is None else times
    spec = MotionSpec("walking", "adult", duration=max(t[-1], 1e-3) + 1e-3)
    return PrimitiveTracks(
        names=tuple(f"p{i}" for i in range(d.shape[0])),
        times=np.asarray(t, dtype=float),
        positions=np.zeros((d.shape[0], d.shape[1], 3)),
        distances=d,
        gains=g,
        v_max=10.0,
        spec=spec,
    )


def received(cfg, tracks=None, phases=None, clutter=None, noise=None):
    """Received matrix of a few cycles; ``clutter`` is (amps (K, C), delays)."""
    if tracks is None:
        tracks = point_tracks(np.zeros((0, 1)))
        phases = np.zeros(0)
    amps, delays = clutter if clutter is not None else (None, None)
    return synthesize_received_matrix(cfg, tracks, phases, amps, delays, noise)


def tap_at(tau, amp, cycles=1):
    """One clutter tap with a fixed amplitude over ``cycles`` cycles."""
    return np.full((1, cycles), amp, dtype=complex), np.array([tau])


class TestTargetChannel:
    def test_single_primitive_hand_values(self, base_cfg):
        # Direct evaluation: D=3 m, G=1, phase 0.
        cfg = replace(base_cfg, noise_power=0.0)
        amp = target_amplitudes(1.0, 3.0, cfg, 0.0)
        a_const = cfg.wavelength**2 * math.sqrt(cfg.sensing_antenna_gain)
        expected_mag = a_const / math.sqrt(4 * math.pi) / 9.0
        assert abs(amp) == pytest.approx(expected_mag, rel=1e-12)
        expected_phase = (-2 * math.pi * cfg.carrier_freq * 2 * 3.0
                          / SPEED_OF_LIGHT) % (2 * math.pi)
        assert np.angle(amp) % (2 * math.pi) == pytest.approx(
            expected_phase, abs=1e-9
        )
        # The tap sits at delay 2 D / c: fast-time position 0.2, split
        # 0.8 / 0.2 between samples 0 and 1.
        out = received(cfg, point_tracks([[3.0]]), np.zeros(1))[:, 0]
        pos = 2.0 * 3.0 / SPEED_OF_LIGHT * cfg.sample_rate
        chirp = synthesize_chirp(cfg)
        expected = np.zeros(cfg.fast_time_len, complex)
        expected[: chirp.size] += (1 - pos) * amp * chirp
        expected[1 : 1 + chirp.size] += pos * amp * chirp
        assert np.allclose(out, expected, rtol=1e-12, atol=0.0)

    def test_inverse_square_law(self, base_cfg):
        near = target_amplitudes(1.0, 2.0, base_cfg, 0.0)
        far = target_amplitudes(1.0, 4.0, base_cfg, 0.0)
        assert abs(near) / abs(far) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("distance", [np.nan, np.inf])
    def test_non_finite_distance_rejected(self, base_cfg, distance):
        with pytest.raises(ValueError, match="distances"):
            target_amplitudes(1.0, np.array([3.0, distance]), base_cfg, 0.0)

    def test_empty_tracks_empty_taps(self, base_cfg):
        tracks = point_tracks(np.zeros((0, 1)))
        amps = target_amplitudes(tracks.gains, tracks.distances, base_cfg,
                                 np.zeros((0, 1)))
        assert amps.size == 0
        out = received(replace(base_cfg, noise_power=0.0), tracks, np.zeros(0))
        assert np.all(out == 0)

    def test_phases_fixed_across_cycles(self, base_cfg, rng):
        tracks = point_tracks([[3.0, 3.001]])
        phases = np.array([0.3])
        amps = target_amplitudes(tracks.gains, tracks.distances, base_cfg,
                                 phases[:, None])
        # The initial phase contribution is identical; only propagation
        # phase moves between cycles.
        prop = -4 * math.pi * base_cfg.carrier_freq * 0.001 / SPEED_OF_LIGHT
        measured = np.angle(amps[0, 1] / amps[0, 0])
        assert measured == pytest.approx(prop % (2 * math.pi) - 2 * math.pi, abs=1e-6)


class TestClutter:
    def test_cluster_zero_is_direct_path(self):
        delays = cluster_delays()
        assert delays[0] == 0.0
        assert np.all(np.diff(delays) >= 0)
        assert delays.size == len(ClutterConfig.reflection_factors)

    def test_single_ray_amplitude_formula(self, base_cfg):
        # One ray per cluster: the taps are the cluster arrivals, each with
        # scale sqrt(H_n) * wavelength / (4 pi (baseline + tau_n * c)).
        ccfg = ClutterConfig(rays_per_cluster=1)
        proc = ClutterProcess(ccfg, base_cfg, RngStream(5, "c"), DEFAULT_RHO)
        assert np.array_equal(proc.delays, cluster_delays())
        assert proc.delays[0] == 0.0  # direct cluster
        expected = [
            math.sqrt(h_n) * base_cfg.wavelength
            / (4 * math.pi * (ccfg.baseline + tau_n * SPEED_OF_LIGHT))
            for tau_n, h_n in zip(cluster_delays(), ccfg.reflection_factors)
        ]
        assert proc.scales == pytest.approx(expected, rel=1e-12)
        amps = proc.run(1)
        assert np.all(np.abs(amps[:, 0]) <= proc.scales * 10)  # Rayleigh draw, sane scale

    def test_rays_follow_their_cluster(self, base_cfg):
        # Each tap's ray offset is read back from its power, exp(-offset /
        # ray_decay_const): the delay less the offset is a cluster arrival,
        # the tap carries that cluster's scale, the first ray of every
        # cluster sits on its arrival, and the later offsets are Poisson
        # arrivals (the k-th has mean k / ray_arrival_rate).
        ccfg = ClutterConfig(rays_per_cluster=12)
        tau = cluster_delays()
        proc0 = ClutterProcess(ClutterConfig(rays_per_cluster=1), base_cfg, RngStream(0, "c"), 0.5)
        offset_sum = 0.0
        for seed in range(20):
            proc = ClutterProcess(ccfg, base_cfg, RngStream(seed, "rays"), 0.5)
            assert proc.delays.size == tau.size * 12
            assert np.all(np.diff(proc.delays) >= 0)
            offset = -ccfg.ray_decay_const * np.log(proc.ray_power)
            cluster = np.abs((proc.delays - offset)[:, None] - tau[None, :]).argmin(axis=1)
            assert proc.delays - offset == pytest.approx(tau[cluster], rel=1e-9, abs=1e-18)
            assert np.array_equal(proc.scales, proc0.scales[cluster])
            assert np.sort(proc.delays[proc.ray_power == 1.0]).tolist() == tau.tolist()
            offset_sum += offset.sum()
        # Summed over a cluster's 11 later rays the offsets have mean 66/rate.
        per_cluster = offset_sum / (20 * tau.size)
        assert per_cluster * ccfg.ray_arrival_rate == pytest.approx(66.0, rel=0.05)

    def test_ray_power_decay_monte_carlo(self, base_cfg):
        # The mean squared Rayleigh amplitude of each tap must match its
        # ray_power within 2%; rho=0 makes every cycle a fresh draw.
        ccfg = ClutterConfig(rays_per_cluster=6)
        proc = ClutterProcess(ccfg, base_cfg, RngStream(9, "mc"), 0.0)
        draws = proc.run(100_000)
        mean_power = np.mean(np.abs(draws / proc.scales[:, None]) ** 2, axis=1)
        assert np.allclose(mean_power, proc.ray_power, rtol=0.02)

    def test_rho_outside_unit_interval_rejected(self, base_cfg):
        with pytest.raises(ValueError, match="rho"):
            ClutterProcess(ClutterConfig(), base_cfg, RngStream(1, "c"), 1.5)


class TestScene:
    """The declared scene is valid; ``cluster_delays`` no longer checks it."""

    def test_radar_strictly_inside_the_room(self):
        for q, dim in zip(ClutterConfig.radar_position, ClutterConfig.room):
            assert 0.0 < q < dim

    def test_baseline_shorter_than_every_bounce_path(self):
        # The shortest bounce is the single bounce off the nearest wall.
        assert np.all(cluster_delays()[1:] > 0.0)
        q = np.asarray(ClutterConfig.radar_position)
        wall_dist = np.concatenate([q, np.asarray(ClutterConfig.room) - q])
        assert ClutterConfig.baseline < 2.0 * wall_dist.min()

    def test_clusters_within_the_image_paths(self):
        # The leakage path, six single bounces and 12 double bounces.
        assert len(ClutterConfig.reflection_factors) <= 1 + 6 + 12

    def test_only_rays_per_cluster_is_settable(self):
        assert [f.name for f in fields(ClutterConfig)] == ["rays_per_cluster"]
        assert ClutterConfig(rays_per_cluster=12).rays_per_cluster == 12
        with pytest.raises(TypeError):
            ClutterConfig(room=(1, 1, 1))
        with pytest.raises(ValueError, match="rays_per_cluster"):
            ClutterConfig(rays_per_cluster=0)


def clutter_reference(ccfg, cfg, rng, rho, cycles):
    """Reference: the ray layout drawn cluster by cluster, then the
    amplitudes of ``cycles`` cycles with ``exp`` phases and ``rho * prev``."""
    delays, scales, power = [], [], []
    for tau_n, h_n in zip(cluster_delays(), ccfg.reflection_factors):
        scale_n = math.sqrt(h_n) * cfg.wavelength / (
            4.0 * math.pi * (ccfg.baseline + tau_n * SPEED_OF_LIGHT)
        )
        gaps = rng._rng.exponential(1.0 / ccfg.ray_arrival_rate, ccfg.rays_per_cluster - 1)
        offsets = np.concatenate([[0.0], np.cumsum(gaps)])
        delays.extend(tau_n + offsets)
        scales.extend([scale_n] * offsets.size)
        power.extend(np.exp(-offsets / ccfg.ray_decay_const))
    order = np.argsort(delays, kind="stable")
    delays, scales, power = (np.asarray(v)[order] for v in (delays, scales, power))
    shape = (cycles, delays.size)
    mag = rng.rayleigh(1.0, shape) * np.sqrt(power / 2.0)
    phase = rng.uniform(-math.pi, math.pi, shape)
    out = scales * mag * np.exp(1j * phase)
    out[1:] *= 1.0 - rho
    for prev, cur in zip(out[:-1], out[1:]):
        cur += rho * prev
    return delays, scales, power, out.T


class TestClutterBytes:
    """The one-draw ray layout and the cos/sin phases hold the bytes of
    the per-cluster loop and of ``exp``.

    ``test_layout_and_run_equal_the_reference`` holds today's stream
    layout (arrivals, then Rayleigh magnitudes, then phases), so a change
    of that layout breaks it by design; its docstring names the tests that
    check the same laws without the layout.
    """

    @pytest.mark.parametrize("rho", [0.0, DEFAULT_RHO, 1.0])
    @pytest.mark.parametrize("scene", [
        {}, {"rays_per_cluster": 1}, {"rays_per_cluster": 12},
    ])
    def test_layout_and_run_equal_the_reference(self, base_cfg, rho, scene):
        """The ray layout and the evolved amplitudes.  The laws they stand
        for are checked without the layout by
        ``TestClutter::test_rays_follow_their_cluster`` (first ray on the
        cluster arrival, Poisson later rays, exponential power decay, one
        scale per cluster), ``TestClutter::test_single_ray_amplitude_formula``
        (the cluster scale), ``TestClutter::test_ray_power_decay_monte_carlo``
        (Rayleigh power), ``TestEvolution::test_power_follows_ar_law`` and
        ``TestEvolution::test_lag_autocorrelation_matches_ar`` (the AR
        update)."""
        ccfg = ClutterConfig(**scene)
        for seed in range(3):
            proc = ClutterProcess(ccfg, base_cfg, RngStream(seed, "clutter"), rho)
            got = (proc.delays, proc.scales, proc.ray_power, proc.run(200))
            ref = clutter_reference(ccfg, base_cfg, RngStream(seed, "clutter"), rho, 200)
            for name, a, b in zip(("delays", "scales", "ray_power", "run"), got, ref):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_phasor_equals_exp(self):
        rng = np.random.default_rng(8)
        phase = np.concatenate([
            rng.uniform(-math.pi, math.pi, 100_000), rng.uniform(-1e4, 1e4, 10_000),
            [0.0, math.pi, -math.pi, 1e-300, -1e-300, 2.0**60, 5e-324],
        ])
        assert _phasor(phase).tobytes() == np.exp(1j * phase).tobytes()
        assert _phasor(phase.reshape(1, -1)).tobytes() == np.exp(1j * phase).tobytes()

    def test_target_amplitudes_equal_the_exp_formula(self, base_cfg):
        rng = np.random.default_rng(9)
        d = rng.uniform(0.5, 6.0, (16, 300))
        g = rng.uniform(1e-3, 0.1, (16, 300))
        phi = rng.uniform(-math.pi, math.pi, (16, 1))
        carrier = -2.0 * math.pi * base_cfg.carrier_freq * (2.0 * d) / SPEED_OF_LIGHT
        ref = (base_cfg.wavelength**2 * math.sqrt(base_cfg.sensing_antenna_gain)
               / math.sqrt(4.0 * math.pi) * np.sqrt(g) / d**2 * np.exp(1j * (carrier + phi)))
        assert target_amplitudes(g, d, base_cfg, phi).tobytes() == ref.tobytes()

    def test_cluster_delays_cached_read_only(self):
        delays = cluster_delays()
        assert cluster_delays() is delays
        with pytest.raises(ValueError, match="read-only"):
            delays[0] = 1.0


class TestEvolution:
    @staticmethod
    def run(base_cfg, seed, rho, cycles):
        proc = ClutterProcess(ClutterConfig(), base_cfg, RngStream(seed, "src"), rho)
        return proc.run(cycles)

    def test_rho_one_is_static(self, base_cfg):
        amps = self.run(base_cfg, 1, 1.0, 20)
        assert np.array_equal(amps, np.broadcast_to(amps[:, :1], amps.shape))

    def test_rho_zero_is_memoryless(self, base_cfg):
        amps = self.run(base_cfg, 2, 0.0, 2)
        # Fresh draw each cycle: correlation with the previous state is
        # that of independent samples.
        assert not np.allclose(amps[:, 0], amps[:, 1])

    def test_ar_recursion_exact(self, base_cfg):
        # Two processes on one stream share their fresh draws; rho=0 returns
        # them as they are, and rho mixes them bit for bit, also where 1-rho
        # is not exact in binary (DEFAULT_RHO).
        fresh = self.run(base_cfg, 4, 0.0, 6)
        for rho in (0.25, DEFAULT_RHO):
            amps = self.run(base_cfg, 4, rho, 6)
            assert amps.shape == (7 * 8, 6)  # taps x cycles
            assert np.array_equal(amps[:, 0], fresh[:, 0])
            assert np.array_equal(
                amps[:, 1:], rho * amps[:, :-1] + (1.0 - rho) * fresh[:, 1:]
            )
            ref = fresh.T.copy()
            for prev, cur in zip(ref[:-1], ref[1:]):  # per-row reference loop
                cur *= 1.0 - rho
                cur += rho * prev
            assert amps.tobytes() == np.ascontiguousarray(ref.T).tobytes()

    def test_rho_out_of_range(self, base_cfg):
        for rho in (1.2, -0.2):
            with pytest.raises(ValueError, match="rho"):
                self.run(base_cfg, 3, rho, 1)

    def test_lag_autocorrelation_matches_ar(self, base_cfg):
        # Pooled tap autocorrelation at lag k approaches rho^k.
        ccfg = ClutterConfig(rays_per_cluster=16)
        rho = 0.97
        proc = ClutterProcess(ccfg, base_cfg, RngStream(11, "ar"), rho)
        amps = proc.run(30_000)
        x = amps - amps.mean(axis=1, keepdims=True)
        var = np.mean(np.abs(x) ** 2)
        for lag in (1, 10, 50):
            corr = np.mean(np.real(x[:, lag:] * np.conj(x[:, :-lag]))) / var
            assert corr == pytest.approx(rho**lag, abs=0.03)

    @pytest.mark.parametrize("rho", [0.0, 0.8, 0.9, DEFAULT_RHO, 1.0])
    def test_power_follows_ar_law(self, base_cfg, rho):
        # Cycle 0 is a fresh draw at power P0; rho*prev + (1-rho)*fresh then
        # gives P0 [rho^2t + (1-rho)^2 (1-rho^2t) / (1-rho^2)], with the
        # ratio cancelled to (1-rho)/(1+rho) so that rho=1 gives P0 throughout.
        # A tap's amplitude is circular Gaussian, so its power over the law
        # is exponential with unit mean and variance, and the mean over n
        # independent chains (20 seeds x 56 taps, each normalized by its own
        # P0 = scales**2 * ray_power) lies within 5/sqrt(n) of 1 at every cycle.
        cycles = 3000
        chains = []
        for seed in range(20):
            proc = ClutterProcess(ClutterConfig(), base_cfg, RngStream(seed, "law"), rho)
            p0 = proc.scales**2 * proc.ray_power
            chains.append(np.abs(proc.run(cycles)) ** 2 / p0[:, None])
        chains = np.concatenate(chains)
        decay = rho ** (2 * np.arange(cycles))
        law = decay + (1 - rho) * (1 - decay) / (1 + rho)
        rel = chains.mean(axis=0) / law - 1.0
        assert np.abs(rel).max() <= 5.0 / math.sqrt(len(chains))


class TestReceivedCycle:
    """One sensing cycle is the C=1 case of the received matrix."""

    def test_empty_channel_zero_output(self, base_cfg):
        cfg = replace(base_cfg, noise_power=0.0)
        out = received(cfg, clutter=(np.zeros((0, 1), complex), np.zeros(0)))
        assert np.all(out == 0)
        assert out.shape == (cfg.fast_time_len, 1)

    def test_single_tap_places_scaled_chirp(self, base_cfg):
        cfg = replace(base_cfg, noise_power=0.0)
        chirp = synthesize_chirp(cfg)
        tau = 12.0 / cfg.sample_rate  # on the grid: no split
        amp = 0.3 - 0.4j
        out = received(cfg, clutter=tap_at(tau, amp))[:, 0]
        assert np.all(out[:12] == 0)
        assert np.allclose(out[12 : 12 + chirp.size], amp * chirp)

    def test_linearity_with_shared_noise(self, base_cfg):
        u = point_tracks([[2e-8 * SPEED_OF_LIGHT / 2]])
        v = tap_at(4e-8, 0.0 + 0.5j)
        phases = np.zeros(1)
        both = received(base_cfg, u, phases, v, RngStream(3, "n"))
        cfg0 = replace(base_cfg, noise_power=0.0)
        parts = received(cfg0, u, phases) + received(cfg0, clutter=v)
        noise_only = received(base_cfg, noise=RngStream(3, "n"))
        assert np.allclose(both, parts + noise_only, rtol=1e-12, atol=1e-18)

    def test_noise_power_level(self, base_cfg):
        # A tap-free scene of 400 cycles: 200 000 samples of noise alone.
        cfg = replace(base_cfg, noise_power=1e-10)
        out = received(cfg, point_tracks(np.zeros((0, 400))), np.zeros(0),
                       noise=RngStream(8, "n"))
        assert out.shape == (cfg.fast_time_len, 400)
        assert np.mean(np.abs(out) ** 2) == pytest.approx(1e-10, rel=0.01)

    def test_noise_parts_scale_by_reciprocal_sqrt2(self, base_cfg):
        # Real parts are the stream's first (L, C) normal draw and imaginary
        # parts its second, each times (1/sqrt(2)) * sqrt(P).  Dividing the
        # draws by sqrt(2) rounds differently, and the recorded outputs
        # hold the reciprocal's rounding.
        cfg = replace(base_cfg, noise_power=1e-10)
        out = received(cfg, point_tracks(np.zeros((0, 20))), np.zeros(0),
                       noise=RngStream(0, "z"))
        stream = RngStream(0, "z")
        re, im = (stream.normal((cfg.fast_time_len, 20)) for _ in range(2))
        scale = math.sqrt(cfg.noise_power)
        assert out.real.tobytes() == (re * (1.0 / np.sqrt(2.0)) * scale).tobytes()
        assert out.imag.tobytes() == (im * (1.0 / np.sqrt(2.0)) * scale).tobytes()
        assert out.real.tobytes() != (re / np.sqrt(2.0) * scale).tobytes()

    def test_no_noise_without_power_or_stream(self, base_cfg):
        # Noise is drawn only when the link has noise power and a stream.
        u = point_tracks([[2e-8 * SPEED_OF_LIGHT / 2]])
        v = tap_at(4e-8, 0.0 + 0.5j)
        cfg0 = replace(base_cfg, noise_power=0.0)
        taps = received(cfg0, u, np.zeros(1), v)
        assert np.any(taps != 0)
        assert np.array_equal(received(cfg0, u, np.zeros(1), v, RngStream(3, "n")), taps)
        assert np.array_equal(received(base_cfg, u, np.zeros(1), v), taps)

    def test_tap_at_last_sample_keeps_one_chirp_sample(self, base_cfg):
        cfg = replace(base_cfg, noise_power=0.0)
        L = cfg.fast_time_len
        amp = 0.3 - 0.4j
        out = received(cfg, clutter=tap_at((L - 1) / cfg.sample_rate, amp))[:, 0]
        assert np.all(out[:-1] == 0)
        assert out[-1] == pytest.approx(amp * synthesize_chirp(cfg)[0], rel=1e-12)

    def test_delay_beyond_slot_rejected(self, base_cfg):
        tau = base_cfg.slot_time * 1.01
        with pytest.raises(ValueError, match="unambiguous"):
            received(base_cfg, clutter=tap_at(tau, 1 + 0j))
        with pytest.raises(ValueError, match="unambiguous"):
            received(base_cfg, point_tracks([[tau * SPEED_OF_LIGHT / 2]]),
                     np.zeros(1))

    def test_determinism(self, base_cfg):
        u = point_tracks([[3.0]])
        a = received(base_cfg, u, np.zeros(1), noise=RngStream(5, "n"))
        b = received(base_cfg, u, np.zeros(1), noise=RngStream(5, "n"))
        assert np.array_equal(a, b)
