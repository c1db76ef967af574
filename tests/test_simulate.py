import math
import threading
import tracemalloc
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

import isacsim.simulate as simulate
from isacsim import ClutterConfig, MotionSpec, RngStream, kl_divergence
from isacsim.channel import ClutterProcess, draw_primitive_phases, target_amplitudes
from isacsim.config import SPEED_OF_LIGHT, load_config
from isacsim.kinematics import PrimitiveTracks, synthesize_tracks
from isacsim.simulate import (
    place_taps_fractional,
    simulate_spectrogram,
    synthesize_received_matrix,
)
from isacsim.dsp import synthesize_chirp


class TestPlacement:
    def test_fractional_delay_splits_linearly(self, base_cfg):
        chirp = synthesize_chirp(base_cfg)
        L = base_cfg.fast_time_len
        out = place_taps_fractional(
            np.array([[1.0 + 0j]]), np.array([[3.25]]), chirp, L
        )
        expected = np.zeros(L, complex)
        expected[3 : 3 + chirp.size] += 0.75 * chirp
        expected[4 : 4 + chirp.size][: L - 4] += 0.25 * chirp[: L - 4]
        assert np.allclose(out[:, 0], expected)

    def test_taps_superpose_linearly(self):
        # Each tap, in each cycle, adds its split-weighted chirp on its own;
        # the placement is the sum of those and is linear in the amplitudes.
        rng = np.random.default_rng(4)
        L, K, C = 16, 5, 7
        chirp = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        delays = rng.uniform(0.0, L - 1.0, (K, C))
        delays[0, :2] = (3.0, L - 1.0)  # a whole offset and the clipped last one
        a, b = (rng.standard_normal((K, C)) + 1j * rng.standard_normal((K, C))
                for _ in range(2))
        expected = np.zeros((L, C), complex)
        for k in range(K):
            for c in range(C):
                base = math.floor(delays[k, c])
                frac = delays[k, c] - base
                for off, weight in ((base, 1.0 - frac), (min(base + 1, L - 1), frac)):
                    n = min(chirp.size, L - off)
                    expected[off:off + n, c] += weight * a[k, c] * chirp[:n]
        placed_a = place_taps_fractional(a, delays, chirp, L)
        placed_b = place_taps_fractional(b, delays, chirp, L)
        assert np.allclose(placed_a, expected, rtol=0, atol=1e-12)
        assert np.allclose(place_taps_fractional(2.0 * a - 3j * b, delays, chirp, L),
                           2.0 * placed_a - 3j * placed_b, rtol=0, atol=1e-12)

    def test_vectorized_target_matches_per_cycle_op(self, base_cfg, walking_radial):
        # The (primitives x cycles) block equals the formula evaluated on
        # one cycle's column at a time.
        grid = np.arange(64) * base_cfg.pri
        tracks = synthesize_tracks(walking_radial, (1.5, 1.0, 1.0), grid)
        phases = draw_primitive_phases(16, RngStream(3, "ph"))
        amps = target_amplitudes(
            tracks.gains, tracks.distances, base_cfg, phases[:, None]
        )
        for i in (0, 13, 63):
            column = target_amplitudes(
                tracks.gains[:, i], tracks.distances[:, i], base_cfg, phases
            )
            assert np.allclose(column, amps[:, i])

    def test_negative_delay_rejected(self, base_cfg):
        chirp = synthesize_chirp(base_cfg)
        with pytest.raises(ValueError, match="unambiguous"):
            place_taps_fractional(
                np.array([[1.0 + 0j]]), np.array([[-0.5]]), chirp,
                base_cfg.fast_time_len,
            )

    @pytest.mark.parametrize("delay", [np.nan, np.inf])
    def test_non_finite_delay_rejected(self, base_cfg, delay):
        chirp = synthesize_chirp(base_cfg)
        with pytest.raises(ValueError, match="delays_samples"):
            place_taps_fractional(
                np.array([[1.0 + 0j, 1.0 + 0j]]), np.array([[3.0, delay]]),
                chirp, base_cfg.fast_time_len,
            )

    @pytest.mark.parametrize("shape", [(1, 6), (3,), (3, 2)])
    def test_delay_layout_rejected(self, base_cfg, shape):
        # One delay per tap, either per cycle (3, 6) or for all cycles (3, 1).
        chirp = synthesize_chirp(base_cfg)
        with pytest.raises(ValueError, match=r"delays_samples: shape"):
            place_taps_fractional(
                np.ones((3, 6), complex), np.ones(shape), chirp, base_cfg.fast_time_len
            )

    def test_delay_beyond_slot_rejected(self, base_cfg):
        chirp = synthesize_chirp(base_cfg)
        with pytest.raises(ValueError, match="unambiguous"):
            place_taps_fractional(
                np.array([[1.0 + 0j]]),
                np.array([[float(base_cfg.fast_time_len)]]),
                chirp,
                base_cfg.fast_time_len,
            )


def place_taps_unique(amps, delays_samples, chirp, fast_len):
    """Reference: the split taps summed per offset found by np.unique."""
    pos = np.broadcast_to(delays_samples, amps.shape)
    base = np.floor(pos).astype(int)
    frac = pos - base
    split_amps = np.concatenate([amps * (1.0 - frac), amps * frac])
    split_offsets = np.concatenate([base, np.minimum(base + 1, fast_len - 1)])
    out = np.zeros((fast_len, amps.shape[1]), dtype=complex)
    for off in np.unique(split_offsets):
        col = np.where(split_offsets == off, split_amps, 0.0).sum(axis=0)
        n = min(chirp.size, fast_len - off)
        out[off : off + n, :] += chirp[:n, None] * col[None, :]
    return out


class TestPlacementBytes:
    """Fractional placement holds the bytes of ``place_taps_unique``, the
    split taps summed per offset found by ``np.unique``.

    These pins hold today's order of summation, so a change of it breaks
    them by design.  The invariant they stand for is placement linearity
    and the sub-sample split weights: a tap at delay d adds 1 - frac(d) of
    the chirp at floor(d) and frac(d) at floor(d) + 1 (clipped to L - 1),
    and tap sets superpose.  ``TestPlacement::test_fractional_delay_splits_linearly``
    checks one tap's weights and ``TestPlacement::test_taps_superpose_linearly``
    the whole rule, both within a tolerance and in no fixed order.
    """

    L = 16

    @staticmethod
    def draw(rng, shape, negative=False):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if negative:  # a zero split weight times these gives signed zeros
            z = -(np.abs(z.real) + 1j * np.abs(z.imag))
        return z

    @pytest.mark.parametrize(
        "chirp_len, delays, negative",
        [
            # Non-adjacent offsets, a pair sharing one cell, and L-1 exactly,
            # where base+1 is clipped onto base.
            pytest.param(5, [0.2, 3.7, 3.9, 7.0, L - 1.0], False, id="5"),
            pytest.param(16, [0.2, 3.7, 3.9, 7.0, L - 1.0], False, id="16"),
            # Whole positions: every second split row weighs 0.
            pytest.param(5, [0.0, 3.0, 3.0, 7.0, L - 1.0], True, id="integer-negative"),
        ],
    )
    def test_static_sparse_offsets(self, chirp_len, delays, negative):
        rng = np.random.default_rng(chirp_len)
        delays = np.array(delays)[:, None]
        amps = self.draw(rng, (5, 9), negative)
        chirp = self.draw(rng, chirp_len)
        got = place_taps_fractional(amps, delays, chirp, self.L)
        ref = place_taps_unique(amps, delays, chirp, self.L)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "delays, negative",
        [
            pytest.param(lambda rng, C, L: np.stack([
                np.linspace(2.5, 5.5, C),
                np.linspace(L - 1.0, 9.2, C),
                np.full(C, 0.6),
                rng.uniform(0.0, L - 1.0, C),
            ]), False, id="drift"),
            pytest.param(lambda rng, C, L: rng.integers(0, L, (4, C)).astype(float),
                         True, id="integer-negative"),
            # Rows 0-2 reach offset 4 in some cycles only, row 3 in none.
            pytest.param(lambda rng, C, L: np.stack([
                np.where(np.arange(C) % 3 == 0, 4.0, 6.25),
                np.where(np.arange(C) % 2 == 0, 3.5, 9.0),
                np.where(np.arange(C) < C // 2, 4.75, L - 1.0),
                np.full(C, 11.0),
            ]), True, id="partial-hits"),
        ],
    )
    def test_offsets_move_across_cycles(self, delays, negative):
        rng = np.random.default_rng(7)
        C = 40
        delays = delays(rng, C, self.L)
        amps = self.draw(rng, (4, C), negative)
        chirp = self.draw(rng, 6)
        got = place_taps_fractional(amps, delays, chirp, self.L)
        ref = place_taps_unique(amps, delays, chirp, self.L)
        assert got.tobytes() == ref.tobytes()

    def test_static_many_taps_share_offsets(self):
        # 40 static taps on five cells must give the masked reference's
        # bytes, and so must the same delays spelled out per cycle (K, C).
        rng = np.random.default_rng(8)
        delays = rng.choice([0.3, 0.8, 4.5, 9.05, self.L - 1.0], size=(40, 1))
        amps = self.draw(rng, (40, 33))
        chirp = self.draw(rng, 7)
        got = place_taps_fractional(amps, delays, chirp, self.L)
        ref = place_taps_unique(amps, delays, chirp, self.L)
        per_cycle = place_taps_fractional(amps, np.repeat(delays, 33, axis=1), chirp, self.L)
        assert got.tobytes() == ref.tobytes()
        assert got.tobytes() == per_cycle.tobytes()

    def test_static_clutter_process_taps(self, base_cfg, clutter_cfg):
        process = ClutterProcess(clutter_cfg, base_cfg, RngStream(9, "static"), 0.997)
        amps = process.run(64)
        delays = (process.delays * base_cfg.sample_rate)[:, None]
        chirp = synthesize_chirp(base_cfg)
        L = base_cfg.fast_time_len
        got = place_taps_fractional(amps, delays, chirp, L)
        ref = place_taps_unique(amps, delays, chirp, L)
        assert got.tobytes() == ref.tobytes()

    def test_empty_tap_set(self):
        args = (np.zeros((0, 12), complex), np.zeros((0, 1)), np.ones(4, complex))
        got = place_taps_fractional(*args, self.L)
        ref = place_taps_unique(*args, self.L)
        assert got.shape == (self.L, 12)
        assert got.tobytes() == ref.tobytes()


def received_matrix_reference(cfg, tracks, phases, clutter_amps, clutter_delays, noise_rng):
    """Reference: every term as a whole L x C matrix, added in order.

    Target taps are placed into zeros, clutter taps into a second L x C
    matrix that is added to it, and then each noise part is drawn whole,
    scaled in place and added.
    """
    L, C = cfg.fast_time_len, tracks.times.size
    chirp = synthesize_chirp(cfg)
    amps = target_amplitudes(tracks.gains, tracks.distances, cfg, phases[:, None])
    positions = 2.0 * tracks.distances / SPEED_OF_LIGHT * cfg.sample_rate
    x = place_taps_unique(amps, positions, chirp, L)
    if clutter_amps is not None and clutter_amps.size:
        x += place_taps_unique(clutter_amps, (clutter_delays * cfg.sample_rate)[:, None],
                               chirp, L)
    if noise_rng is not None and cfg.noise_power > 0:
        for part in (x.real, x.imag):
            noise = noise_rng.normal((L, C))
            noise *= 1.0 / np.sqrt(2.0)
            noise *= math.sqrt(cfg.noise_power)
            part += noise
    return x


def walking_scene(cfg, cycles, seed, clutter=True):
    """Tracks, phases and clutter taps of the benchmark's walking adult."""
    motion = MotionSpec("walking", "adult", duration=cycles * cfg.pri,
                        start_position=(3.0, 4.2, 0.0), heading=(-1.0, 0.0))
    scene = ClutterConfig()
    tracks = synthesize_tracks(motion, scene.radar_position, np.arange(cycles) * cfg.pri)
    phases = draw_primitive_phases(tracks.num_primitives, RngStream(seed, "phases"))
    if not clutter:
        return tracks, phases, None, None
    process = ClutterProcess(scene, cfg, RngStream(seed, "clutter"), 0.997)
    return tracks, phases, process.run(cycles), process.delays


class TestReceivedMatrixBytes:
    """The received matrix, built in one buffer with the noise drawn on a
    helper thread, holds the reference's bytes.

    These pins hold today's stream layout (noise drawn whole as L x C, the
    real part first), so a change of that layout breaks them by design.
    Each docstring names the invariant the pin stands for and the test in
    ``test_channel.py`` that checks it without the layout; that test must
    keep passing when the pin is re-recorded.
    """

    @staticmethod
    def check(cfg, scene, noise_seed=3):
        def stream():
            return None if noise_seed is None else RngStream(noise_seed, "noise")

        got = synthesize_received_matrix(cfg, *scene, stream())
        ref = received_matrix_reference(cfg, *scene, stream())
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_default_cfg_paper_scale(self):
        """Paper scale (L=500, C=3000): the matrix is target taps plus
        clutter taps plus complex noise of power ``noise_power``.  Without
        the layout: ``TestReceivedCycle::test_linearity_with_shared_noise``
        and ``TestReceivedCycle::test_noise_power_level``."""
        cfg = load_config(resources.files("isacsim").joinpath("data", "default.cfg"))
        self.check(cfg, walking_scene(cfg, 3000, 1))

    @pytest.mark.parametrize("cycles", [64, 512])
    def test_desk_scale(self, desk_cfg, cycles):
        """Desk scale (L=100), the same sum as at paper scale.  Without the
        layout: ``TestReceivedCycle::test_linearity_with_shared_noise`` and
        ``TestReceivedCycle::test_noise_power_level``."""
        self.check(desk_cfg, walking_scene(desk_cfg, cycles, cycles))

    def test_clutter_free(self, desk_cfg):
        """No clutter: target taps plus noise.  Without the layout:
        ``TestReceivedCycle::test_linearity_with_shared_noise``, whose
        target-only part has no clutter."""
        self.check(desk_cfg, walking_scene(desk_cfg, 128, 4, clutter=False))

    def test_zero_noise_power(self, desk_cfg):
        """``noise_power=0`` adds no noise although a stream is given.
        Without the layout:
        ``TestReceivedCycle::test_no_noise_without_power_or_stream``."""
        cfg = replace(desk_cfg, noise_power=0.0)
        self.check(cfg, walking_scene(cfg, 128, 5))

    def test_no_noise_stream(self, desk_cfg):
        """No noise stream: the noiseless taps, whatever ``noise_power``.
        Without the layout:
        ``TestReceivedCycle::test_no_noise_without_power_or_stream``."""
        self.check(desk_cfg, walking_scene(desk_cfg, 128, 6), noise_seed=None)

    def test_clutter_band_taller_than_target_band(self, desk_cfg):
        """No target taps: each clutter tap places its scaled chirp at its
        delay.  Without the layout:
        ``TestReceivedCycle::test_single_tap_places_scaled_chirp``."""
        # The clutter band is the taller one and takes the target band
        # (zero rows) in.
        C = 64
        tracks = PrimitiveTracks(
            names=(), times=np.arange(C) * desk_cfg.pri,
            positions=np.zeros((0, C, 3)), distances=np.zeros((0, C)),
            gains=np.zeros((0, C)), v_max=1.0,
            spec=MotionSpec("walking", "adult", duration=1.0),
        )
        process = ClutterProcess(ClutterConfig(), desk_cfg, RngStream(8, "clutter"), 0.99)
        self.check(desk_cfg, (tracks, np.zeros(0), process.run(C), process.delays))

    def test_tap_at_last_sample_clips_the_chirp(self, desk_cfg):
        """A tap at fast-time position L-1 is in the slot and keeps the one
        chirp sample that fits.  Without the layout:
        ``TestReceivedCycle::test_tap_at_last_sample_keeps_one_chirp_sample``."""
        # One primitive sits at fast-time position L-1 exactly, so the
        # occupied rows reach L and its chirp copy keeps one sample; a
        # second one moves across the slot.  Clutter adds shorter rows.
        L, C = desk_cfg.fast_time_len, 96
        last = (L - 1) * SPEED_OF_LIGHT / (2.0 * desk_cfg.sample_rate)
        distances = np.stack([np.full(C, last), np.linspace(2.0, 0.8 * last, C)])
        assert (2.0 * distances / SPEED_OF_LIGHT * desk_cfg.sample_rate).max() == L - 1
        tracks = PrimitiveTracks(
            names=("far", "moving"), times=np.arange(C) * desk_cfg.pri,
            positions=np.zeros((2, C, 3)), distances=distances, gains=np.ones((2, C)),
            v_max=1.0, spec=MotionSpec("walking", "adult", duration=1.0),
        )
        process = ClutterProcess(ClutterConfig(), desk_cfg, RngStream(7, "clutter"), 0.99)
        scene = (tracks, np.array([0.3, 1.1]), process.run(C), process.delays)
        self.check(desk_cfg, scene)


def occupied_rows(x):
    """Rows up to the last one holding a nonzero element."""
    nonzero = np.flatnonzero(np.any(x != 0, axis=1))
    return int(nonzero[-1]) + 1 if nonzero.size else 0


class TestBlockedPlacement:
    """Tap placement run in the smallest blocks the budget allows holds the
    bytes of the default blocks and of the references.

    With a one-byte ``_BLOCK_BYTES`` every row block holds one row and every
    column block two columns (three at an odd end: numpy sums a lone
    column pairwise, which moves the bytes of eight or more split taps).
    At one cycle the row blocks would move bytes too (numpy's complex
    product then runs down the rows, and its bytes follow the loop
    length), but the default budget lays up to 65536 rows in one block.
    """

    @staticmethod
    def blocked(monkeypatch, build):
        default = build()
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_BLOCK_BYTES", 1)
            tiny = build()
        return default, tiny

    @pytest.mark.parametrize(
        "cycles, moving, negative",
        [
            pytest.param(33, False, False, id="static-odd"),
            pytest.param(40, False, True, id="static-negative"),
            pytest.param(33, True, False, id="moving-odd"),
            pytest.param(40, True, True, id="moving-negative"),
            pytest.param(2, True, True, id="two-cycles"),
        ],
    )
    def test_place_taps_fractional(self, monkeypatch, cycles, moving, negative):
        # 30 taps on few cells put 8 or more split taps on one offset.
        L = 16
        rng = np.random.default_rng(cycles + 2 * moving + negative)
        cells = np.array([0.0, 0.3, 4.5, 4.5, 9.05, L - 1.0])
        delays = rng.choice(cells, size=(30, cycles if moving else 1))
        if moving:
            delays[::3] = rng.uniform(0.0, L - 1.0, (10, cycles))
        amps = TestPlacementBytes.draw(rng, (30, cycles), negative)
        chirp = TestPlacementBytes.draw(rng, 6)
        default, tiny = self.blocked(
            monkeypatch, lambda: place_taps_fractional(amps, delays, chirp, L))
        ref = place_taps_unique(amps, delays, chirp, L)
        assert tiny.tobytes() == default.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("clutter_cells", [
        pytest.param([0.0, 0.4, 0.4, 30.5, 61.0, 61.0], id="clutter-longer"),
        pytest.param([0.0, 0.2, 1.0, 1.0], id="clutter-shorter"),
    ])
    def test_received_matrix(self, desk_cfg, monkeypatch, clutter_cells):
        # A target moving over cells 2-12 and one standing at cell 40, with
        # static clutter taps (negative amplitudes, 12 sharing cell 1 for the
        # shorter band) whose band ends after or before the target's.
        L, C = desk_cfg.fast_time_len, 35
        cell = SPEED_OF_LIGHT / (2.0 * desk_cfg.sample_rate)
        distances = cell * np.stack([np.linspace(2.2, 12.0, C), np.full(C, 40.5)])
        tracks = PrimitiveTracks(
            names=("moving", "standing"), times=np.arange(C) * desk_cfg.pri,
            positions=np.zeros((2, C, 3)), distances=distances,
            gains=np.ones((2, C)), v_max=1.0,
            spec=MotionSpec("walking", "adult", duration=1.0),
        )
        rng = np.random.default_rng(len(clutter_cells))
        taps = np.repeat(clutter_cells, 3)
        clutter_amps = TestPlacementBytes.draw(rng, (taps.size, C), negative=True)
        scene = (tracks, np.array([0.4, 2.9]), clutter_amps, taps / desk_cfg.sample_rate)
        target_rows = occupied_rows(received_matrix_reference(
            desk_cfg, *scene[:2], None, None, None))
        clutter_rows = occupied_rows(place_taps_unique(
            clutter_amps, taps[:, None], synthesize_chirp(desk_cfg), L))
        assert (clutter_rows > target_rows) == (max(clutter_cells) > 40), (
            clutter_rows, target_rows)
        default, tiny = self.blocked(
            monkeypatch, lambda: synthesize_received_matrix(desk_cfg, *scene, None))
        ref = received_matrix_reference(desk_cfg, *scene, None)
        assert tiny.tobytes() == default.tobytes() == ref.tobytes()

    def test_received_matrix_holds_one_band(self):
        # Paper scale (L=500, C=3000) without noise, so X is the zeros the
        # taps are added to; the clutter amplitudes are passed without a
        # name, so they can go once their columns are summed.  The
        # placement may add its one tap band and a few blocks to X.
        cfg = load_config(resources.files("isacsim").joinpath("data", "default.cfg"))
        C = 3000
        tracks, phases, _, _ = walking_scene(cfg, C, 1, clutter=False)
        process = ClutterProcess(ClutterConfig(), cfg, RngStream(1, "clutter"), 0.997)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            x = synthesize_received_matrix(cfg, tracks, phases, process.run(C),
                                           process.delays, None)
            extra = tracemalloc.get_traced_memory()[1] - held
        finally:
            if not tracing:
                tracemalloc.stop()
        band = occupied_rows(x) * C * x.itemsize
        assert extra < x.nbytes + band + 4 * simulate._BLOCK_BYTES, (extra, x.nbytes, band)


class TestPipeline:
    def test_deterministic_bytes(self, desk_cfg, clutter_cfg, walking_radial):
        a = simulate_spectrogram(
            desk_cfg, walking_radial, 256, RngStream(5, "pipe"),
            clutter=clutter_cfg, rho=0.997, stft_window=64,
        )
        b = simulate_spectrogram(
            desk_cfg, walking_radial, 256, RngStream(5, "pipe"),
            clutter=clutter_cfg, rho=0.997, stft_window=64,
        )
        assert np.array_equal(a.gray, b.gray)
        assert np.array_equal(a.pmf, b.pmf)

    def test_micro_doppler_contrast(self, base_cfg, clutter_cfg, walking_radial):
        # Walking puts >10 dB more relative energy in the Doppler
        # sidebands than standing (self-normalized).
        def sideband_fraction(spec):
            energy = spec.values**2
            mask = np.abs(spec.freqs) > 12.0
            return energy[mask].sum() / energy.sum()

        walk = simulate_spectrogram(
            base_cfg, walking_radial, 2048, RngStream(7, "md"),
            clutter=clutter_cfg, rho=0.997,
        )
        standing = MotionSpec("standing", "adult", duration=2.5,
                              start_position=(1.5, 4.0, 0.0))
        still = simulate_spectrogram(
            base_cfg, standing, 2048, RngStream(8, "md"),
            clutter=clutter_cfg, rho=0.997,
        )
        ratio = sideband_fraction(walk.spectrogram) / sideband_fraction(
            still.spectrogram
        )
        assert 10.0 * np.log10(ratio) > 10.0

    def test_sensing_uncertainty(self, desk_cfg, clutter_cfg, walking_radial):
        # Different clutter seeds yield different spectrogram statistics.
        cfg = replace(desk_cfg, noise_power=0.0)
        kwargs = dict(rho=0.99, stft_window=64)
        phases = draw_primitive_phases(16, RngStream(1, "ph"))
        a = simulate_spectrogram(cfg, walking_radial, 256, RngStream(1, "u"),
                                 clutter=clutter_cfg, phases=phases, **kwargs)
        b = simulate_spectrogram(cfg, walking_radial, 256, RngStream(2, "u"),
                                 clutter=clutter_cfg, phases=phases, **kwargs)
        assert kl_divergence(a.pmf, b.pmf) > 0.0

    def test_static_scene_removed_by_cleaning(self, base_cfg, clutter_cfg):
        # Static target + frozen clutter (rho=1), no noise: the strongest-
        # component removal wipes out more than 99% of the energy.
        from isacsim.dsp import svd_denoise

        cfg = replace(base_cfg, noise_power=0.0)
        standing = MotionSpec("standing", "adult", duration=0.6,
                              start_position=(1.5, 4.0, 0.0))
        grid = np.arange(512) * cfg.pri
        tracks = synthesize_tracks(standing, clutter_cfg.radar_position, grid)
        phases = draw_primitive_phases(16, RngStream(3, "ph"))
        proc = ClutterProcess(clutter_cfg, cfg, RngStream(3, "cl"), 1.0)
        x = synthesize_received_matrix(
            cfg, tracks, phases, proc.run(512), proc.delays, None
        )
        y = svd_denoise(x, 2)
        assert np.linalg.norm(y) ** 2 <= 0.01 * np.linalg.norm(x) ** 2

    def test_motion_must_cover_dwell(self, desk_cfg, clutter_cfg):
        short = MotionSpec("walking", "adult", duration=0.1)
        with pytest.raises(ValueError, match="dwell"):
            simulate_spectrogram(desk_cfg, short, 256, RngStream(0, "x"),
                                 clutter=clutter_cfg, stft_window=64)

    def test_malformed_phases_rejected(self, desk_cfg, clutter_cfg, walking_radial):
        # One phase per primitive, 1-d and finite; a short vector must not
        # broadcast one phase over all sixteen primitives.
        bad = {
            "expected 16 entries": np.zeros(1),
            "1-d": np.zeros((16, 1)),
            "non-finite": np.full(16, np.nan),
        }
        for message, phases in bad.items():
            with pytest.raises(ValueError, match=f"phases: .*{message}"):
                simulate_spectrogram(desk_cfg, walking_radial, 128,
                                     RngStream(0, "x"), clutter=clutter_cfg,
                                     stft_window=64, phases=phases)

    def test_raising_sample_joins_the_noise_helper(self, base_cfg, clutter_cfg,
                                                   walking_radial):
        # The noise helper starts before the scene is built; a sample that
        # raises keeps its message and leaves no thread drawing noise.
        cycles = 1024
        assert base_cfg.fast_time_len * cycles >= simulate._HELPER_MIN_SIZE
        far = MotionSpec("walking", "adult", duration=1.1,
                         start_position=(4.0e4, 4.0, 0.0), heading=(-1.0, 0.0))
        cases = [
            ("phases: .*expected 16 entries", walking_radial, np.zeros(1)),
            ("phases: .*non-finite", walking_radial, np.full(16, np.nan)),
            ("unambiguous range", far, None),
        ]
        before = threading.active_count()
        for message, motion, phases in cases:
            with pytest.raises(ValueError, match=message):
                simulate_spectrogram(base_cfg, motion, cycles, RngStream(0, "x"),
                                     clutter=clutter_cfg, phases=phases)
            assert threading.active_count() == before

    def test_noise_draw_error_reaches_the_caller(self, base_cfg, clutter_cfg,
                                                  walking_radial):
        # A draw that raises on the helper thread re-raises on the calling
        # thread with its message, and the helper is joined.
        cycles = 1024
        assert base_cfg.fast_time_len * cycles >= simulate._HELPER_MIN_SIZE
        drawn_on = []

        class FailingNoise(RngStream):
            def spawn(self, label):
                child = super().spawn(label)
                if label == "noise":
                    def normal(*args, **kwargs):
                        drawn_on.append(threading.current_thread().name)
                        raise RuntimeError("noise source failed")
                    child.normal = normal
                return child

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^noise source failed$"):
            simulate_spectrogram(base_cfg, walking_radial, cycles, FailingNoise(0, "x"),
                                 clutter=clutter_cfg)
        assert drawn_on == ["isacsim-noise_0"]
        assert threading.active_count() == before

    def test_cleaning_holds_no_second_received_matrix(self, base_cfg, clutter_cfg,
                                                      monkeypatch):
        # Criterion-6 shape (L=200, C=1024): the sweep_len = L/2 rows the
        # dechirp reads are half of X, so a second L x C array in the
        # cleaning step exceeds three quarters of X.
        cfg = replace(base_cfg, slot_time=2.0e-5)
        cycles = 1024
        motion = MotionSpec("walking", "adult", duration=cycles * cfg.pri,
                            start_position=(1.5, 3.8, 0.0), heading=(0.0, -1.0))
        clean = simulate.svd_denoise
        seen = []

        def spy(x, r, **kwargs):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            y = clean(x, r, **kwargs)
            seen.append((len(y), tracemalloc.get_traced_memory()[1] - held, x.nbytes))
            return y

        monkeypatch.setattr(simulate, "svd_denoise", spy)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            simulate_spectrogram(cfg, motion, cycles, RngStream(9, "mem"),
                                 clutter=ClutterConfig(rays_per_cluster=12))
        finally:
            if not tracing:
                tracemalloc.stop()
        [(rows, extra, x_bytes)] = seen
        assert rows == cfg.sweep_len
        assert extra < 0.75 * x_bytes, (extra, x_bytes)

    def test_received_matrix_freed_before_the_dechirp(self, monkeypatch):
        # Paper scale (L=500, C=3000): X and the noise call that returned it
        # are both dropped once X is cleaned, so the dechirp starts with
        # less than one X held above the sample's start.
        cfg = load_config(resources.files("isacsim").joinpath("data", "default.cfg"))
        C = 3000
        motion = MotionSpec("walking", "adult", duration=C * cfg.pri,
                            start_position=(3.0, 4.2, 0.0), heading=(-1.0, 0.0))
        dechirp = simulate.dechirp_and_collapse
        held = []

        def spy(y, chirp):
            held.append(tracemalloc.get_traced_memory()[0])
            return dechirp(y, chirp)

        monkeypatch.setattr(simulate, "dechirp_and_collapse", spy)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            simulate_spectrogram(cfg, motion, C, RngStream(1, "release"),
                                 clutter=ClutterConfig(), rho=0.997)
        finally:
            if not tracing:
                tracemalloc.stop()
        x_bytes = cfg.fast_time_len * C * np.dtype(complex).itemsize
        [at_dechirp] = held
        assert at_dechirp - start < x_bytes, (at_dechirp - start, x_bytes)

    def test_no_helper_without_noise_or_below_its_size(self, base_cfg, desk_cfg,
                                                       clutter_cfg, walking_radial,
                                                       monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a noise helper was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        # Positive control: a noisy sample of the helper's size starts one.
        assert base_cfg.fast_time_len * 1024 >= simulate._HELPER_MIN_SIZE
        with pytest.raises(AssertionError, match="^a noise helper was started$"):
            simulate_spectrogram(base_cfg, walking_radial, 1024, RngStream(0, "x"),
                                 clutter=clutter_cfg)
        quiet = replace(base_cfg, noise_power=0.0)
        simulate_spectrogram(quiet, walking_radial, 1024, RngStream(0, "x"),
                             clutter=clutter_cfg)
        tracks, phases, amps, delays = walking_scene(base_cfg, 1024, 0)
        synthesize_received_matrix(base_cfg, tracks, phases, amps, delays, None)
        assert desk_cfg.fast_time_len * 512 < simulate._HELPER_MIN_SIZE
        simulate_spectrogram(desk_cfg, walking_radial, 512, RngStream(0, "x"),
                             clutter=clutter_cfg, stft_window=64)

    def test_cycles_below_window_rejected(self, desk_cfg, clutter_cfg, walking_radial):
        with pytest.raises(ValueError, match="window"):
            simulate_spectrogram(desk_cfg, walking_radial, 64,
                                 RngStream(0, "x"), clutter=clutter_cfg,
                                 stft_window=128)

    def test_doppler_ridge_end_to_end(self, base_cfg):
        # Acceptance-style oracle: one primitive receding at 1 m/s shows a
        # ridge within one bin of 2 v f_c / c = 23.33 Hz.
        from isacsim.dsp import dechirp_and_collapse, stft, svd_denoise
        from isacsim.kinematics import PrimitiveTracks

        cfg = replace(base_cfg, noise_power=0.0)
        C = 1024
        t = np.arange(C) * cfg.pri
        d = 3.0 + 1.0 * t
        spec_motion = MotionSpec("walking", "adult", duration=2.0)
        tracks = PrimitiveTracks(
            names=("pt",), times=t, positions=np.zeros((1, C, 3)),
            distances=d[None, :], gains=np.ones((1, C)), v_max=1.0,
            spec=spec_motion,
        )
        x = synthesize_received_matrix(cfg, tracks, np.zeros(1), None, None, None)
        y = svd_denoise(x, 1)
        slow = dechirp_and_collapse(y, synthesize_chirp(cfg))
        spec = stft(slow, cfg.pri, 128)
        ridge = spec.freqs[np.argmax(spec.values, axis=0)]
        expected = 2.0 * 1.0 * cfg.carrier_freq / SPEED_OF_LIGHT
        assert np.all(np.abs(ridge - expected) <= spec.freq_resolution + 1e-9)
