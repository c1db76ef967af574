import math
from dataclasses import replace

import numpy as np
import pytest

from isacsim import dsp, simulate
from isacsim import (
    ClutterConfig,
    MotionSpec,
    RngStream,
    SystemConfig,
    dechirp,
    dechirp_and_collapse,
    generate_dataset,
    gray_pmf,
    read_pgm,
    simulate_spectrogram,
    stft,
    svd_denoise,
    synthesize_chirp,
    to_gray,
    to_gray_and_pmf,
    write_pgm,
)


def _full_svd_denoise(x, r, rows=None):
    """Reference clutter removal: subtract the top r-1 terms of a full SVD."""
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    k = r - 1
    return (x - (u[:, :k] * s[:k]) @ vh[:k])[:rows]


def _subspace_reference(x, r):
    """Reference: the subspace-iteration removal drawing and factoring its
    start block on every call (None where it would fall back)."""
    wide = x.shape[0] <= x.shape[1]
    a, k = (x if wide else x.T), r - 1
    m = a.shape[0]
    q = np.random.default_rng(0).standard_normal((m, min(m, k + 4)))
    for _ in range(32):
        q, _ = np.linalg.qr(q)
        z = (q.conj().T @ a).conj().T
        theta, w = np.linalg.eigh(z.conj().T @ z)
        theta, w = theta[::-1], w[:, ::-1]
        u = q @ w
        q = a @ (z @ w)
        gap = theta[k - 1] - (theta[k] if k < theta.size else 0.0)
        resid = np.linalg.norm(q[:, :k] - u[:, :k] * theta[:k], axis=0)
        if np.all(resid <= 1e-13 * gap):
            top = u[:, :k]
            removed = top @ (top.conj().T @ x) if wide else (x @ top.conj()) @ top.T
            return x - removed
    return None


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _graded(shape, seed):
    """Complex matrix with singular values graded from 1 down to 1e-15."""
    rng = np.random.default_rng(seed)
    n = min(shape)
    u, _ = np.linalg.qr(_complex_normal(rng, (shape[0], n)))
    v, _ = np.linalg.qr(_complex_normal(rng, (shape[1], n)))
    return (u * np.logspace(0, -15, n)) @ v.conj().T


@pytest.fixture
def oversampled_cfg():
    """f_s = 4B so instantaneous-frequency estimates are unambiguous."""
    return SystemConfig(
        carrier_freq=3.5e9, bandwidth=1e7, sample_rate=4e7,
        sweep_time=1e-5, slot_time=2e-5, pri=1e-3,
    )


class TestChirp:
    def test_cached_read_only(self, base_cfg):
        s = synthesize_chirp(base_cfg)
        t = np.arange(base_cfg.sweep_len) / base_cfg.sample_rate
        slope = base_cfg.bandwidth / base_cfg.sweep_time
        phase = 2.0 * math.pi * (-0.5 * base_cfg.bandwidth * t + 0.5 * slope * t**2)
        assert s.tobytes() == (math.sqrt(base_cfg.tx_power) * np.exp(1j * phase)).tobytes()
        assert synthesize_chirp(replace(base_cfg)) is s
        with pytest.raises(ValueError, match="read-only"):
            s[0] = 0.0

    def test_constant_envelope(self, base_cfg):
        s = synthesize_chirp(base_cfg)
        assert np.allclose(np.abs(s) ** 2, base_cfg.tx_power, rtol=1e-12)
        assert s.size == base_cfg.sweep_len

    def test_instantaneous_frequency_sweep(self, oversampled_cfg):
        # Phase-difference oracle: frequency between samples k and k+1
        # equals the chirp law evaluated at the midpoint.
        cfg = oversampled_cfg
        s = synthesize_chirp(cfg)
        inst = np.diff(np.unwrap(np.angle(s))) / (2 * math.pi) * cfg.sample_rate
        t_mid = (np.arange(inst.size) + 0.5) / cfg.sample_rate
        law = -cfg.bandwidth / 2 + cfg.bandwidth / cfg.sweep_time * t_mid
        assert np.allclose(inst, law, atol=1.0)
        # Endpoints reach -B/2 and +B/2 to within one sample of sweep.
        step = cfg.bandwidth / cfg.sweep_time / cfg.sample_rate
        assert abs(inst[0] - (-cfg.bandwidth / 2)) <= step
        assert abs(inst[-1] - cfg.bandwidth / 2) <= 2 * step

    def test_autocorrelation_first_null(self, oversampled_cfg):
        # Matched-filter width oracle: first null near lag 1/B.
        cfg = oversampled_cfg
        s = synthesize_chirp(cfg)
        lags = np.arange(0, 12)
        ac = np.array([np.abs(np.vdot(s[: s.size - k], s[k:])) for k in lags])
        assert np.argmax(ac) == 0
        null_lag = int(np.argmin(ac[1:]) + 1)
        expected = cfg.sample_rate / cfg.bandwidth  # samples per 1/B
        assert abs(null_lag - expected) <= 1.0


class TestSvdDenoise:
    def test_r1_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 30)) + 1j * rng.normal(size=(20, 30))
        assert np.array_equal(svd_denoise(x, 1), x)

    def test_rank_one_removed_entirely(self):
        u = np.linspace(1, 2, 15)[:, None]
        v = np.exp(1j * np.linspace(0, 3, 25))[None, :]
        x = u * v
        y = svd_denoise(x, 2)
        assert np.linalg.norm(y) <= 1e-12 * np.linalg.norm(x)

    def test_static_column_suppressed(self):
        # Static clutter (constant column) plus a weak moving tone: the
        # static component must drop below 1% of its original energy.
        n, c = 64, 256
        static = 10.0 * np.ones((n, 1)) * np.exp(1j * 0.3) * np.ones((1, c))
        tone = 0.1 * np.outer(np.exp(1j * np.linspace(0, 5, n)),
                              np.exp(1j * 2 * math.pi * 0.11 * np.arange(c)))
        x = static + tone
        y = svd_denoise(x, 2)
        static_dir = static / np.linalg.norm(static)
        residual = np.abs(np.vdot(static_dir, y)) ** 2
        assert residual <= 0.01 * np.linalg.norm(static) ** 2

    def test_energy_monotone_in_r(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 40)) + 1j * rng.normal(size=(12, 40))
        norms = [np.linalg.norm(svd_denoise(x, r)) for r in range(1, 13)]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_reconstruction_accuracy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 80)) + 1j * rng.normal(size=(50, 80))
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        recon = (u * s) @ vh
        assert np.linalg.norm(x - recon) <= 1e-8 * np.linalg.norm(x)

    def test_r_out_of_range(self):
        x = np.outer(np.ones(5), np.ones(7)).astype(complex)
        with pytest.raises(ValueError, match="valid range"):
            svd_denoise(x, 3)  # rank 1, so r max is 2

    def test_remove_all_components(self):
        x = np.outer(np.arange(1, 6), np.ones(7)).astype(complex)
        assert np.linalg.norm(svd_denoise(x, 2)) <= 1e-12 * np.linalg.norm(x)

    def test_idempotent_edges(self):
        # Removing the top r-1 components is index-based, so re-applying
        # generally removes further components; idempotence holds exactly
        # for r=1 (identity) and once everything has been removed.
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 14)) + 1j * rng.normal(size=(10, 14))
        assert np.array_equal(svd_denoise(svd_denoise(x, 1), 1), x)
        wiped = svd_denoise(np.outer(np.ones(5), np.ones(7)).astype(complex), 2)
        assert np.linalg.norm(svd_denoise(wiped, 1)) == np.linalg.norm(wiped)


class TestSvdDenoiseGram:
    """The subspace-iteration path against the full-SVD reference and rank rules.

    The class keeps the name of the Gram/eigh path it replaced, so that
    its test ids stay comparable across versions.
    """

    @pytest.mark.parametrize("shape", [(40, 90), (90, 40)], ids=["wide", "tall"])
    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_matches_full_svd(self, shape, r):
        x = _complex_normal(np.random.default_rng(10 + r), shape)
        diff = svd_denoise(x, r) - _full_svd_denoise(x, r)
        assert np.linalg.norm(diff) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("shape", [(100, 512), (100, 64)], ids=["wide", "tall"])
    def test_matches_full_svd_on_clutter(self, shape):
        # Strong static (rank-one) term, a weak moving tone, and noise.
        n, c = shape
        rng = np.random.default_rng(11)
        static = 30.0 * np.outer(_complex_normal(rng, n), np.ones(c))
        tone = 0.5 * np.outer(np.exp(1j * np.linspace(0, 5, n)),
                              np.exp(1j * 2 * math.pi * 0.11 * np.arange(c)))
        x = static + tone + 0.05 * _complex_normal(rng, shape)
        diff = svd_denoise(x, 2) - _full_svd_denoise(x, 2)
        assert np.linalg.norm(diff) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("shape", [(100, 64), (100, 512), (40, 90), (90, 40)])
    @pytest.mark.parametrize("r", [2, 3])
    def test_removed_subspace_matches_full_svd(self, shape, r):
        # TestSvdDenoiseBytes's inputs: the removed part has rank r - 1, the
        # top r - 1 singular values, and its column space lies within
        # 1e-12 rad of the full SVD's top r - 1 left singular vectors.
        x = _graded(shape, seed=shape[1] + r)
        x += 1e-3 * _complex_normal(np.random.default_rng(r), shape)
        k = r - 1
        u, s, _ = np.linalg.svd(x, full_matrices=False)
        u_removed, s_removed, _ = np.linalg.svd(x - svd_denoise(x, r), full_matrices=False)
        assert s_removed[k] <= 1e-12 * s[0]
        assert np.allclose(s_removed[:k], s[:k], rtol=1e-12, atol=0)
        top = u[:, :k]
        outside = u_removed[:, :k] - top @ (top.conj().T @ u_removed[:, :k])
        assert np.linalg.norm(outside, 2) <= 1e-12  # sine of the largest angle

    @pytest.mark.parametrize("shape", [(12, 20), (20, 12)], ids=["wide", "tall"])
    def test_rank_decision_matches_numerical_rank(self, shape):
        x = _graded(shape, seed=12)
        rank = np.linalg.matrix_rank(x)
        assert 1 < rank < min(shape)  # the grading crosses the rank threshold
        for r in range(1, rank + 2):
            svd_denoise(x, r)
        wiped = svd_denoise(x, rank + 1)
        assert np.linalg.norm(wiped) <= 1e-12 * np.linalg.norm(x)
        with pytest.raises(ValueError, match="valid range"):
            svd_denoise(x, rank + 2)

    @pytest.mark.parametrize("r", [0, -1])
    def test_non_positive_r_rejected(self, r):
        x = _complex_normal(np.random.default_rng(13), (6, 9))
        with pytest.raises(ValueError, match=rf"^r must be >= 1, got {r}$"):
            svd_denoise(x, r)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="valid range"):
            svd_denoise(np.zeros((6, 9), complex), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        x = _complex_normal(np.random.default_rng(14), (6, 9))
        x[2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            svd_denoise(x, 2)

    @pytest.mark.parametrize("cycles,window", [(512, 64), (64, 32)], ids=["wide", "tall"])
    def test_desk_spectrogram_bytes_match_reference(
        self, monkeypatch, desk_cfg, clutter_cfg, walking_radial, cycles, window
    ):
        def run():
            return simulate_spectrogram(desk_cfg, walking_radial, cycles,
                                        RngStream(15, "gram"), clutter=clutter_cfg,
                                        rho=0.997, stft_window=window)

        gram = run()
        monkeypatch.setattr("isacsim.simulate.svd_denoise", _full_svd_denoise)
        reference = run()
        assert gram.gray.tobytes() == reference.gray.tobytes()

    @pytest.mark.parametrize("slot_time,cycles,rays", [(2.0e-5, 1024, 12), (5.0e-5, 3000, None)],
                             ids=["criterion6", "paper"])
    def test_wide_spectrogram_bytes_match_reference(self, monkeypatch, base_cfg,
                                                    slot_time, cycles, rays):
        # L=200, C=1024 as in the rho self-calibration criterion, and the
        # 500 x 3000 paper scale.
        cfg = replace(base_cfg, slot_time=slot_time)
        clutter = ClutterConfig() if rays is None else ClutterConfig(rays_per_cluster=rays)
        motion = MotionSpec("walking", "adult", duration=cycles * cfg.pri,
                            start_position=(3.0, 4.2, 0.0), heading=(-1.0, 0.0))

        def run():
            return simulate_spectrogram(cfg, motion, cycles, RngStream(16, "wide"),
                                        clutter=clutter, rho=0.997)

        fast = run()
        monkeypatch.setattr("isacsim.simulate.svd_denoise", _full_svd_denoise)
        reference = run()
        assert fast.gray.tobytes() == reference.gray.tobytes()


def _svd_spy(monkeypatch):
    """Count the calls of np.linalg.svd, which only the fallback makes."""
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


class TestSvdDenoiseBytes:
    """The cached start basis holds the bytes of a fresh draw and QR.

    These pins hold today's start block (``default_rng(0)``) and the
    iteration's order of arithmetic, so a change of either breaks them by
    design.  The invariant they stand for is that the removed part is the
    top r - 1 singular subspace of a full SVD: on these inputs
    ``TestSvdDenoiseGram::test_removed_subspace_matches_full_svd`` checks
    it within a stated angle, without the start block.
    """

    @pytest.mark.parametrize("shape", [(100, 64), (100, 512), (40, 90), (90, 40)])
    @pytest.mark.parametrize("r", [2, 3])
    def test_equal_to_fresh_start_block(self, shape, r):
        x = _graded(shape, seed=shape[1] + r)
        x += 1e-3 * _complex_normal(np.random.default_rng(r), shape)
        ref = _subspace_reference(x, r)
        assert ref is not None
        assert svd_denoise(x, r).tobytes() == ref.tobytes()

    def test_desk_sample_equal_to_fresh_start_block(self, monkeypatch, desk_cfg, clutter_cfg):
        seen = []
        monkeypatch.setattr(simulate, "svd_denoise",
                            lambda x, r, rows: seen.append(x.copy()) or svd_denoise(x, r, rows=rows))
        for cycles in (64, 256):
            motion = MotionSpec("walking", "adult", duration=cycles * desk_cfg.pri)
            simulate_spectrogram(desk_cfg, motion, cycles, RngStream(5, "svd"),
                                 clutter=clutter_cfg, stft_window=32)
        for x in seen:
            assert svd_denoise(x, 2).tobytes() == _subspace_reference(x, 2).tobytes()

    def test_start_basis_cached_read_only(self):
        q = dsp._start_basis(100, 5)
        fresh, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((100, 5)))
        assert q.tobytes() == fresh.tobytes()
        assert dsp._start_basis(100, 5) is q
        with pytest.raises(ValueError, match="read-only"):
            q[0, 0] = 1.0


class TestSvdDenoiseFallback:
    """Which inputs the subspace iteration resolves, and which go to the SVD."""

    @staticmethod
    def equal_top(shape, seed):
        # Two equal top singular values: the top-1 subspace is not defined.
        rng = np.random.default_rng(seed)
        n = min(shape)
        u, _ = np.linalg.qr(_complex_normal(rng, (shape[0], n)))
        v, _ = np.linalg.qr(_complex_normal(rng, (shape[1], n)))
        return (u * np.r_[1.0, 1.0, np.logspace(-1, -3, n - 2)]) @ v.conj().T

    @pytest.mark.parametrize("shape", [(30, 80), (80, 30)], ids=["wide", "tall"])
    @pytest.mark.parametrize("kind", ["equal_top", "noise_only"])
    def test_small_gap_takes_full_svd(self, monkeypatch, kind, shape):
        if kind == "equal_top":
            x = self.equal_top(shape, seed=17)
        else:
            x = _complex_normal(np.random.default_rng(18), shape)
        calls = _svd_spy(monkeypatch)
        y = svd_denoise(x, 2)
        assert calls == [shape]
        assert np.array_equal(y, _full_svd_denoise(x, 2))

    def test_desk_clutter_never_reaches_svd(self, monkeypatch, desk_cfg, clutter_cfg):
        calls = _svd_spy(monkeypatch)
        for cycles in (64, 512):  # tall and wide at L=100
            generate_dataset(desk_cfg, clutter_cfg, "motions3", 3, cycles, 0.997,
                             RngStream(19, f"desk{cycles}"), stft_window=32,
                             min_radial_fraction=0.7)
        assert calls == []

    @pytest.mark.parametrize("shape", [(40, 90), (90, 40)], ids=["wide", "tall"])
    def test_repeatable_and_global_rng_untouched(self, shape):
        x = _complex_normal(np.random.default_rng(20), shape)
        np.random.seed(21)
        before = np.random.get_state()
        first = svd_denoise(x, 3)
        second = svd_denoise(x, 3)
        after = np.random.get_state()
        assert first.tobytes() == second.tobytes()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]


class TestSvdDenoiseRows:
    """``rows`` returns the bytes of those rows of the whole result."""

    @staticmethod
    def no_gap(shape, seed):
        # Equal singular values: no removed direction is separated from the
        # rest, so every r >= 2 takes the full SVD.
        rng = np.random.default_rng(seed)
        n = min(shape)
        u, _ = np.linalg.qr(_complex_normal(rng, (shape[0], n)))
        v, _ = np.linalg.qr(_complex_normal(rng, (shape[1], n)))
        return u @ v.conj().T

    @pytest.mark.parametrize("kind,shape", [("subspace", (40, 90)), ("subspace", (90, 40)),
                                            ("no_gap", (30, 80))],
                             ids=["wide", "tall", "fallback"])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("rows", [1, 2, 7, "L", "L+5"])
    def test_rows_equal_the_slice(self, monkeypatch, kind, shape, r, rows):
        if kind == "no_gap":
            x = self.no_gap(shape, seed=22)
        else:
            x = _graded(shape, seed=shape[1] + r)
            x += 1e-3 * _complex_normal(np.random.default_rng(r), shape)
        m = {"L": shape[0], "L+5": shape[0] + 5}.get(rows, rows)
        calls = _svd_spy(monkeypatch)
        whole = svd_denoise(x, r)
        head = svd_denoise(x, r, rows=m)
        assert calls == ([shape] * 2 if kind == "no_gap" and r > 1 else [])
        assert head.shape == whole[:m].shape
        assert head.tobytes() == whole[:m].tobytes()


class TestDechirp:
    def test_self_dechirp_is_total_power(self, base_cfg):
        s = synthesize_chirp(base_cfg)
        y = np.tile(s[:, None], (1, 5))
        y_full = np.vstack([y, np.zeros((base_cfg.fast_time_len - s.size, 5))])
        out = dechirp_and_collapse(y_full, s)
        expected = base_cfg.tx_power * s.size
        assert np.allclose(out, expected, rtol=1e-12)
        assert np.allclose(out.imag, 0.0, atol=1e-9)

    def test_doppler_tone_preserved(self, base_cfg):
        # A tap whose phase rotates by omega per cycle collapses to a tone;
        # the outer conjugation flips its sign.
        s = synthesize_chirp(base_cfg)
        c = 512
        omega = 2 * math.pi * 40.0  # 40 Hz
        amps = np.exp(1j * omega * np.arange(c) * base_cfg.pri)
        y = s[:, None] * amps[None, :]
        y_full = np.vstack([y, np.zeros((base_cfg.fast_time_len - s.size, c))])
        out = dechirp_and_collapse(y_full, s)
        spectrum = np.abs(np.fft.fft(out))
        freqs = np.fft.fftfreq(c, d=base_cfg.pri)
        peak = freqs[np.argmax(spectrum)]
        assert peak == pytest.approx(-40.0, abs=1.0 / (c * base_cfg.pri))

    def test_zero_in_zero_out(self, base_cfg):
        s = synthesize_chirp(base_cfg)
        out = dechirp_and_collapse(np.zeros((base_cfg.fast_time_len, 7), complex), s)
        assert np.all(out == 0)

    def test_reference_longer_than_fast_time_rejected(self, base_cfg):
        s = synthesize_chirp(base_cfg)
        with pytest.raises(ValueError, match="longer"):
            dechirp(np.zeros((10, 3), complex), s)

    def test_static_tap_beat_frequency(self):
        # Beat-frequency oracle: tau * B / T_sw, via FFT of the conjugated
        # dechirped cycle.  f_s = 100 MHz puts a 3 m target at exactly two
        # fast-time samples.
        cfg = SystemConfig(carrier_freq=3.5e9, bandwidth=1e7, sample_rate=1e8,
                           sweep_time=1e-5, slot_time=1.2e-5, pri=1e-3)
        from isacsim.simulate import place_taps_fractional
        tau = 2.0 * 3.0 / 3e8
        r = place_taps_fractional(np.ones((1, 1), complex),
                                  np.array([[tau * cfg.sample_rate]]),
                                  synthesize_chirp(cfg), cfg.fast_time_len)[:, 0]
        beat = np.conj(dechirp(r[:, None], synthesize_chirp(cfg)))[:, 0]
        nfft = 1 << 17
        spectrum = np.abs(np.fft.fft(beat, nfft))
        freqs = np.fft.fftfreq(nfft, d=1 / cfg.sample_rate)
        peak = freqs[np.argmax(spectrum)]
        expected = tau * cfg.bandwidth / cfg.sweep_time  # 20 kHz
        native_bin = cfg.sample_rate / cfg.sweep_len
        assert abs(peak - expected) <= native_bin
        assert abs(peak - expected) <= 1e3  # padded-FFT localization


class TestStft:
    def test_pure_tone_ridge(self):
        pri = 1e-3
        f0 = 100.0
        y = np.exp(1j * 2 * math.pi * f0 * np.arange(2000) * pri)
        spec = stft(y, pri, window=128)
        ridge = spec.freqs[np.argmax(spec.values, axis=0)]
        assert np.all(np.abs(ridge - f0) <= spec.freq_resolution)

    def test_zero_in_zero_out(self):
        spec = stft(np.zeros(500, complex), 1e-3, window=128)
        assert np.all(spec.values == 0)

    def test_per_frame_parseval(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        w = 128
        spec = stft(y, 1e-3, window=w)
        taper = np.kaiser(w, 8.0)
        for frame in (0, 17, 500):
            lhs = np.sum(spec.values[:, frame] ** 2)
            seg = y[frame : frame + w] * taper
            rhs = w * np.sum(np.abs(seg) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("window", [32.5, np.nan, np.inf, "32"])
    def test_non_integer_window_rejected(self, window):
        with pytest.raises(ValueError, match="window must be an integer"):
            stft(np.zeros(100, complex), 1e-3, window=window)

    def test_integral_float_window_keys_the_same_taper(self):
        y = _complex_normal(np.random.default_rng(6), 100)
        assert stft(y, 1e-3, window=32.0).values.tobytes() == stft(y, 1e-3, window=32).values.tobytes()

    @pytest.mark.parametrize("window", [32, 128])
    def test_taper_cached_read_only(self, window):
        taper = dsp._kaiser_taper(window)
        assert taper.tobytes() == np.kaiser(window, dsp.DEFAULT_KAISER_BETA).tobytes()
        assert dsp._kaiser_taper(window) is taper
        with pytest.raises(ValueError, match="read-only"):
            taper[0] = 1.0

    def test_window_below_two_rejected(self):
        with pytest.raises(ValueError, match="window must be >= 2, got 1"):
            stft(np.zeros(50, complex), 1e-3, window=1)

    def test_window_longer_than_input_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            stft(np.zeros(50, complex), 1e-3, window=128)

    def test_shape_and_freq_order(self):
        spec = stft(np.zeros(300, complex), 1e-3, window=64)
        assert spec.values.shape == (64, 300 - 64 + 1)
        assert spec.freqs[0] > 0 > spec.freqs[-1]  # descending, +f/2 top
        assert spec.freqs[-1] == pytest.approx(-500.0)


class TestGrayPmf:
    def test_bins_below_two_rejected(self):
        with pytest.raises(ValueError, match="bins must be >= 2, got 1"):
            gray_pmf(np.zeros((4, 4), np.uint8), bins=1)

    def test_constant_image_point_mass(self):
        gray, pmf = to_gray_and_pmf(np.full((8, 8), 3.7), bins=64)
        assert np.all(gray == 255)
        assert pmf[-1] == 1.0
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bins_256_identity(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(0.5, 1.0, size=(32, 32))
        gray, pmf = to_gray_and_pmf(z, bins=256)
        counts = np.bincount(gray.ravel(), minlength=256)
        assert np.allclose(pmf, counts / counts.sum())

    def test_two_level_histogram(self):
        # Constructed oracle: half the pixels at peak, half 40 dB down,
        # in a 60 dB window -> gray levels 255 and 85, equal masses.
        z = np.ones((10, 10))
        z[:5] = 10.0 ** (-40.0 / 20.0)
        gray, pmf = to_gray_and_pmf(z, dynamic_range_db=60.0, bins=2)
        assert set(np.unique(gray)) == {85, 255}
        assert pmf[0] == pytest.approx(0.5)
        assert pmf[1] == pytest.approx(0.5)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            to_gray(np.zeros((4, 4)))

    def test_clipping_to_window(self):
        z = np.array([[1.0, 1e-9]])
        gray = to_gray(z, dynamic_range_db=60.0)
        assert gray[0, 0] == 255
        assert gray[0, 1] == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_magnitude_rejected(self, bad):
        z = np.ones((4, 4))
        z[1, 2] = bad
        with pytest.raises(ValueError, match="finite|non-negative"):
            to_gray(z)

    def test_in_place_steps_equal_the_expression(self):
        rng = np.random.default_rng(12)
        z = rng.uniform(0.0, 2.0, (32, 481)) ** 8
        z[3, :40] = 0.0
        for dr in (60.0, 37.5):
            with np.errstate(divide="ignore"):
                db = np.clip(20.0 * np.log10(z / z.max()), -dr, 0.0)
            ref = np.round(255.0 * (db + dr) / dr).astype(np.uint8)
            assert to_gray(z, dr).tobytes() == ref.tobytes()
            assert to_gray(z[::-1].T, dr).tobytes() == ref[::-1].T.copy().tobytes()

    @pytest.mark.parametrize("gray, cause", [
        (np.array([[0, 300]]), r"\[0, 255\]"),
        (np.array([[-1, 5]]), r"\[0, 255\]"),
        (np.array([[0.0, 12.0]]), "integers"),
        (np.array([[True, False]]), "integers"),
        ([np.zeros((2, 2), np.uint8), np.full((2, 2), 256)], r"\[0, 255\]"),
    ])
    def test_bad_gray_levels_rejected(self, gray, cause):
        with pytest.raises(ValueError, match=cause):
            gray_pmf(gray, 64)

    def test_uint8_and_in_range_ints_bin_alike(self):
        gray = np.random.default_rng(7).integers(0, 256, (32, 97), dtype=np.uint8)
        counts = np.bincount((gray.ravel().astype(np.int64) * 64) // 256, minlength=64)
        ref = counts.astype(float) / counts.sum()
        assert gray_pmf(gray, 64).tobytes() == ref.tobytes()
        assert gray_pmf(gray.astype(np.int64), 64).tobytes() == ref.tobytes()

    def test_pooled_pmf(self):
        a = np.zeros((4, 4), np.uint8)
        b = np.full((4, 4), 255, np.uint8)
        pmf = gray_pmf([a, b], bins=2)
        assert np.allclose(pmf, [0.5, 0.5])


class TestPgm:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        gray = rng.integers(0, 256, size=(48, 97), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, gray)
        again = read_pgm(path)
        assert np.array_equal(gray, again)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n97 48\n255\n")

    def test_rejects_non_uint8(self, tmp_path):
        with pytest.raises(ValueError, match="uint8"):
            write_pgm(tmp_path / "x.pgm", np.zeros((4, 4)))

    @pytest.mark.parametrize(
        "raw, cause",
        [
            (b"P6\n2 2\n255\n" + bytes(4), "not a binary PGM"),
            (b"P5\n-2 4\n255\n" + bytes(8), r"field b'-2' is not a non-negative integer"),
            (b"P5\n2 x\n255\n" + bytes(8), r"field b'x' is not a non-negative integer"),
            (b"P5\n0 4\n255\n", "size 0 x 4 is empty"),
            (b"P5\n2 4\n", "truncated PGM header"),
            (b"P5\n2 4\n# comment only\n", "truncated PGM header"),
            (b"P5\n2 4\n65535\n" + bytes(16), "unsupported maxval 65535"),
            (b"P5\n2 4\n255\n" + bytes(5), "pixel block holds 5 bytes, 2 x 4 needs 8"),
            (b"P5\n2 4\n255", "pixel block holds 0 bytes"),
        ],
    )
    def test_malformed_file_names_path_and_cause(self, tmp_path, raw, cause):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=cause) as exc:
            read_pgm(path)
        assert str(path) in str(exc.value)
