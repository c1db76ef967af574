"""Acceptance gate: one test per release criterion, at fixed tolerances.

Each test prints an explicit pass/fail line (visible with ``pytest -s``)
and asserts the criterion.  Run the whole gate with:

    pytest tests/test_acceptance.py -v -s
"""

import heapq
import json
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from isacsim import (
    ClutterConfig,
    MotionSpec,
    RngStream,
    SPEED_OF_LIGHT,
    SystemConfig,
    classify_zones,
    eval_curve,
    fit_curve,
    fit_rho,
    kl_divergence,
    make_fit,
    optimal_allocation,
    region_boundary,
    sample_user_gains,
    select_model,
    synthesize_chirp,
)
from isacsim.curvefit import FAMILIES, FAMILY_NAMES, curve_jacobian
from isacsim.dsp import dechirp, dechirp_and_collapse, stft, svd_denoise
from isacsim.kinematics import PrimitiveTracks
from isacsim.recognition import accuracy_points_from_csv, accuracy_vs_cycles
from isacsim.simulate import (
    place_taps_fractional,
    simulate_spectrogram,
    synthesize_received_matrix,
)
from isacsim.tradeoff import ZONE_ADVERSARIAL, ZONE_COMM, ZONE_SENSING, zone_bands

BENCH_POW3 = (6.1906e4, 2.4297, 0.9499)


def reference_points():
    path = Path(resources.files("isacsim").joinpath("data", "reference_accuracy_points.csv"))
    return accuracy_points_from_csv(path)


def report(criterion: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"criterion {criterion}: {status} - {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def test_criterion_1_benchmark_fit():
    """pow3 fit of the bundled points: SSR, asymptote, and top-2 rank."""
    t0 = time.time()
    cycles, acc = reference_points()
    fit = fit_curve(cycles, acc, "pow3")
    selection = select_model(cycles, acc)
    names = [f.family for f in selection.fits]
    elapsed = time.time() - t0
    ok = (
        fit.ssr <= 3.383e-4
        and 0.93 <= fit.params[2] <= 0.97
        and "pow3" in names[:2]
        and elapsed < 10.0
    )
    report(
        1,
        "pow3 fit reproduces the published benchmark",
        ok,
        f"ssr={fit.ssr:.4e}, gamma={fit.params[2]:.4f}, "
        f"rank={names.index('pow3') + 1}, {elapsed:.1f}s",
    )


def test_criterion_2_published_params_ssr():
    """Published pow3 parameters evaluate to the reported residual."""
    cycles, acc = reference_points()
    fit = make_fit("pow3", BENCH_POW3)
    resid = np.array([eval_curve(fit, c) for c in cycles]) - acc
    ssr = float(resid @ resid)
    ok = 3.0e-4 <= ssr <= 3.8e-4
    report(2, "published pow3 parameters give the reported SSR", ok,
           f"ssr={ssr:.4e}")


def test_criterion_3_allocation_oracle():
    """Closed-form allocation matches brute-force max-min scheduling."""
    t0 = time.time()
    cfg = SystemConfig(
        carrier_freq=3.5e9, bandwidth=1.0e7, sample_rate=1.0e7,
        sweep_time=1.0e-5, slot_time=5.0e-5, pri=1.0e-3,
        tx_power=1.0, noise_power=1.0e-13, total_time=1.0,
        num_targets=1, num_users=5, user_pathloss=(1.0e-5,) * 5,
    )
    gains = sample_user_gains(cfg, RngStream(42, "acceptance-gains"))
    w = cfg.bandwidth * np.log2(1 + gains * cfg.tx_power / cfg.noise_power)
    c_max = int(cfg.total_time / cfg.slot_time)
    ok = True
    detail = []
    for cycles in np.linspace(0, c_max - 1, 20).astype(int):
        alloc = optimal_allocation(int(cycles), gains, cfg)
        remaining = cfg.total_time - cfg.num_targets * cfg.slot_time * int(cycles)
        # Brute-force oracle on a 1e4-step grid: always feed the worst user.
        quantum = remaining / 10_000
        t = np.zeros(5)
        heap = [(0.0, k) for k in range(5)]
        heapq.heapify(heap)
        for _ in range(10_000):
            _, k = heapq.heappop(heap)
            t[k] += quantum
            heapq.heappush(heap, (t[k] * w[k] / cfg.total_time, k))
        oracle = heap[0][0]
        rates = alloc.times * w / cfg.total_time
        ok &= abs(alloc.rate - oracle) <= 1e-3 * oracle
        ok &= np.ptp(rates) <= 1e-12 * rates.max()
        budget = cfg.num_targets * cfg.slot_time * int(cycles) + alloc.times.sum()
        ok &= abs(budget - cfg.total_time) <= 1e-9 * cfg.total_time
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(3, "closed-form allocation matches the brute-force oracle", bool(ok),
           f"20 cycle counts, {elapsed:.1f}s")


def test_criterion_4_region_zone_structure():
    """K=5 region boundary: non-increasing rate and three ordered zones."""
    t0 = time.time()
    cfg = SystemConfig(
        carrier_freq=3.5e9, bandwidth=1.0e7, sample_rate=1.0e7,
        sweep_time=1.0e-5, slot_time=6.0e-5, pri=1.0e-3,
        tx_power=1.0, noise_power=1.0e-13, total_time=1.0,
        num_targets=1, num_users=5, user_pathloss=(1.0e-5,) * 5,
    )
    gains = sample_user_gains(cfg, RngStream(42, "acceptance-gains"))
    fit = make_fit("pow3", BENCH_POW3)
    boundary = region_boundary(fit, gains, cfg, num_points=400)
    classify_zones(boundary)
    rates = boundary.rates
    bands = [z for z, _, _ in zone_bands(boundary)]
    elapsed = time.time() - t0
    ok = (
        bool(np.all(np.diff(rates) <= 1e-12))
        and bands == [ZONE_COMM, ZONE_ADVERSARIAL, ZONE_SENSING]
        and elapsed < 10.0
    )
    report(4, "accuracy-rate boundary shows three ordered zones", ok,
           f"bands={bands}, {elapsed:.1f}s")


def test_criterion_5_doppler_end_to_end():
    """Spectrogram ridge at 2 v f_c / c and dechirp beat at tau B / T_sw."""
    t0 = time.time()
    cfg = SystemConfig(
        carrier_freq=3.5e9, bandwidth=1.0e7, sample_rate=1.0e7,
        sweep_time=1.0e-5, slot_time=5.0e-5, pri=1.0e-3,
        tx_power=1.0, noise_power=0.0, total_time=2.0,
    )
    cycles = 1024
    t = np.arange(cycles) * cfg.pri
    d = 3.0 + 1.0 * t  # receding at 1 m/s
    tracks = PrimitiveTracks(
        names=("pt",), times=t, positions=np.zeros((1, cycles, 3)),
        distances=d[None, :], gains=np.ones((1, cycles)), v_max=1.0,
        spec=MotionSpec("walking", "adult", duration=2.0),
    )
    x = synthesize_received_matrix(cfg, tracks, np.zeros(1), None, None, None)
    slow = dechirp_and_collapse(svd_denoise(x, 1), synthesize_chirp(cfg))
    spec = stft(slow, cfg.pri, 128)
    ridge = spec.freqs[np.argmax(spec.values, axis=0)]
    f_expected = 2.0 * 1.0 * cfg.carrier_freq / SPEED_OF_LIGHT  # 23.33 Hz
    ridge_ok = bool(np.all(np.abs(ridge - f_expected) <= spec.freq_resolution + 1e-9))

    beat_cfg = SystemConfig(
        carrier_freq=3.5e9, bandwidth=1.0e7, sample_rate=1.0e8,
        sweep_time=1.0e-5, slot_time=1.2e-5, pri=1.0e-3,
        tx_power=1.0, noise_power=0.0,
    )
    tau = 2.0 * 3.0 / SPEED_OF_LIGHT
    r = place_taps_fractional(
        np.ones((1, 1), complex), np.array([[tau * beat_cfg.sample_rate]]),
        synthesize_chirp(beat_cfg), beat_cfg.fast_time_len,
    )[:, 0]
    beat = np.conj(dechirp(r[:, None], synthesize_chirp(beat_cfg)))[:, 0]
    nfft = 1 << 17
    freqs = np.fft.fftfreq(nfft, d=1.0 / beat_cfg.sample_rate)
    peak = freqs[np.argmax(np.abs(np.fft.fft(beat, nfft)))]
    f_beat = tau * beat_cfg.bandwidth / beat_cfg.sweep_time  # 20 kHz
    native_bin = beat_cfg.sample_rate / beat_cfg.sweep_len
    beat_ok = abs(peak - f_beat) <= native_bin and abs(peak - f_beat) <= 1e3

    elapsed = time.time() - t0
    ok = ridge_ok and beat_ok and elapsed < 30.0
    report(5, "Doppler ridge and beat frequency land on the oracle bins", ok,
           f"ridge={np.median(ridge):.2f}Hz vs {f_expected:.2f}Hz, "
           f"beat={peak:.0f}Hz vs {f_beat:.0f}Hz, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_6_rho_self_calibration():
    """Grid search recovers the generating evolution rate in >= 9/10 trials."""
    t0 = time.time()
    cfg = SystemConfig(
        carrier_freq=3.5e9, bandwidth=1.0e7, sample_rate=1.0e7,
        sweep_time=1.0e-5, slot_time=2.0e-5, pri=1.0e-3,
        tx_power=1.0, noise_power=1.0e-13, total_time=3.0,
    )
    clutter = ClutterConfig(rays_per_cluster=12)
    cycles, window = 1024, 128
    motion = MotionSpec("walking", "adult", duration=cycles * cfg.pri,
                        start_position=(1.5, 3.8, 0.0), heading=(0.0, -1.0))
    from isacsim.channel import draw_primitive_phases

    phases = draw_primitive_phases(16, RngStream(77, "fixed-walk"))

    def sim_pmf(rho, rng):
        return simulate_spectrogram(
            cfg, motion, cycles, rng, clutter=clutter, rho=rho,
            stft_window=window, phases=phases,
        ).pmf

    grid = np.round(np.arange(0.99, 1.0001, 0.001), 3)
    hits = 0
    for trial in range(10):
        ref_rng = RngStream(500 + trial, "ref")
        ref = np.mean([sim_pmf(0.997, ref_rng.spawn(f"r{i}")) for i in range(4)],
                      axis=0)
        ref /= ref.sum()
        fit = fit_rho(ref, sim_pmf, grid, RngStream(900 + trial, "fit"),
                      samples_per_point=5)
        if abs(fit.rho - 0.997) <= 0.001 + 1e-12:
            hits += 1
    elapsed = time.time() - t0
    ok = hits >= 9 and elapsed < 300.0
    report(6, "evolution-rate self-calibration recovers 0.997", ok,
           f"{hits}/10 trials within one step, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_learning_curve_phenomenology():
    """Desk-scale recognition: accuracy high at C=512 and rising in C."""
    t0 = time.time()
    cfg = SystemConfig(
        carrier_freq=2.4e10, bandwidth=2.0e6, sample_rate=2.0e6,
        sweep_time=1.0e-5, slot_time=5.0e-5, pri=1.0e-3,
        tx_power=1.0, noise_power=8.0e-11, total_time=1.0,
    )
    clutter = ClutterConfig()
    c_values = [64, 128, 256, 512]
    acc = np.zeros((5, 4))
    for s in range(5):
        points = accuracy_vs_cycles(
            cfg, clutter, "motions3", c_values, RngStream(200 + s, "t"),
            n_train=50, n_test=25, rho=0.997, stft_window=32,
            min_radial_fraction=0.7,
        )
        acc[s] = [p.accuracy for p in points]
    mean = acc.mean(axis=0)
    elapsed = time.time() - t0
    trend_ok = all(b >= a - 0.02 for a, b in zip(mean, mean[1:]))
    ok = mean[-1] >= 0.8 and trend_ok and elapsed < 600.0
    report(7, "accuracy rises with the cycle count at desk scale", ok,
           f"mean accuracies {np.round(mean, 3).tolist()}, {elapsed:.0f}s")


def test_criterion_8_numerical_hygiene():
    """Jacobians, divergence properties, SVD accuracy, STFT Parseval."""
    ranges = {
        "vapor_pressure": ([-1.0, -200.0], [0.5, -10.0]),
        "pow3": ([10.0, 0.5, 0.7], [1e4, 2.5, 1.1]),
        "log_power": ([0.5, 1.0, -4.0], [1.0, 8.0, -0.5]),
        "exp4": ([0.1, -2.0, 0.7, 0.2], [2.0, 2.0, 1.1, 0.8]),
        "log_log_linear": ([0.1, 0.5], [0.4, 2.0]),
        "ilog2": ([0.5, 1.0], [4.0, 2.0]),
        "pow4": ([1.0, 1.0, 0.7, -1.5], [50.0, 100.0, 1.1, -0.2]),
    }
    rng = np.random.default_rng(1)
    c = np.array([30.0, 120.0, 480.0, 950.0])
    jac_ok = True
    for family in FAMILY_NAMES:
        fam = FAMILIES[family]
        lo, hi = (np.asarray(v) for v in ranges[family])
        for _ in range(100):
            p = lo + rng.uniform(size=lo.size) * (hi - lo)
            jac = curve_jacobian(family, p, c)
            fd = np.empty_like(jac)
            for j in range(fam.arity):
                h = 1e-6 * max(1.0, abs(p[j]))
                up, dn = p.copy(), p.copy()
                up[j] += h
                dn[j] -= h
                fd[:, j] = (fam.evaluate(up, c) - fam.evaluate(dn, c)) / (2 * h)
            scale = np.maximum(np.abs(jac), np.abs(fd))
            certifiable = scale > 1e-3  # below this the quotient is roundoff
            jac_ok &= bool(
                np.all(np.abs(jac - fd)[certifiable] < 1e-6 * scale[certifiable])
            )

    kl_ok = True
    for _ in range(10_000):
        k = int(rng.integers(2, 65))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        val = kl_divergence(p, q)
        kl_ok &= val >= 0.0
    kl_ok &= kl_divergence([0.25, 0.75], [0.25, 0.75]) == 0.0

    x = rng.normal(size=(60, 90)) + 1j * rng.normal(size=(60, 90))
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    svd_ok = np.linalg.norm(x - (u * s) @ vh) <= 1e-8 * np.linalg.norm(x)

    y = rng.normal(size=600) + 1j * rng.normal(size=600)
    spec = stft(y, 1e-3, window=128)
    taper = np.kaiser(128, 8.0)
    parseval_ok = True
    for frame in range(0, spec.values.shape[1], 37):
        lhs = float(np.sum(spec.values[:, frame] ** 2))
        seg = y[frame : frame + 128] * taper
        rhs = 128.0 * float(np.sum(np.abs(seg) ** 2))
        parseval_ok &= abs(lhs - rhs) <= 1e-9 * rhs

    ok = jac_ok and kl_ok and bool(svd_ok) and parseval_ok
    report(8, "numerical hygiene: Jacobians, divergence, SVD, Parseval", ok,
           f"jac={jac_ok}, kl={kl_ok}, svd={bool(svd_ok)}, parseval={parseval_ok}")


def test_criterion_9_pipeline_determinism(tmp_path):
    """The pipeline command reproduces byte-identical manifests."""
    from isacsim.cli import main

    cfg = tmp_path / "desk.cfg"
    cfg.write_text(
        "carrier_freq_hz = 3.5e9\nbandwidth_hz = 1.0e7\n"
        "sample_rate_hz = 1.0e7\nsweep_time_s = 1.0e-5\n"
        "slot_time_s = 2.0e-5\npri_s = 1.0e-3\ntx_power_w = 1.0\n"
        "noise_power_dbm = -100\nsensing_gain_db = 25\ncomm_gain_db = 0\n"
        "total_time_s = 1.0\nnum_targets = 1\nnum_users = 5\n"
        "user_pathloss_db = -50,-50,-50,-50,-50\nseed = 77\n",
        encoding="utf-8",
    )
    args = [
        "pipeline", "--config", str(cfg), "--seed", "9",
        "--classes", "motions3", "--n-train", "4", "--n-test", "2",
        "--cycles-list", "64,96", "--stft-window", "32", "--num-points", "60",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = main(args + ["--out", str(out1)])
    code2 = main(args + ["--out", str(out2)])
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    ok = code1 == 0 and code2 == 0 and m1["artifacts"] == m2["artifacts"]
    report(9, "pipeline runs are byte-reproducible", ok,
           f"{len(m1['artifacts'])} artifacts hashed")
