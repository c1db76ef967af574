"""One rule for every count: :func:`isacsim.validation.check_count`.

Each row of ``COUNTS`` is one public count: its parameter name, its
minimum, a value that runs, and a call that sets the count and returns
the bytes of the result.  A new count takes one row.
"""

import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from isacsim import (
    AccuracyPoint,
    ClutterConfig,
    ClutterProcess,
    MotionSpec,
    RngStream,
    accuracy_vs_cycles,
    fit_curve,
    fit_rho,
    generate_dataset,
    gray_pmf,
    make_fit,
    optimal_allocation,
    region_boundary,
    select_model,
    simulate_spectrogram,
    stft,
    svd_denoise,
)
from isacsim.channel import draw_primitive_phases
from isacsim.validation import check_count

C_POINTS = np.array([100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0])
A_POINTS = np.array([0.52, 0.61, 0.70, 0.76, 0.80, 0.82])
GAINS = np.full(5, 1e-5)
WALK = MotionSpec("walking", "adult", duration=0.3,
                  start_position=(1.5, 4.2, 0.0), heading=(0.0, -1.0))


def _noise(shape, seed):
    g = np.random.default_rng(seed)
    return g.standard_normal(shape) + 1j * g.standard_normal(shape)


def _pmf_sim(rho, rng):
    p = rng.uniform(size=8) + rho
    return p / p.sum()


def _fit_bytes(fit):
    return fit.params.tobytes() + np.float64(fit.ssr).tobytes()


def _sim(cfg, **kwargs):
    kwargs = {"cycles": 200, "stft_window": 32, **kwargs}
    result = simulate_spectrogram(cfg, WALK, rng=RngStream(1, "counts"), clutter=ClutterConfig(),
                                  **kwargs)
    return result.gray.tobytes() + result.pmf.tobytes()


def _dataset(cfg, n_per_class=1, cycles=64, threads=1):
    ds = generate_dataset(cfg, ClutterConfig(), "motions3", n_per_class, cycles, 0.997,
                          RngStream(2, "counts"), stft_window=32, threads=threads)
    return ds.grays.tobytes() + repr(ds.cycles).encode()


def _curve(cfg, c=32, n_train=2, n_test=1):
    points = accuracy_vs_cycles(cfg, ClutterConfig(), "motions3", [c], RngStream(6, "counts"),
                                n_train=n_train, n_test=n_test, stft_window=16)
    return repr([astuple(p) for p in points]).encode()


def _region(cfg, num_points):
    b = region_boundary(make_fit("pow3", (6.1906e4, 2.4297, 0.9499)), GAINS, cfg, num_points)
    return b.cycles.tobytes() + b.accuracies.tobytes() + b.rates.tobytes()


def _allocation(cfg, cycles):
    a = optimal_allocation(cycles, GAINS, cfg)
    return a.times.tobytes() + repr((a.cycles, a.rate)).encode()


def _clutter(cfg, rays=8, cycles=16):
    process = ClutterProcess(ClutterConfig(rays_per_cluster=rays), cfg, RngStream(3, "c"), 0.99)
    return process.run(cycles).tobytes()


def _system(cfg, **kwargs):
    fields = {"user_pathloss": (1e-5,) * 2, "num_users": 2, "num_targets": 1, **kwargs}
    return repr(replace(cfg, **fields)).encode()


# (parameter, minimum, a value that runs, call(cfg, value) -> bytes)
COUNTS = {
    "simulate_spectrogram.cycles": ("cycles", 1, 200, lambda cfg, v: _sim(cfg, cycles=v)),
    "simulate_spectrogram.stft_window": ("stft_window", 2, 32,
                                         lambda cfg, v: _sim(cfg, stft_window=v)),
    "simulate_spectrogram.pmf_bins": ("bins", 2, 64, lambda cfg, v: _sim(cfg, pmf_bins=v)),
    "stft.window": ("window", 2, 32,
                    lambda cfg, v: stft(_noise(100, 0), 1e-3, window=v).values.tobytes()),
    "svd_denoise.r": ("r", 1, 2, lambda cfg, v: svd_denoise(_noise((6, 9), 1), v).tobytes()),
    "svd_denoise.rows": ("rows", 1, 2,
                         lambda cfg, v: svd_denoise(_noise((6, 9), 1), 2, rows=v).tobytes()),
    "gray_pmf.bins": ("bins", 2, 64, lambda cfg, v: gray_pmf(
        np.arange(256, dtype=np.uint8).reshape(16, 16), bins=v).tobytes()),
    "fit_rho.samples_per_point": ("samples_per_point", 1, 2, lambda cfg, v: fit_rho(
        np.full(8, 0.125), _pmf_sim, [0.2, 0.8], RngStream(4, "f"),
        samples_per_point=v).kl.tobytes()),
    "generate_dataset.n_per_class": ("n_per_class", 1, 1,
                                     lambda cfg, v: _dataset(cfg, n_per_class=v)),
    "generate_dataset.cycles": ("cycles", 1, 64, lambda cfg, v: _dataset(cfg, cycles=v)),
    "generate_dataset.threads": ("threads", 1, 2, lambda cfg, v: _dataset(cfg, threads=v)),
    "accuracy_vs_cycles.c_values": ("c_values", 1, 32, lambda cfg, v: _curve(cfg, c=v)),
    "accuracy_vs_cycles.n_train": ("n_train", 2, 2, lambda cfg, v: _curve(cfg, n_train=v)),
    "accuracy_vs_cycles.n_test": ("n_test", 1, 1, lambda cfg, v: _curve(cfg, n_test=v)),
    "AccuracyPoint.cycles": ("cycles", 1, 64, lambda cfg, v: repr(
        astuple(AccuracyPoint(cycles=v, accuracy=0.5, n_test=4))).encode()),
    "AccuracyPoint.n_test": ("n_test", 1, 4, lambda cfg, v: repr(
        astuple(AccuracyPoint(cycles=64, accuracy=0.5, n_test=v))).encode()),
    "region_boundary.num_points": ("num_points", 2, 20, _region),
    "optimal_allocation.cycles": ("cycles", 0, 100, _allocation),
    "fit_curve.n_starts": ("n_starts", 0, 2, lambda cfg, v: _fit_bytes(
        fit_curve(C_POINTS, A_POINTS, "pow3", n_starts=v))),
    "SystemConfig.num_targets": ("num_targets", 1, 1,
                                 lambda cfg, v: _system(cfg, num_targets=v)),
    "SystemConfig.num_users": ("num_users", 1, 2, lambda cfg, v: _system(cfg, num_users=v)),
    "ClutterConfig.rays_per_cluster": ("rays_per_cluster", 1, 8,
                                       lambda cfg, v: _clutter(cfg, rays=v)),
    "ClutterProcess.run": ("num_cycles", 0, 16, lambda cfg, v: _clutter(cfg, cycles=v)),
    "draw_primitive_phases.num_primitives": ("num_primitives", 0, 16, lambda cfg, v:
                                             draw_primitive_phases(v, RngStream(5, "p")).tobytes()),
}


@pytest.mark.parametrize("row", COUNTS)
class TestEveryCount:
    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, "3"])
    def test_non_integer_named(self, desk_cfg, row, bad):
        name, _, _, call = COUNTS[row]
        message = f"^{name} must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(desk_cfg, bad)

    def test_below_minimum_named(self, desk_cfg, row):
        name, minimum, _, call = COUNTS[row]
        with pytest.raises(ValueError, match=f"^{name} must be >= {minimum}, got {minimum - 1}$"):
            call(desk_cfg, minimum - 1)

    def test_numpy_minimum_passes_the_count_rule(self, desk_cfg, row):
        # The call may still reject the value for another reason (cycles
        # shorter than the STFT window, no start to fit), never as a count.
        name, minimum, _, call = COUNTS[row]
        try:
            call(desk_cfg, np.int64(minimum))
        except Exception as exc:  # noqa: BLE001 - only a count error fails
            assert not str(exc).startswith(f"{name} must be "), exc

    def test_integral_forms_give_the_same_bytes(self, desk_cfg, row):
        _, _, ok, call = COUNTS[row]
        expected = call(desk_cfg, ok)
        assert call(desk_cfg, float(ok)) == expected
        assert call(desk_cfg, np.int64(ok)) == expected


def test_check_count_returns_an_int():
    for value in (3, 3.0, np.int32(3), np.float64(3.0), np.uint8(3)):
        out = check_count("n", value, 1)
        assert out == 3 and type(out) is int
    assert check_count("n", 10**400) == 10**400  # beyond any float: no round trip through one
