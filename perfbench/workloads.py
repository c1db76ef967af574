"""The three workloads: their inputs, one job of each, and output checks.

A job is one thing a user of the simulator runs, driven through the
package's public functions:

- spectrogram_paper: one rho calibration (``calibration.fit_rho`` over a
  three-point grid, one paper-scale spectrogram per point);
- desk_recognition: one accuracy-vs-cycles curve at desk scale;
- curves_region: one multi-start model selection on the bundled points,
  then the accuracy-rate region of every fitted family for a few user
  gain draws.

Functions are called through their module (``simulate.simulate_spectrogram``)
so that the probe and the tracer see the calls.  ``job(seed, j, ops,
check=True)`` is the reduced job whose outputs at ``DEFAULT_SEED`` are
stored under ``reference/``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from importlib import resources

import numpy as np

from isacsim import calibration, config, curvefit, recognition, simulate, tradeoff
from isacsim.channel import ClutterConfig
from isacsim.config import RngStream, SystemConfig
from isacsim.kinematics import MotionSpec

DEFAULT_SEED = 0  # seed of the stored reference outputs


def _data(name):
    return resources.files("isacsim").joinpath("data", name)


class Ops:
    """Attempted and failed operations, failure types, and latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()  # "kind:ExceptionType" -> count
        self.latency = defaultdict(list)  # kind -> [(group, seconds)]

    def count(self, kind, error=None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors[f"{kind}:{error}"] += 1

    @contextmanager
    def op(self, kind):
        """Count one operation; a failure is recorded and re-raised."""
        try:
            yield
        except Exception as exc:
            self.count(kind, type(exc).__name__)
            raise
        self.count(kind)


def _pmf_ok(pmf, bins):
    return pmf.shape == (bins,) and np.all(pmf >= 0) and abs(pmf.sum() - 1.0) < 1e-9


class SpectrogramPaper:
    """Paper-scale spectrograms (default.cfg, L=500) driven by rho calibration.

    Inputs follow ``isacsim calibrate`` with the README's walking adult:
    C=3000 cycles, STFT window 128, a fresh clutter and noise draw per
    sample.  The reference pmf is that of the warm-up sample, drawn at
    ``DEFAULT_SEED`` so set-up does the same work in every run.
    """

    name = "spectrogram_paper"
    job_s = 5.0  # nominal length of one job; sets the jobs per run
    op_kind = "spectrogram"
    latency_group = None  # all samples
    probe_target = (simulate, "simulate_spectrogram")  # the name fit_rho's callback calls
    CYCLES = 3000
    WINDOW = 128
    PMF_BINS = 64
    RHO_GRID = (0.996, 0.997, 0.998)

    def __init__(self):
        self.cfg = config.load_config(_data("default.cfg"))
        self.motion = MotionSpec(
            "walking", "adult", duration=self.CYCLES * self.cfg.pri,
            start_position=(3.0, 4.2, 0.0), heading=(-1.0, 0.0),
        )
        self.clutter = ClutterConfig()
        self.reference_pmf = None

    def _simulate(self, rho, rng):
        return simulate.simulate_spectrogram(
            self.cfg, self.motion, self.CYCLES, rng, clutter=self.clutter,
            rho=rho, stft_window=self.WINDOW, pmf_bins=self.PMF_BINS,
        )

    def warm_up(self):
        ref = self._simulate(0.997, RngStream(DEFAULT_SEED, f"{self.name}/reference"))
        self.reference_pmf = ref.pmf
        calibration.kl_divergence(ref.pmf, ref.pmf)
        return {"reference/gray": ref.gray, "reference/pmf": ref.pmf}

    def job(self, seed, j, ops, check=False):
        fit = calibration.fit_rho(
            self.reference_pmf,
            lambda rho, rng: self._simulate(rho, rng).pmf,
            self.RHO_GRID,
            RngStream(seed, f"{self.name}/job{j}"),
            samples_per_point=1,
        )
        return {"rho_star": np.array([fit.rho]), "kl": fit.kl}

    def validate(self, outputs):
        problems = []
        for name, value in outputs.items():
            if name.endswith("/gray"):
                n_frames = self.CYCLES - self.WINDOW + 1
                if value.dtype != np.uint8 or value.shape != (self.WINDOW, n_frames):
                    problems.append(f"{name}: {value.dtype} {value.shape}")
            elif name.endswith("/pmf") and not _pmf_ok(value, self.PMF_BINS):
                problems.append(f"{name}: not a {self.PMF_BINS}-bin pmf")
            elif name.endswith("/rho_star") and value[0] not in self.RHO_GRID:
                problems.append(f"{name}: {value[0]!r} not on the grid")
            elif name.endswith("/kl") and not (
                value.shape == (len(self.RHO_GRID),) and np.all(value >= 0)
                and np.all(np.isfinite(value))
            ):
                problems.append(f"{name}: {value!r}")
        return problems


class DeskRecognition:
    """Desk-scale accuracy-vs-cycles (the criterion-7 configuration, L=100).

    ``accuracy_vs_cycles`` on motions3 for C in {64, 128, 256, 512},
    STFT window 32, 50 training and 25 test samples per class, radial
    walkers only: 900 small spectrograms and four classifier fits.  The
    check job is the C=64 group of the same call, which equals the C=64
    group of the full call because each C draws from its own stream.
    """

    name = "desk_recognition"
    job_s = 25.0
    op_kind = "spectrogram"
    latency_group = 512
    probe_target = (recognition, "simulate_spectrogram")
    C_VALUES = (64, 128, 256, 512)
    WINDOW = 32
    PMF_BINS = 64
    KWARGS = dict(n_train=50, n_test=25, rho=0.997, stft_window=WINDOW,
                  min_radial_fraction=0.7)

    def __init__(self):
        self.cfg = SystemConfig(
            carrier_freq=2.4e10, bandwidth=2.0e6, sample_rate=2.0e6,
            sweep_time=1.0e-5, slot_time=5.0e-5, pri=1.0e-3,
            tx_power=1.0, noise_power=8.0e-11, total_time=1.0,
        )
        self.clutter = ClutterConfig()

    def warm_up(self):
        kwargs = dict(self.KWARGS, n_train=2, n_test=1)
        recognition.accuracy_vs_cycles(
            self.cfg, self.clutter, "motions3", self.C_VALUES[:1],
            RngStream(DEFAULT_SEED, f"{self.name}/warm-up"), **kwargs,
        )
        return {}

    def job(self, seed, j, ops, check=False):
        c_values = self.C_VALUES[:1] if check else self.C_VALUES
        points = recognition.accuracy_vs_cycles(
            self.cfg, self.clutter, "motions3", c_values,
            RngStream(seed, f"{self.name}/job{j}"), **self.KWARGS,
        )
        return {"accuracy": np.array([[p.cycles, p.accuracy, p.n_test] for p in points])}

    def validate(self, outputs):
        problems = []
        for name, value in outputs.items():
            if name.endswith("/gray"):
                if value.dtype != np.uint8 or value.ndim != 2 or value.shape[0] != self.WINDOW:
                    problems.append(f"{name}: {value.dtype} {value.shape}")
            elif name.endswith("/pmf") and not _pmf_ok(value, self.PMF_BINS):
                problems.append(f"{name}: not a {self.PMF_BINS}-bin pmf")
            elif name.endswith("/accuracy"):
                n_test = 3 * self.KWARGS["n_test"]
                if not (np.all(value[:, 1] >= 0) and np.all(value[:, 1] <= 1)
                        and np.all(value[:, 2] == n_test)
                        and tuple(value[:, 0]) == self.C_VALUES[: len(value)]):
                    problems.append(f"{name}: {value.tolist()}")
        return problems


class CurvesRegion:
    """Learning-curve fitting plus accuracy-rate region tracing.

    ``select_model`` (7 families x 64 starts) on the bundled points, with
    the multi-start seed equal to the job index: the points are fixed
    data, and one start seed takes 6.0 to 8.8 s depending on the seed,
    so drawing it from the run seed would measure the seed.  The run
    seed draws the user gains: ``region_boundary`` (300 points) and
    ``classify_zones`` run for every fitted family and every draw.
    """

    name = "curves_region"
    job_s = 9.0
    op_kind = "trace"
    latency_group = None
    probe_target = None  # traces are timed in job()
    GAINS_DRAWS = 2
    NUM_POINTS = 300

    def __init__(self):
        self.cfg = config.load_config(_data("default.cfg"))
        self.cycles, self.accuracy = recognition.accuracy_points_from_csv(
            _data("reference_accuracy_points.csv")
        )

    def warm_up(self):
        fit = curvefit.fit_curve(self.cycles, self.accuracy, "pow3", n_starts=2,
                                 seed=DEFAULT_SEED)
        gains = config.sample_user_gains(
            self.cfg, RngStream(DEFAULT_SEED, f"{self.name}/warm-up")
        )
        tradeoff.classify_zones(tradeoff.region_boundary(fit, gains, self.cfg, num_points=20))
        return {}

    def job(self, seed, j, ops, check=False):
        t0 = time.perf_counter()
        selection = curvefit.select_model(self.cycles, self.accuracy, seed=j)
        ops.latency["fit"].append((None, time.perf_counter() - t0))
        outputs = {}
        for fit in selection.fits:
            ops.count("fit")
            outputs[f"fit/{fit.family}/params"] = fit.params
            outputs[f"fit/{fit.family}/ssr"] = np.array([fit.ssr])
        for family in selection.failures:  # select_model caught the error
            ops.count("fit", "dropped_by_select_model")
        for g in range(1 if check else self.GAINS_DRAWS):
            gains = config.sample_user_gains(
                self.cfg, RngStream(seed, f"{self.name}/job{j}/gains{g}")
            )
            for fit in selection.fits:
                try:
                    with ops.op("trace"):
                        t0 = time.perf_counter()
                        boundary = tradeoff.region_boundary(
                            fit, gains, self.cfg, num_points=self.NUM_POINTS
                        )
                        tradeoff.classify_zones(boundary)
                        seconds = time.perf_counter() - t0
                except Exception:  # counted by ops.op; the job goes on
                    continue
                ops.latency["trace"].append((None, seconds))
                outputs[f"gains{g}/{fit.family}/boundary"] = boundary
        return outputs

    def validate(self, outputs):
        problems = []
        zones = {tradeoff.ZONE_COMM, tradeoff.ZONE_ADVERSARIAL, tradeoff.ZONE_SENSING}
        for name, value in outputs.items():
            if name.endswith("/params") and not np.all(np.isfinite(value)):
                problems.append(f"{name}: {value!r}")
            elif name.endswith("/ssr") and not (np.isfinite(value[0]) and value[0] >= 0):
                problems.append(f"{name}: {value!r}")
            elif name.endswith("/boundary"):  # CSV bytes: C,A,R_bps,zone
                rows = [line.split(",") for line in value.tobytes().decode().splitlines()[1:]]
                acc = np.array([float(r[1]) for r in rows])
                rate = np.array([float(r[2]) for r in rows])
                if not (2 < len(rows) <= self.NUM_POINTS and np.all(np.diff(acc) >= 0)
                        and np.all(rate >= 0) and {r[3] for r in rows} <= zones):
                    problems.append(f"{name}: malformed boundary")
        return problems


WORKLOADS = {w.name: w for w in (SpectrogramPaper, DeskRecognition, CurvesRegion)}
