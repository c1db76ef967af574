"""The benchmark tracer's contract with the package.

``perfbench/run.py`` puts spans around public names looked up in the
package's modules (``tradeoff.invert_curve``, ``simulate.ClutterProcess``
and its ``run`` method, ``curvefit.fit_curve``, ...).  A source change that
removes or renames one of them breaks every ``--trace 1`` run, so
installing the tracer, calling through a wrapped class and a wrapped
function, and restoring the originals in all five patched modules must
keep working.  A region trace must still pass through the wrapped
``tradeoff`` names, ``invert_curve`` included, or its per-layer metrics
read 0.  The ``recognition.train`` hook also reads the fitted
classifier's ``n_epochs_`` and ``max_epochs``.
"""

import functools
import importlib.util
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import isacsim.calibration as calibration
import isacsim.curvefit as curvefit
import isacsim.recognition as recognition
import isacsim.simulate as simulate
import isacsim.tradeoff as tradeoff
from isacsim import ClutterConfig, MotionSpec, RngStream, generate_dataset

PATCHED = (calibration, curvefit, recognition, simulate, tradeoff)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_tracer_wraps_and_restores(desk_cfg):
    run, tracing = load("run"), load("tracing")
    before = {m: dict(vars(m)) for m in PATCHED}
    tracer = tracing.Tracer()
    try:
        run.install_tracer(tracer)
        process = simulate.ClutterProcess(
            ClutterConfig(), desk_cfg, RngStream(3, "tracer"), 0.99
        )
        process.run(2)
        curvefit.fit_curve([10.0, 20.0, 40.0], [0.5, 0.6, 0.65], "ilog2", n_starts=1)
        grays = np.zeros((4, 16, 16), np.uint8)
        grays[2:, :8] = 255  # two classes of two images each
        clf = recognition.train_classifier(recognition.LabeledDataset(
            grays, np.array([0, 0, 1, 1]), ("dark", "half"), cycles=64, seed=0
        ))
        # Negative at C=1, so the sweep's first C comes from inverting the curve.
        fit = curvefit.make_fit("pow3", (6.1906e4, 2.4297, 0.9499))
        assert curvefit.eval_curve(fit, 1.0) < 0.0
        tradeoff.classify_zones(tradeoff.region_boundary(fit, np.full(5, 1e-5), desk_cfg))
    finally:
        tracer.restore()
    assert len(tracer.durations["channel.clutter.run"]) == 1
    assert len(tracer.durations["curvefit.fit_curve"]) == 1
    # tradeoff.region.ms_p50 and curvefit.invert.calls must not read 0.
    assert len(tracer.durations["tradeoff.region"]) == 1
    assert len(tracer.durations["tradeoff.zones"]) == 1
    assert len(tracer.durations["curvefit.invert"]) >= 1
    # The train hook reads the fitted epoch count and the epoch limit.
    counters = tracer.counters
    assert counters["recognition.train.epochs"] == clf.n_epochs_ > 0
    assert counters.get("recognition.train.converged") == (clf.n_epochs_ < clf.max_epochs)
    assert all(dict(vars(m)) == names for m, names in before.items())


def test_sample_stages_traced_once_on_the_calling_thread(desk_cfg):
    # The spans assume nesting: every wrapped stage must run once, on the
    # caller's thread.
    run, tracing = load("run"), load("tracing")
    tracer = tracing.Tracer()
    threads = {}

    def on_thread(name, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            threads.setdefault(name, []).append(threading.get_ident())
            return fn(*args, **kwargs)
        return call

    stages = {"synthesize_tracks": "kinematics.tracks",
              "ClutterProcess": "channel.clutter.build",
              "synthesize_received_matrix": "simulate.received_matrix"}
    cycles = 2048
    motion = MotionSpec("walking", "adult", duration=2.1,
                        start_position=(3.0, 4.2, 0.0), heading=(-1.0, 0.0))
    try:
        run.install_tracer(tracer)
        for attr in stages:
            tracer.replace(simulate, attr, on_thread(attr, getattr(simulate, attr)))
        simulate.simulate_spectrogram(desk_cfg, motion, cycles, RngStream(2, "tracer"),
                                      clutter=ClutterConfig(), rho=0.997, stft_window=32)
    finally:
        tracer.restore()
    for attr, span in stages.items():
        assert len(tracer.durations[span]) == 1, span
        assert threads[attr] == [threading.get_ident()], attr
    assert len(tracer.durations["channel.clutter.run"]) == 1
    (sample,) = [s for s in tracer.spans if s[3] == "simulate.spectrogram"]
    parents = {s[3]: s[1] for s in tracer.spans}
    assert all(parents[span] == sample[0] for span in stages.values())


def test_blas_threads_pinned_as_in_the_benchmark():
    # conftest.py sets the benchmark's BLAS thread pin before numpy loads.
    pinned = int(os.environ["OPENBLAS_NUM_THREADS"])
    threads = load("run").blas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert threads == pinned


def test_sample_probe_records_a_one_worker_dataset_in_order(desk_cfg):
    # desk_recognition's check outputs are the probe's records in arrival
    # order, so a one-worker dataset must hand samples over in dataset order.
    tracing, workloads = load("tracing"), load("workloads")
    probe = tracing.SampleProbe(workloads.Ops(), "spectrogram")
    try:
        probe.install(recognition, "simulate_spectrogram")
        ds = generate_dataset(desk_cfg, ClutterConfig(), "motions3", 6, 128, 0.997,
                              RngStream(9, "probe"), stft_window=32, threads=1)
    finally:
        probe.restore()
    grays = [gray for gray, _ in probe.take()]
    assert len(grays) == len(ds) == 18
    assert all(np.array_equal(g, d) for g, d in zip(grays, ds.grays))
