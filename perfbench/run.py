"""Benchmark of the isacsim simulator: three workloads, one process each.

Run from the repository root:

    python3 perfbench/run.py --workload spectrogram_paper --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md in this directory for the workloads and the metric table.

A run: two fresh child processes each time the set-up (import, config
load, one warm-up call per layer) and exit; the run then does the same
set-up itself, times a fixed number of jobs drawn from ``--seed``, and
afterwards runs the check job at the default seed, whose outputs are
compared with the stored reference hashes.  BLAS and OpenMP are pinned
to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 150
WORKLOAD_NAMES = ("spectrogram_paper", "desk_recognition", "curves_region")

# Printed names of the per-operation latencies; see latency_lines.
LATENCY_NAMES = {"spectrogram": "spectrogram_ms", "trace": "boundary_ms", "fit": "fit_ms"}

END_TO_END = {  # name -> unit; order as printed
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "outputs_unchanged_fraction": "ratio",
    "ok_fraction": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="nominal run length; sets the number of jobs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up, print it as JSON and exit")
    p.add_argument("--record-reference", action="store_true",
                   help="store the check outputs as the new reference")
    return p.parse_args(argv)


def setup(name):
    """Import, config load and warm-up; returns (workload, outputs, seconds)."""
    t0 = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name]()
    outputs = workload.warm_up()
    return workload, outputs, time.perf_counter() - t0


def child_setup_s(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def ref_kernel_ms(reps=15):
    """Median time of a fixed numpy kernel (SVD of a 192x192 complex matrix)."""
    import numpy as np

    rng = np.random.default_rng(12345)
    x = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.linalg.svd(x)
        times.append(time.perf_counter() - t0)
    return [t * 1e3 for t in times]


def blas_threads():
    """OpenBLAS thread count read from the loaded library, or None."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def process_threads():
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def install_tracer(tracer):
    import isacsim.calibration as cal
    import isacsim.curvefit as cf
    import isacsim.recognition as rec
    import isacsim.simulate as sim
    import isacsim.tradeoff as tr

    def add(key, amount):
        tracer.counters[key] += amount

    tracer.wrap(sim, "synthesize_tracks", "kinematics.tracks")
    tracer.wrap_class(sim, "ClutterProcess", "channel.clutter")
    tracer.wrap(sim, "synthesize_received_matrix", "simulate.received_matrix",
                lambda t, a, r: add("simulate.received_matrix.bytes", r.nbytes))
    tracer.wrap(sim, "svd_denoise", "dsp.svd_denoise",
                lambda t, a, r: add("dsp.svd_denoise.bytes_in", a[0].nbytes))
    tracer.wrap(sim, "dechirp_and_collapse", "dsp.dechirp")
    tracer.wrap(sim, "stft", "dsp.stft")
    tracer.wrap(sim, "to_gray_and_pmf", "dsp.gray_pmf")
    tracer.wrap(sim, "simulate_spectrogram", "simulate.spectrogram")
    tracer.wrap(rec, "simulate_spectrogram", "simulate.spectrogram")
    tracer.wrap(cal, "fit_rho", "calibration.fit_rho")
    tracer.wrap(cal, "kl_divergence", "calibration.kl")
    tracer.wrap(rec, "accuracy_vs_cycles", "recognition.accuracy_vs_cycles")
    tracer.wrap(rec, "generate_dataset", "recognition.dataset")

    def epochs(t, a, clf):
        add("recognition.train.epochs", clf.n_epochs_)
        add("recognition.train.converged", clf.n_epochs_ < clf.max_epochs)

    tracer.wrap(rec, "train_classifier", "recognition.train", epochs)
    tracer.wrap(rec, "evaluate_accuracy", "recognition.evaluate")

    def families(t, a, selection):
        add("curvefit.families_fitted", len(selection.fits))
        add("curvefit.families_tried", len(selection.fits) + len(selection.failures))

    tracer.wrap(cf, "select_model", "curvefit.select_model", families)
    tracer.wrap(cf, "fit_curve", "curvefit.fit_curve")
    tracer.wrap(tr, "invert_curve", "curvefit.invert")
    tracer.wrap(tr, "region_boundary", "tradeoff.region")
    tracer.wrap(tr, "optimal_allocation", "tradeoff.allocation")
    tracer.wrap(tr, "classify_zones", "tradeoff.zones")
    tracer.count_warnings()


def layer_metrics(tracer, kernel_ms, span_cost_s):
    """Per-layer metrics; a layer the workload does not reach reads 0."""
    s, d, c = tracer.self_s, tracer.durations, tracer.counters

    def p50_ms(name):
        return statistics.median(d[name]) * 1e3 if d[name] else 0.0

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    fits = len(d["recognition.train"])
    c["recognition.train.fits"] = fits
    return {
        "dsp.svd_denoise.self_s": (s["dsp.svd_denoise"], "s"),
        "dsp.svd_denoise.ms_p50": (p50_ms("dsp.svd_denoise"), "ms"),
        "dsp.svd_denoise.bytes_in": (c["dsp.svd_denoise.bytes_in"], "B"),
        "dsp.dechirp.self_s": (s["dsp.dechirp"], "s"),
        "dsp.stft.self_s": (s["dsp.stft"], "s"),
        "dsp.gray_pmf.self_s": (s["dsp.gray_pmf"], "s"),
        "simulate.received_matrix.self_s": (s["simulate.received_matrix"], "s"),
        "simulate.received_matrix.bytes": (c["simulate.received_matrix.bytes"], "B"),
        "simulate.glue.self_s": (s["simulate.spectrogram"], "s"),
        "simulate.spectrogram.calls": (len(d["simulate.spectrogram"]), "count"),
        "simulate.spectrogram.ms_p50": (p50_ms("simulate.spectrogram"), "ms"),
        "kinematics.tracks.calls": (len(d["kinematics.tracks"]), "count"),
        "kinematics.tracks.self_s": (s["kinematics.tracks"], "s"),
        "channel.clutter.calls": (len(d["channel.clutter.build"]), "count"),
        "channel.clutter.self_s": (s["channel.clutter.build"] + s["channel.clutter.run"], "s"),
        "calibration.fit_rho.self_s": (s["calibration.fit_rho"], "s"),
        "calibration.kl.calls": (len(d["calibration.kl"]), "count"),
        "recognition.dataset.self_s": (s["recognition.dataset"], "s"),
        "recognition.train.self_s": (s["recognition.train"], "s"),
        "recognition.train.epochs": (ratio("recognition.train.epochs", "recognition.train.fits"), "count"),
        "recognition.train.converged_fraction": (
            ratio("recognition.train.converged", "recognition.train.fits"), "ratio"),
        "recognition.evaluate.self_s": (s["recognition.evaluate"], "s"),
        "curvefit.select_model.ms_p50": (p50_ms("curvefit.select_model"), "ms"),
        "curvefit.fit_curve.calls": (len(d["curvefit.fit_curve"]), "count"),
        "curvefit.fit_curve.ms_p50": (p50_ms("curvefit.fit_curve"), "ms"),
        "curvefit.families_fitted_fraction": (
            ratio("curvefit.families_fitted", "curvefit.families_tried"), "ratio"),
        "curvefit.runtime_warnings": (tracer.warnings["curvefit"], "count"),
        "curvefit.invert.calls": (len(d["curvefit.invert"]), "count"),
        "curvefit.invert.self_s": (s["curvefit.invert"], "s"),
        "tradeoff.region.self_s": (s["tradeoff.region"], "s"),
        "tradeoff.region.ms_p50": (p50_ms("tradeoff.region"), "ms"),
        "tradeoff.allocation.calls": (len(d["tradeoff.allocation"]), "count"),
        "tradeoff.allocation.self_s": (s["tradeoff.allocation"], "s"),
        "tradeoff.zones.self_s": (s["tradeoff.zones"], "s"),
        "host.ref_kernel_ms": (statistics.median(kernel_ms), "ms"),
        "trace.overhead_s": (len(tracer.spans) * span_cost_s, "s"),
    }


def named_outputs(prefix, outputs, samples):
    """A job's outputs and its probed spectrograms under one name prefix."""
    named = {f"{prefix}/{name}": value for name, value in outputs.items()}
    for k, (gray, pmf) in enumerate(samples):
        named[f"{prefix}/sample{k}/gray"] = gray
        named[f"{prefix}/sample{k}/pmf"] = pmf
    return named


def latency_lines(latency, workload):
    """Median latency per operation kind and, where at least ten samples
    lie beyond it, the 90th percentile.  Printed, not gated: see README."""
    for kind, records in sorted(latency.items()):
        group = workload.latency_group if kind == workload.op_kind else None
        pool = [s * 1e3 for g, s in records if group in (None, g)]
        if not pool:
            continue
        where = f" (C={group} group)" if group is not None else ""
        name = LATENCY_NAMES[kind]
        yield f"{name}_p50 {statistics.median(pool):.6g} ms over {len(pool)} samples{where}"
        if len(pool) >= 100:
            yield f"{name}_p90 {statistics.quantiles(pool, n=10)[-1]:.6g} ms"


def run(args):
    setups = [child_setup_s(args) for _ in range(SETUP_CHILDREN)]
    workload, setup_outputs, own_setup_s = setup(args.workload)
    setups.append(own_setup_s)
    # Imported after set-up, whose time includes the numpy import.
    import reference
    import tracing
    import workloads

    SCRATCH.mkdir(exist_ok=True)

    timed_ops = workloads.Ops()
    probe = tracing.SampleProbe(timed_ops, workload.op_kind)
    if workload.probe_target is not None:
        probe.install(*workload.probe_target)
    tracer = tracing.Tracer() if args.trace else None
    span_cost_s = tracing.per_span_cost_s() if tracer else 0.0

    kernel_start = ref_kernel_ms()
    if tracer:
        install_tracer(tracer)
    n_jobs = max(1, int(args.seconds // workload.job_s))
    timed = {}
    t_run = time.perf_counter()
    for j in range(n_jobs):
        try:
            with timed_ops.op("job"):
                outputs = workload.job(args.seed, j, timed_ops)
        except Exception:  # counted by Ops; the run goes on with the next job
            outputs = {}
        timed.update(named_outputs(f"job{j}", outputs, probe.take()))
    wall_s = time.perf_counter() - t_run
    if tracer:
        tracer.restore()
    kernel_end = ref_kernel_ms()

    check_ops = workloads.Ops()
    probe.ops = check_ops
    check = {f"setup/{name}": v for name, v in setup_outputs.items()}
    try:
        outputs = workload.job(workloads.DEFAULT_SEED, 0, check_ops, check=True)
    except Exception as exc:  # missing outputs then count as changed
        print(f"check job failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        outputs = {}
    check.update(named_outputs("check", outputs, probe.take()))
    probe.restore()

    timed = {name: reference.as_array(v, SCRATCH) for name, v in timed.items()}
    check = {name: reference.as_array(v, SCRATCH) for name, v in check.items()}
    problems = workload.validate(timed) + workload.validate(check)
    if args.record_reference:
        reference.record(args.workload, check)
    unchanged, total, mismatches = reference.compare(args.workload, check)

    env = environment()
    env["process_threads"] = process_threads()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"jobs {n_jobs}; setup runs {[round(x, 4) for x in setups]}")
    print(f"host.ref_kernel_ms start {statistics.median(kernel_start):.3f} "
          f"end {statistics.median(kernel_end):.3f}")
    print(f"outputs_digest {reference.digest_all({n: reference.sha256(a) for n, a in timed.items()})}")
    for line in mismatches:
        print(f"output changed: {line}")
    for line in problems:
        print(f"invalid output: {line}")
    for kind_error, n in sorted(timed_ops.errors.items()):
        print(f"failed: {kind_error} x{n}")

    for line in latency_lines(timed_ops.latency, workload):
        print(line)
    latencies = timed_ops.latency[workload.op_kind]

    correct = not problems
    if tracer:
        worst = tracer.sample_sum_errors()
        print(f"trace: {len(tracer.spans)} spans; largest sample-span sum error {worst:.3g} s; "
              f"runtime warnings by layer {dict(tracer.warnings)}")
        correct = correct and worst < 1e-6
        tracer.write(SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "env": env})
        metrics = layer_metrics(tracer, kernel_start + kernel_end, span_cost_s)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "ops_per_s": len(latencies) / sum(s for _, s in latencies) if latencies else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "outputs_unchanged_fraction": unchanged / total,
            "ok_fraction": (timed_ops.attempted - timed_ops.failed) / timed_ops.attempted,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": timed_ops.attempted,
        "failed": timed_ops.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "isacsim" / "__init__.py").is_file():
        print(f"perfbench: no isacsim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before anything imports numpy
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        *_, seconds = setup(args.workload)
        print(json.dumps({"setup_s": seconds}))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
