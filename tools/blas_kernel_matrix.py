"""Run the non-slow tests and the benchmark check jobs once per OpenBLAS
kernel this host can run.

numpy's OpenBLAS is built DYNAMIC_ARCH: it picks its kernel from the CPU
unless ``OPENBLAS_CORETYPE`` names one, and a float artifact's bytes can
depend on that pick.  For the default kernel, then for Haswell and
Sandybridge where the CPU has their instructions, this script runs
``pytest -m "not slow" -q`` and, per workload of BENCHMARK.json,
``perfbench/run.py --workload W --seed 0 --seconds 1 --trace 0``, each in
a child process with ``OPENBLAS_CORETYPE`` set in that child's
environment only; where the CPU flags cannot be read it runs the default
kernel alone.  It prints each kernel's failing test ids, each workload's
``correct`` and ``outputs_unchanged_fraction`` and the kernel's time,
gates nothing and always exits 0.

Usage: python tools/blas_kernel_matrix.py
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Each kernel with the CPU flags it needs, as /proc/cpuinfo names them.
KERNELS = {"default": (), "Haswell": ("avx2", "fma"), "Sandybridge": ("avx",)}


def cpu_flags():
    """The CPU's x86 flags, or None where /proc/cpuinfo has no flags line."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        if line.startswith("flags"):
            return set(line.partition(":")[2].split())
    return None


def child_env(kernel):
    """This process's environment with ``OPENBLAS_CORETYPE`` set to the kernel."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if kernel != "default":
        env["OPENBLAS_CORETYPE"] = kernel
    return env


def run_tests(kernel):
    """The failing node ids and the summary line of one pytest run."""
    env = child_env(kernel)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-m", "not slow", "-q", "-rfE",
           "-p", "no:cacheprovider"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    summary = next((line for line in reversed(lines) if line.strip()), f"exit {proc.returncode}")
    return failed, summary


def run_check(kernel, workload):
    """``correct`` and ``outputs_unchanged_fraction`` of one workload's check
    run, from the JSON line it prints last; a run that prints none reads
    its exit status instead."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(kernel), capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return f"no result (exit {proc.returncode})"
    unchanged = result["metrics"]["outputs_unchanged_fraction"]["value"]
    return f"correct {result['correct']}, outputs_unchanged_fraction {unchanged:.6g}"


def main():
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    flags = cpu_flags()
    for kernel, needs in KERNELS.items():
        if needs and flags is None:
            print(f"{kernel}: skipped, the CPU flags could not be read")
            continue
        missing = sorted(set(needs) - (flags or set()))
        if missing:
            print(f"{kernel}: skipped, the CPU lacks {' '.join(missing)}")
            continue
        start = time.perf_counter()
        failed, summary = run_tests(kernel)
        print(f"{kernel}: {len(failed)} failing ({summary.strip('= ')})", flush=True)
        for node in failed:
            print(f"  {node}")
        for workload in workloads:
            print(f"  {workload}: {run_check(kernel, workload)}", flush=True)
        print(f"  {time.perf_counter() - start:.0f} s in all", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
