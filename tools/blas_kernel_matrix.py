"""Run the non-slow tests once per OpenBLAS kernel this host can run.

numpy's OpenBLAS is built DYNAMIC_ARCH: it picks its kernel from the CPU
unless ``OPENBLAS_CORETYPE`` names one, and a float artifact's bytes can
depend on that pick.  This script runs ``pytest -m "not slow" -q`` in a
child process for the default kernel, then for Haswell and Sandybridge
where the CPU has their instructions, setting ``OPENBLAS_CORETYPE`` in
that child's environment only; where the CPU flags cannot be read it runs
the default kernel alone.  It prints each kernel's failing test ids,
gates nothing and always exits 0.

Usage: python tools/blas_kernel_matrix.py
"""

import os
import subprocess
import sys
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


def run_tests(kernel):
    """The failing node ids and the summary line of one pytest run."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if kernel != "default":
        env["OPENBLAS_CORETYPE"] = kernel
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-m", "not slow", "-q", "-rfE",
           "-p", "no:cacheprovider"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    summary = next((line for line in reversed(lines) if line.strip()), f"exit {proc.returncode}")
    return failed, summary


def main():
    flags = cpu_flags()
    for kernel, needs in KERNELS.items():
        if needs and flags is None:
            print(f"{kernel}: skipped, the CPU flags could not be read")
            continue
        missing = sorted(set(needs) - (flags or set()))
        if missing:
            print(f"{kernel}: skipped, the CPU lacks {' '.join(missing)}")
            continue
        failed, summary = run_tests(kernel)
        print(f"{kernel}: {len(failed)} failing ({summary.strip('= ')})", flush=True)
        for node in failed:
            print(f"  {node}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
