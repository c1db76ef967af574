"""Interleaved benchmark pairs of one workload: a parent tree against a change.

Each pair runs
``python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0``
once in each source tree, in a child process whose working directory is
that tree, with the same seed S (the pair's number, from 1) on both sides;
the side that goes first alternates from pair to pair, the parent first
in pair 1.  Per end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles, the change/parent ratio of the medians and
the change's wins over the pairs, judged by the metric's ``better``
(a tie wins for neither side).  A ``verdict`` line per metric then gives
the parent's relative IQR (quartile distance over median) and the claim
rule's reading of the pairs:

- ``gain``: the change wins at least 9 in 10 pairs and its median beats
  the parent's by more than the parent's IQR;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound``, relative to the parent's median;
- ``unresolved``: the parent's relative IQR exceeds the bound, unless
  every change run beats every parent run;
- ``within bound``: none of these.

Last it lists every run whose result is not ``correct``, that has failed
operations or that printed no result.  It gates nothing and always exits
0; the trees keep their files (``run.py`` writes only its ignored
``.bench_out/``).

Usage: python tools/bench_pairs.py --parent DIR --change DIR --workload W [--pairs 10]
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 30


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict | None, str]:
    """The run's result object, or None, and a note on what went wrong."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    # Each tree imports its own package, never one named on PYTHONPATH.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"exit {proc.returncode}, no result: {tail}"
    notes = []
    if not result.get("correct"):
        notes.append("not correct")
    if result.get("failed"):
        notes.append(f"{result['failed']} of {result.get('attempted')} operations failed")
    return result, "; ".join(notes)


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and lower and upper quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def verdict(pairs: list[tuple[float, float]], wins: int, higher: bool,
            bound: float) -> tuple[float, str]:
    """The parent's relative IQR and the claim rule's verdict on the
    (parent, change) value pairs of one metric, of which the change won
    ``wins``."""
    parent, change = (list(values) for values in zip(*pairs))
    med, q1, q3 = spread(parent)
    iqr = q3 - q1
    relative_iqr = iqr / abs(med) if med else (0.0 if iqr == 0 else math.inf)
    gained = spread(change)[0] - med
    if not higher:
        gained = -gained  # > 0 when the change's median is better
    if 10 * wins >= 9 * len(pairs) and gained > iqr:
        return relative_iqr, "gain"
    if -gained > bound * abs(med):
        return relative_iqr, "worse"
    beats_all = (min(change) > max(parent)) if higher else (max(change) < min(parent))
    if relative_iqr > bound and not beats_all:
        return relative_iqr, "unresolved"
    return relative_iqr, "within bound"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = {side: [] for side in trees}  # one result per pair, None when absent
    problems = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result, note = run_once(trees[side], args.workload, pair)
            runs[side].append(result)
            shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if k in better) if result else ""
            print(f"pair {pair} seed {pair} {side}: {shown} {note}".rstrip(), flush=True)
            if note:
                problems.append(f"pair {pair} {side}: {note}")

    print(f"\n{args.workload}: {args.pairs} pairs")
    print(f"{'metric':28} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
          f" {'ratio':>8} {'wins':>6}")
    verdicts = []
    for name, direction in better.items():
        pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                 for a, b in zip(runs["parent"], runs["change"])
                 if a and b and name in a["metrics"] and name in b["metrics"]]
        if not pairs:
            continue
        sides = [spread(list(values)) for values in zip(*pairs)]
        cells = [f"{med:.6g} [{q1:.6g}, {q3:.6g}]" for med, q1, q3 in sides]
        ratio = sides[1][0] / sides[0][0] if sides[0][0] else math.nan
        wins = sum(b > a if direction == "higher" else b < a for a, b in pairs)
        print(f"{name:28} {cells[0]:>30} {cells[1]:>30} {ratio:>8.4f} {wins:>3}/{len(pairs)}")
        relative_iqr, reading = verdict(pairs, wins, direction == "higher", bounds[name])
        verdicts.append(f"verdict {name:28} {reading:<13} parent relative IQR "
                        f"{relative_iqr:.4f}, bound {bounds[name]:g}")
    if verdicts:
        print("\n" + "\n".join(verdicts))
    print("\nruns not correct, with failed operations or without a result:")
    for line in problems or ["none"]:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
