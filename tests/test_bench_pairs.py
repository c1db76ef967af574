"""tools/bench_pairs.py, driven against two fake trees whose run.py prints
fixed JSON."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

FAKE_RUN = '''import json, sys
from pathlib import Path

import pytest
tree = Path(__file__).resolve().parent.parent
with open(tree.parent / "calls.log", "a") as log:
    log.write(tree.name + " " + " ".join(sys.argv[1:]) + "\\n")
seed = int(sys.argv[sys.argv.index("--seed") + 1])
ops, rss, failed = {ops}, {rss}, {failed}
print("noise before the result")
print(json.dumps({{"correct": seed != {bad_seed}, "attempted": 10, "failed": failed,
                  "metrics": {{"ops_per_s": {{"value": ops + seed, "unit": "1/s"}},
                              "peak_rss_mb": {{"value": rss, "unit": "MB"}}}}}}))
'''


def fake_tree(root: Path, name: str, **values) -> Path:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(FAKE_RUN.format(**values))
    return tree


def test_pairs_alternate_and_report_medians_wins_and_bad_runs(tmp_path):
    parent = fake_tree(tmp_path, "parent", ops=10.0, rss=100.0, failed=0, bad_seed=0)
    change = fake_tree(tmp_path, "change", ops=12.0, rss=101.0, failed=1, bad_seed=2)
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
         "--workload", "desk_recognition", "--pairs", "3"],
        capture_output=True, text=True, check=True)

    # Same seed on both sides of a pair; the first side alternates.
    calls = (tmp_path / "calls.log").read_text().splitlines()
    args = "--workload desk_recognition --seed {} --seconds 30 --trace 0"
    assert calls == [
        "parent " + args.format(1), "change " + args.format(1),
        "change " + args.format(2), "parent " + args.format(2),
        "parent " + args.format(3), "change " + args.format(3),
    ]
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()
            if line.startswith(("ops_per_s", "peak_rss_mb"))}
    # ops: parent 11, 12, 13 and change 13, 14, 15; higher wins.
    assert rows["ops_per_s"] == ["ops_per_s", "12", "[11.5,", "12.5]", "14", "[13.5,", "14.5]",
                                 "1.1667", "3/3"]
    # rss: parent 100 and change 101 each time; lower wins.
    assert rows["peak_rss_mb"][-2:] == ["1.0100", "0/3"]
    # Metrics the runs did not print are left out.
    assert "wall_s" not in proc.stdout
    bad = proc.stdout.split("without a result:\n")[1].splitlines()
    assert bad == [
        "  pair 1 change: 1 of 10 operations failed",
        "  pair 2 change: not correct; 1 of 10 operations failed",
        "  pair 3 change: 1 of 10 operations failed",
    ]


def test_run_without_a_result_is_listed(tmp_path):
    parent = fake_tree(tmp_path, "parent", ops=10.0, rss=100.0, failed=0, bad_seed=0)
    change = tmp_path / "change"
    (change / "perfbench").mkdir(parents=True)
    (change / "perfbench" / "run.py").write_text("raise SystemExit('workload crashed')\n")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
         "--workload", "curves_region", "--pairs", "1"],
        capture_output=True, text=True, check=True)
    assert "  pair 1 change: exit 1, no result: workload crashed" in proc.stdout
    # No pair has both sides, so no metric row is printed.
    assert "ops_per_s " not in proc.stdout.split("pairs\n")[1]


SERIES_RUN = '''import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {{name: {{"value": values[seed - 1], "unit": "-"}}
                              for name, values in {series}.items()}}}}))
'''

# metric (better, bound): parent runs, change runs, the verdict
VERDICT_CASES = {
    # 4/4 wins, and the median gain 30 exceeds the parent's IQR 1.5
    "ops_per_s": ([100, 101, 102, 103], [130, 131, 132, 133], "gain"),
    # lower is better: the median rises 29.6%, beyond the 0.24 bound
    "wall_s": ([10.0, 10.1, 10.2, 10.3], [13.0, 13.1, 13.2, 13.3], "worse"),
    # the parent's relative IQR 0.3 exceeds the 0.25 bound, and the change
    # runs do not beat every parent run
    "setup_s": ([0.4, 1.0, 1.6, 1.0], [1.0, 1.0, 1.0, 1.0], "unresolved"),
    # relative IQR 0.4 over the 0.05 bound, but every change run beats every
    # parent run; its median gain 21 is inside the IQR 40, so no gain either
    "peak_rss_mb": ([80, 120, 80, 120], [79, 79, 79, 79], "within bound"),
    # 3 wins and a tie in 4 pairs: below 9 in 10, though the medians differ
    "outputs_unchanged_fraction": ([1, 1, 1, 1], [2, 2, 2, 1], "within bound"),
    # ties everywhere
    "ok_fraction": ([1, 1, 1, 1], [1, 1, 1, 1], "within bound"),
}


def series_tree(root: Path, name: str, side: int) -> Path:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    series = {metric: case[side] for metric, case in VERDICT_CASES.items()}
    (tree / "perfbench" / "run.py").write_text(SERIES_RUN.format(series=series))
    return tree


def test_verdict_per_metric(tmp_path):
    parent, change = series_tree(tmp_path, "parent", 0), series_tree(tmp_path, "change", 1)
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
         "--workload", "curves_region", "--pairs", "4"],
        capture_output=True, text=True, check=True)
    verdicts = {m[1]: m.groups()[1:] for m in (
        re.fullmatch(r"verdict (\S+) +(\S.*?) +parent relative IQR (\S+), bound (\S+)", line)
        for line in proc.stdout.splitlines() if line.startswith("verdict "))}
    assert {metric: v[0] for metric, v in verdicts.items()} == {
        metric: case[2] for metric, case in VERDICT_CASES.items()}
    assert verdicts["setup_s"][1:] == ("0.3000", "0.25")
    assert verdicts["ok_fraction"][1:] == ("0.0000", "0.0005")
    # The verdicts follow the table and precede the list of bad runs.
    tail = proc.stdout.split("pairs\n")[1]
    assert tail.index("ok_fraction ") < tail.index("verdict ") < tail.index("runs not correct")
