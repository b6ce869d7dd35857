"""scripts/bench_pairs.py against a stub benchmark, in throwaway git repositories."""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

# Prints one human line and the result line for its seed from values.json
# (a row keyed "<tree> <seed>" before one keyed "<seed>"), after logging which
# tree ran which seed.
STUB = """\
import json, os, sys, time
from pathlib import Path

root = Path(__file__).resolve().parent.parent
seed = sys.argv[sys.argv.index("--seed") + 1]
with open(os.environ["STUB_LOG"], "a") as log:
    log.write(f"{root.name} {seed}\\n")
rows = json.loads((root / "values.json").read_text())
values = rows.get(f"{root.name} {seed}", rows[seed])
if values.pop("crash", False):
    sys.exit(3)
time.sleep(values.pop("sleep", 0))
correct = values.pop("correct", True)
print("stub run")
print(json.dumps({"correct": correct, "attempted": 3, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}))
"""

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "run_seconds": 1,
    "workloads": [{"name": "w1", "why": "stub"}],
    "end_to_end": [
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "success_share", "unit": "share", "better": "higher", "bound": 0.01},
    ],
}

SEEDS = [str(seed) for seed in range(11, 21)]
PARENT = {"op_p50_ms": [100, 110, 120, 130], "ops_per_s": [10, 10, 10, 10],
          "success_share": [1, 1, 1, 1]}
CHANGE = {"op_p50_ms": [105, 100, 126, 150], "ops_per_s": [10, 9, 11, 10],
          "success_share": [1, 1, 1, 1]}


def _values(columns: dict, **extra) -> str:
    """values.json for one row per column entry, seeds counting from 11."""
    rows = {seed: dict(zip(columns, values)) for seed, *values in zip(SEEDS, *columns.values())}
    for seed, flags in extra.items():
        rows[seed.lstrip("s")].update(flags)
    return json.dumps(rows)


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], check=True, capture_output=True, text=True).stdout.strip()


def _repo(tmp_path: Path, parent: str, change: str, spec: dict = SPEC) -> Path:
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    _git(repo, "init", "-q")
    (repo / "BENCHMARK.json").write_text(json.dumps(spec))
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "values.json").write_text(parent)
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "values.json").write_text(change)
    _git(repo, "commit", "-q", "-am", "change")
    return repo


def _run(tmp_path: Path, repo: Path, pairs: int = 4, *flags: str):
    (tmp_path / "tmp").mkdir(exist_ok=True)
    (tmp_path / "out").mkdir(exist_ok=True)
    env = {**os.environ, "STUB_LOG": str(tmp_path / "log"), "TMPDIR": str(tmp_path / "tmp")}
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--pairs", str(pairs), "--seed", "11",
         "--out", str(tmp_path / "out"), *flags],
        cwd=repo, env=env, capture_output=True, text=True, timeout=120)
    # The worktree is gone whatever the outcome.
    assert _git(repo, "worktree", "list", "--porcelain").count("worktree ") == 1
    assert list((tmp_path / "tmp").iterdir()) == []
    return done


def test_pairs_report_medians_ratios_and_counts(tmp_path):
    repo = _repo(tmp_path, _values(PARENT), _values(CHANGE))
    done = _run(tmp_path, repo)
    assert done.returncode == 0, done.stderr
    parent, change = _git(repo, "rev-parse", "HEAD^"), _git(repo, "rev-parse", "HEAD")
    assert done.stdout.splitlines() == [
        f"w1: 4 pairs, seeds 11-14, 1 s runs, parent {parent[:12]} vs change {change[:12]}",
        "  op_p50_ms [ms, lower is better, bound 0.25]: parent 115 (IQR 15), change 115.5, "
        "ratio 1.0500 (min 0.9091, max 1.1538), change worse in 3 and better in 1 of 4 pairs, "
        "gain not shown",
        "  ops_per_s [1/s, higher is better, bound 0.25]: parent 10 (IQR 0), change 10, "
        "ratio 1.0000 (min 0.9000, max 1.1000), change worse in 1 and better in 1 of 4 pairs, "
        "gain not shown",
        "  success_share [share, higher is better, bound 0.01]: parent 1 (IQR 0), change 1, "
        "ratio 1.0000 (min 1.0000, max 1.0000), change worse in 0 and better in 0 of 4 pairs, "
        "gain not shown",
        f"w1 history 1/1, change {change[:12]}: op_p50_ms 115.5, ops_per_s 10, success_share 1",
    ]
    # Pair i runs the parent first when i is even, the change first when odd.
    assert (tmp_path / "log").read_text().split("\n")[:-1] == [
        "parent 11", "repo 11", "repo 12", "parent 12",
        "parent 13", "repo 13", "repo 14", "parent 14"]

    history = json.loads((tmp_path / "out" / "BENCH_w1.json").read_text())
    assert len(history) == 1
    report = history[0]
    assert report["revs"] == {"parent": parent, "change": change}
    assert report["seeds"] == [11, 12, 13, 14]
    assert report["cpu_count"] == os.cpu_count()
    assert report["python"] == platform.python_version()
    assert report["workload"] == "w1" and report["seconds"] == 1.0
    runs = {(r["pair"], r["side"]): r for r in report["runs"]}
    assert len(report["runs"]) == 8
    for i in range(4):
        assert runs[i, "parent"]["position"] == i % 2
        assert runs[i, "change"]["position"] == 1 - i % 2
        for side, columns in (("parent", PARENT), ("change", CHANGE)):
            assert runs[i, side]["correct"] is True
            assert runs[i, side]["metrics"] == {name: v[i] for name, v in columns.items()}
    assert report["summary"]["op_p50_ms"] == {
        "unit": "ms", "better": "lower", "bound": 0.25, "pairs": 4,
        "parent_median": 115, "change_median": 115.5, "parent_iqr": 15.0,
        "median_ratio": 1.05, "ratio_min": 100 / 110, "ratio_max": 150 / 130,
        "worse_pairs": 3, "better_pairs": 1, "gain_shown": False, "within_bound": True}
    assert report["summary"]["ops_per_s"]["median_ratio"] == 1.0
    assert report["summary"]["ops_per_s"]["worse_pairs"] == 1

    # A second run appends its entry; the stub's runs repeat exactly, and the
    # trajectory it prints lists both entries in file order.
    again = _run(tmp_path, repo)
    assert again.returncode == 0
    assert json.loads((tmp_path / "out" / "BENCH_w1.json").read_text()) == [report, report]
    assert again.stdout.splitlines()[-2:] == [
        f"w1 history {n}/2, change {change[:12]}: op_p50_ms 115.5, ops_per_s 10, success_share 1"
        for n in (1, 2)]


# Ten pairs: a gain is shown when the change is better in at least nine of
# them and its median beats the parent's by more than the parent's IQR.
GAIN_SPEC = {**SPEC, "end_to_end": [
    {"name": name, "unit": "u", "better": better, "bound": 0.25}
    for name, better in (("all_ten", "lower"), ("nine_past_iqr", "lower"),
                         ("nine_in_iqr", "higher"), ("eight_past_iqr", "lower"),
                         ("tie", "higher"))]}
STEPS = [100, 102, 104, 106, 108, 110, 112, 114, 116, 118]  # median 109, IQR 9
GAIN_PARENT = {"all_ten": STEPS, "nine_past_iqr": STEPS,
               "nine_in_iqr": [8, 9, 10, 11, 12, 8, 9, 10, 11, 12],  # median 10, IQR 2
               "eight_past_iqr": STEPS, "tie": [1] * 10}
GAIN_CHANGE = {"all_ten": [v - 20 for v in STEPS],
               "nine_past_iqr": [v - 20 for v in STEPS[:9]] + [120],
               "nine_in_iqr": [9, 10, 11, 12, 13, 9, 10, 11, 12, 11],
               "eight_past_iqr": [v - 20 for v in STEPS[:8]] + [118, 120],
               "tie": [1] * 10}


def test_a_gain_is_shown_by_nine_tenths_of_the_pairs_and_the_parent_iqr(tmp_path):
    repo = _repo(tmp_path, _values(GAIN_PARENT), _values(GAIN_CHANGE), GAIN_SPEC)
    done = _run(tmp_path, repo, pairs=10)
    assert done.returncode == 0, done.stdout
    assert done.stdout.splitlines()[1:6] == [
        "  all_ten [u, lower is better, bound 0.25]: parent 109 (IQR 9), change 89, "
        "ratio 0.8165 (min 0.8000, max 0.8305), change worse in 0 and better in 10 of 10 pairs, "
        "gain shown",
        "  nine_past_iqr [u, lower is better, bound 0.25]: parent 109 (IQR 9), change 89, "
        "ratio 0.8165 (min 0.8000, max 1.0169), change worse in 1 and better in 9 of 10 pairs, "
        "gain shown",
        "  nine_in_iqr [u, higher is better, bound 0.25]: parent 10 (IQR 2), change 11, "
        "ratio 1.1000 (min 0.9167, max 1.1250), change worse in 1 and better in 9 of 10 pairs, "
        "gain not shown",
        "  eight_past_iqr [u, lower is better, bound 0.25]: parent 109 (IQR 9), change 89, "
        "ratio 0.8165 (min 0.8000, max 1.0172), change worse in 2 and better in 8 of 10 pairs, "
        "gain not shown",
        "  tie [u, higher is better, bound 0.25]: parent 1 (IQR 0), change 1, "
        "ratio 1.0000 (min 1.0000, max 1.0000), change worse in 0 and better in 0 of 10 pairs, "
        "gain not shown",
    ]
    (report,) = json.loads((tmp_path / "out" / "BENCH_w1.json").read_text())
    summary = report["summary"]
    assert {name: (s["better_pairs"], s["ratio_min"], s["ratio_max"], s["gain_shown"])
            for name, s in summary.items()} == {
        "all_ten": (10, 80 / 100, 98 / 118, True),
        "nine_past_iqr": (9, 80 / 100, 120 / 118, True),
        "nine_in_iqr": (9, 11 / 12, 9 / 8, False),
        "eight_past_iqr": (8, 80 / 100, 118 / 116, False),
        "tie": (0, 1.0, 1.0, False),
    }


def test_a_file_of_one_entry_is_a_history_of_one(tmp_path):
    repo = _repo(tmp_path, _values(PARENT), _values(CHANGE))
    older = {"workload": "w1", "seeds": [1], "runs": [], "summary": {}}
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "BENCH_w1.json").write_text(json.dumps(older))
    done = _run(tmp_path, repo)
    assert done.returncode == 0
    history = json.loads((tmp_path / "out" / "BENCH_w1.json").read_text())
    assert len(history) == 2 and history[0] == older
    assert history[1]["seeds"] == [11, 12, 13, 14]
    change = _git(repo, "rev-parse", "HEAD")
    assert done.stdout.splitlines()[-2:] == [
        "w1 history 1/2, change unknown: no medians",
        f"w1 history 2/2, change {change[:12]}: op_p50_ms 115.5, ops_per_s 10, success_share 1"]


@pytest.mark.parametrize("column, values, fails", [
    ("op_p50_ms", [140, 143.75, 143.75, 150], False),  # median exactly 25% above: within
    ("op_p50_ms", [140, 143.8, 143.8, 150], True),
    ("ops_per_s", [7.5, 7.5, 7.5, 7.5], False),  # exactly 25% below: within
    ("ops_per_s", [7.4, 7.4, 7.5, 7.5], True),
])
def test_a_median_past_its_bound_fails(tmp_path, column, values, fails):
    repo = _repo(tmp_path, _values(PARENT), _values({**CHANGE, column: values}))
    done = _run(tmp_path, repo)
    assert done.returncode == (1 if fails else 0), done.stdout
    failures = [line for line in done.stdout.splitlines() if line.startswith("  FAIL")]
    if fails:
        parent_median = {"op_p50_ms": "115", "ops_per_s": "10"}[column]
        assert failures == [f"  FAIL {column}: change median {(values[1] + values[2]) / 2:.6g} "
                            f"is worse than parent median {parent_median} by more than 25%"]
    else:
        assert failures == []


def test_a_run_that_is_not_correct_fails(tmp_path):
    repo = _repo(tmp_path, _values(PARENT, s13={"crash": True}),
                 _values(CHANGE, s12={"correct": False}))
    done = _run(tmp_path, repo)
    assert done.returncode == 1
    assert [line for line in done.stdout.splitlines() if line.startswith("  FAIL")] == [
        "  FAIL change run of pair 1 (seed 12) is not correct",
        "  FAIL parent run of pair 2 (seed 13) is not correct",
    ]
    # Every run still ran; only the pairs of seeds 11 and 14 are compared.
    assert len((tmp_path / "log").read_text().split("\n")[:-1]) == 8
    assert ("  op_p50_ms [ms, lower is better, bound 0.25]: parent 115 (IQR 15), change 127.5, "
            "ratio 1.1019 (min 1.0500, max 1.1538), change worse in 2 and better in 0 of 2 pairs, "
            "gain not shown") in done.stdout.splitlines()
    change = _git(repo, "rev-parse", "HEAD")
    assert done.stdout.splitlines()[-1] == (
        f"w1 history 1/1, change {change[:12]}: op_p50_ms 127.5, ops_per_s 10, success_share 1")


def test_a_tree_that_differs_from_head_is_refused(tmp_path):
    # The report names HEAD as the change, so it must be the code that runs.
    repo = _repo(tmp_path, _values(PARENT), _values(CHANGE))
    (repo / "values.json").write_text(_values(PARENT))
    env = {**os.environ, "STUB_LOG": str(tmp_path / "log")}
    done = subprocess.run([sys.executable, str(SCRIPT), "--pairs", "1", "--seed", "11"],
                          cwd=repo, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "tracked files differ from HEAD" in done.stderr
    assert not (tmp_path / "log").exists()
    assert _git(repo, "worktree", "list", "--porcelain").count("worktree ") == 1


def test_a_terminated_run_removes_the_worktree(tmp_path):
    repo = _repo(tmp_path, _values(PARENT, s11={"sleep": 60}), _values(CHANGE))
    (tmp_path / "tmp").mkdir()
    env = {**os.environ, "STUB_LOG": str(tmp_path / "log"), "TMPDIR": str(tmp_path / "tmp")}
    proc = subprocess.Popen([sys.executable, str(SCRIPT), "--pairs", "1", "--seed", "11"],
                            cwd=repo, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 30
        while not (tmp_path / "log").exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _git(repo, "worktree", "list", "--porcelain").count("worktree ") == 2
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.communicate()
    assert _git(repo, "worktree", "list", "--porcelain").count("worktree ") == 1
    assert list((tmp_path / "tmp").iterdir()) == []


def test_an_aa_set_runs_head_on_both_sides_and_later_sets_print_its_ratio_range(tmp_path):
    # The worktree side reads the rows keyed "parent <seed>", so the two sides
    # of an A/A set can read apart, as two runs of the same code do.
    rows = json.loads(_values(CHANGE))
    rows["parent 11"] = {**rows["11"], "op_p50_ms": 104}  # change / parent: 105 / 104
    rows["parent 12"] = {**rows["12"], "op_p50_ms": 101}  # 100 / 101
    rows["parent 13"] = {**rows["13"], "ops_per_s": 10}   # 11 / 10
    repo = _repo(tmp_path, _values(PARENT), json.dumps(rows))
    head = _git(repo, "rev-parse", "HEAD")

    aa = _run(tmp_path, repo, 4, "--parent", "HEAD")
    assert aa.returncode == 0, aa.stderr
    lines = aa.stdout.splitlines()
    assert lines[0] == (f"w1: 4 pairs, seeds 11-14, 1 s runs, parent {head[:12]} "
                        f"vs change {head[:12]} (A/A)")
    assert not [line for line in lines if "A/A ratios" in line]  # no earlier A/A set
    # Same alternation and seeds; the worktree side is HEAD too.
    assert (tmp_path / "log").read_text().split("\n")[:-1] == [
        "parent 11", "repo 11", "repo 12", "parent 12",
        "parent 13", "repo 13", "repo 14", "parent 14"]
    (entry,) = json.loads((tmp_path / "out" / "BENCH_w1.json").read_text())
    assert entry["aa"] is True and entry["revs"] == {"parent": head, "change": head}
    assert (entry["summary"]["op_p50_ms"]["ratio_min"],
            entry["summary"]["op_p50_ms"]["ratio_max"]) == (100 / 101, 105 / 104)

    later = _run(tmp_path, repo)
    assert later.returncode == 0, later.stderr
    history = json.loads((tmp_path / "out" / "BENCH_w1.json").read_text())
    assert [e["aa"] for e in history] == [True, False]
    assert history[1]["revs"]["parent"] == _git(repo, "rev-parse", "HEAD^")
    assert [line for line in later.stdout.splitlines() if line.startswith("    ")] == [
        f"    A/A ratios 0.9901-1.0096 over 4 pairs (change {head[:12]}), this set's "
        "0.9091-1.1538: its median ratio 1.0500 lies outside the A/A range",
        f"    A/A ratios 1.0000-1.1000 over 4 pairs (change {head[:12]}), this set's "
        "0.9000-1.1000: its median ratio 1.0000 lies inside the A/A range",
        f"    A/A ratios 1.0000-1.0000 over 4 pairs (change {head[:12]}), this set's "
        "1.0000-1.0000: its median ratio 1.0000 lies inside the A/A range",
    ]


def test_the_aa_range_comes_from_the_latest_aa_entry_of_the_same_host(tmp_path):
    past_bound = [140, 143.8, 143.8, 150]
    repo = _repo(tmp_path, _values(PARENT), _values({**CHANGE, "op_p50_ms": past_bound}))
    host = {"cpu_count": os.cpu_count(), "python": platform.python_version()}

    def entry(rev, aa, low, high, **other):
        return {"workload": "w1", "revs": {"parent": rev * 40, "change": rev * 40}, "aa": aa,
                **host, **other, "summary": {"op_p50_ms": {
                    "pairs": 10, "ratio_min": low, "ratio_max": high, "change_median": 1}}}

    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "BENCH_w1.json").write_text(json.dumps([
        entry("a", True, 0.9, 1.1),
        entry("b", True, 0.5, 2.0),                                  # the one that counts
        entry("c", True, 0.99, 1.01, cpu_count=os.cpu_count() + 1),  # another host
        entry("d", True, 0.99, 1.01, python="2.7.18"),              # another Python
        entry("e", False, 0.99, 1.01),                               # not A/A
        {"workload": "w1", "seeds": [1], "runs": [], "summary": {}},  # an older entry
    ]))
    done = _run(tmp_path, repo)
    # The change is inside the A/A range yet past its bound: it still fails.
    assert done.returncode == 1
    assert [line for line in done.stdout.splitlines() if line.startswith("    ")] == [
        "    A/A ratios 0.5000-2.0000 over 10 pairs (change bbbbbbbbbbbb), this set's "
        "1.1538-1.4000: its median ratio 1.2528 lies inside the A/A range"]
    assert "  FAIL op_p50_ms: change median 143.8 is worse than parent median 115 by more " \
           "than 25%" in done.stdout.splitlines()
