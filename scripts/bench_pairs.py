#!/usr/bin/env python3
"""Paired benchmark runs: HEAD against a parent revision, or against itself.

    python3 scripts/bench_pairs.py --workload pipeline_http --pairs 10 \\
        --seed 501 --parent HEAD^ --out .
    python3 scripts/bench_pairs.py --workload pipeline_http --pairs 10 \\
        --seed 501 --parent HEAD --out .

Run it inside the repository, on a clean checkout: it refuses to run while
tracked files differ from HEAD, so the revision it records is the code it
measured. It checks `--parent` out with `git worktree add --detach` into a
temporary directory and runs `perfbench/run.py --trace 0` in both trees,
once per side for each pair, each run as long as BENCHMARK.json's
`run_seconds`. Pair i uses seed `--seed` + i on both sides, and runs the
parent first when i is even, the checkout first when it is odd, so a host
that drifts during the runs moves both sides alike.

For each end-to-end metric in BENCHMARK.json it prints the two medians, the
parent's interquartile range (quartiles by linear interpolation), the median,
least and greatest of the within-pair ratios (change / parent), in how many
pairs the change was worse and in how many strictly better (a tie counts for
neither), and whether a gain is shown: the change is better in at least nine
tenths of the pairs and its median beats the parent's by more than the
parent's interquartile range. These figures are over the pairs whose two runs
were correct, and the gain verdict changes no exit code. It exits 1 when a
run is not correct (its last line lacks
`"correct": true`, or it exits non-zero) or when the change's median is
worse than the parent's by more than the metric's bound, a fraction of the
parent's median. `--out DIR` appends an entry to the list in
BENCH_<workload>.json there (a file that holds one entry is read as a list
of one): every run's metrics, the seeds and order, both revisions, the CPU
count and the Python version; it then prints the file's trajectory, one
line per entry in file order: the entry's change revision and its change
medians. The worktree is removed on every exit.

`--parent HEAD` runs an A/A set: both sides run HEAD, with the
same alternation and seeds, and its entry is marked `"aa": true` (every
other entry `false`).
Its within-pair ratios show how far apart two runs of the same code read
on this host. So with `--out`, each report prints under each metric the
ratio range of the latest A/A entry in the file from a host with the same
CPU count and Python version, next to its own range, and says whether its
median ratio lies inside the A/A range. That line informs the reader only:
exit codes and bounds are as without it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `tree`: whether it was correct, and its
    end-to-end metrics by name."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        result, metrics = {}, {}
    correct = done.returncode == 0 and result.get("correct") is True
    if not correct:
        print(f"  run in {tree} not correct (exit {done.returncode}): "
              f"{done.stderr[-500:]}{done.stdout[-500:]}", file=sys.stderr)
    return {"correct": correct, "metrics": metrics}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(metric: dict, pairs: list[tuple[float, float]]) -> dict:
    """The comparison of one metric over (parent, change) value pairs."""
    lower = metric["better"] == "lower"
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    ratios = [c / p for p, c in pairs if p]
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    limit = parent_median * (1 + metric["bound"] if lower else 1 - metric["bound"])
    better = sum(c < p if lower else c > p for p, c in pairs)
    gain = parent_median - change_median if lower else change_median - parent_median
    spread = iqr(parent)
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "pairs": len(pairs),
        "parent_median": parent_median, "change_median": change_median,
        "parent_iqr": spread,
        "median_ratio": statistics.median(ratios) if ratios else None,
        "ratio_min": min(ratios, default=None), "ratio_max": max(ratios, default=None),
        "worse_pairs": sum(c > p if lower else c < p for p, c in pairs),
        "better_pairs": better,
        "gain_shown": 10 * better >= 9 * len(pairs) and gain > spread,
        "within_bound": change_median <= limit if lower else change_median >= limit,
    }


def ratio(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def compare(workload: str, args, repo: Path, parent_tree: Path, spec: dict, revs: dict) -> bool:
    """Run the pairs of one workload, print the comparison and write its
    file; True when every run was correct and every metric within bound."""
    seeds = [args.seed + i for i in range(args.pairs)]
    path = args.out / f"BENCH_{workload}.json" if args.out is not None else None
    history = json.loads(path.read_text(encoding="utf-8")) if path and path.exists() else []
    if isinstance(history, dict):
        history = [history]
    host = {"cpu_count": os.cpu_count(), "python": platform.python_version()}
    aa_set = revs["parent"] == revs["change"]
    # The latest A/A entry from a host like this one, whose ratios show the noise.
    aa = next((entry for entry in reversed(history) if entry.get("aa") is True
               and all(entry.get(key) == value for key, value in host.items())), {})
    runs = []
    for i, seed in enumerate(seeds):
        sides = [("parent", parent_tree), ("change", repo)]
        for position, (side, tree) in enumerate(sides if i % 2 == 0 else sides[::-1]):
            result = run_once(tree, workload, seed, spec["run_seconds"])
            print(f"{workload} pair {i + 1}/{len(seeds)} (seed {seed}): {side} run "
                  + ("correct" if result["correct"] else "NOT correct"), file=sys.stderr)
            runs.append({"pair": i, "seed": seed, "side": side, "position": position, **result})
    by = {(r["pair"], r["side"]): r["metrics"] for r in runs if r["correct"]}
    good = [i for i in range(len(seeds)) if (i, "parent") in by and (i, "change") in by]
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        pairs = [(by[i, "parent"][name], by[i, "change"][name])
                 for i in good if name in by[i, "parent"] and name in by[i, "change"]]
        if pairs:
            summary[name] = summarize(metric, pairs)

    failures = [f"{r['side']} run of pair {r['pair']} (seed {r['seed']}) is not correct"
                for r in runs if not r["correct"]]
    failures += [f"{name}: change median {s['change_median']:.6g} is worse than parent median "
                 f"{s['parent_median']:.6g} by more than {s['bound']:.0%}"
                 for name, s in summary.items() if not s["within_bound"]]
    print(f"{workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}, "
          f"{spec['run_seconds']:g} s runs, parent {revs['parent'][:12]} "
          f"vs change {revs['change'][:12]}" + (" (A/A)" if aa_set else ""))
    for name, s in summary.items():
        print(f"  {name} [{s['unit']}, {s['better']} is better, bound {s['bound']:g}]: "
              f"parent {s['parent_median']:.6g} (IQR {s['parent_iqr']:.6g}), "
              f"change {s['change_median']:.6g}, ratio {ratio(s['median_ratio'])} "
              f"(min {ratio(s['ratio_min'])}, max {ratio(s['ratio_max'])}), "
              f"change worse in {s['worse_pairs']} and better in {s['better_pairs']} "
              f"of {s['pairs']} pairs, gain {'shown' if s['gain_shown'] else 'not shown'}")
        same = aa.get("summary", {}).get(name, {})
        if same.get("ratio_min") is not None and s["median_ratio"] is not None:
            inside = same["ratio_min"] <= s["median_ratio"] <= same["ratio_max"]
            print(f"    A/A ratios {ratio(same['ratio_min'])}-{ratio(same['ratio_max'])} "
                  f"over {same['pairs']} pairs (change {aa['revs']['change'][:12]}), this set's "
                  f"{ratio(s['ratio_min'])}-{ratio(s['ratio_max'])}: its median ratio "
                  f"{ratio(s['median_ratio'])} lies {'inside' if inside else 'outside'} "
                  f"the A/A range")
    for failure in failures:
        print(f"  FAIL {failure}")
    if path is not None:
        report = {
            "workload": workload, "seconds": spec["run_seconds"], "seeds": seeds,
            "revs": revs, **host, "aa": aa_set, "runs": runs, "summary": summary,
        }
        history.append(report)
        path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        for n, entry in enumerate(history, 1):
            rev = entry.get("revs", {}).get("change", "unknown")[:12]
            medians = ", ".join(f"{name} {s['change_median']:.6g}"
                                for name, s in sorted(entry.get("summary", {}).items()))
            print(f"{workload} history {n}/{len(history)}, change {rev}: "
                  f"{medians or 'no medians'}")
    return not failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                 formatter_class=argparse.RawDescriptionHelpFormatter,
                                 epilog=__doc__.split("\n\n", 2)[2])
    ap.add_argument("--workload", action="append", default=None,
                    help="a workload of BENCHMARK.json (repeatable; default: all of them)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    ap.add_argument("--parent", default="HEAD^",
                    help="the revision to compare against (HEAD runs an A/A set)")
    ap.add_argument("--out", type=Path, default=None,
                    help="directory of the BENCH_<workload>.json histories")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    spec = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if git(repo, "status", "--porcelain", "--untracked-files=no"):
        ap.error("tracked files differ from HEAD; commit or stash them first")
    revs = {"parent": git(repo, "rev-parse", "--verify", f"{args.parent}^{{commit}}"),
            "change": git(repo, "rev-parse", "HEAD")}

    # SIGTERM unwinds like Ctrl-C, so the worktree is removed either way.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    parent_tree = workdir / "parent"
    try:
        git(repo, "worktree", "add", "--detach", str(parent_tree), revs["parent"])
        ok = [compare(w, args, repo, parent_tree, spec, revs) for w in workloads]
    finally:
        subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force", str(parent_tree)],
                       capture_output=True)
        shutil.rmtree(workdir, ignore_errors=True)
        subprocess.run(["git", "-C", str(repo), "worktree", "prune"], capture_output=True)
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
