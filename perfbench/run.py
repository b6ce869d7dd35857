#!/usr/bin/env python3
"""factforge benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload verify_http --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ./src. With
--trace 0 the run measures end-to-end metrics untraced; with --trace 1 it
runs the same work untraced and then traced (wrappers on each layer's public
callables) and reports the per-layer metrics and the tracing overhead.
Human-readable lines go first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
# setup_s is the fastest of the set-ups timed in two groups, one before the
# measured phase and one after it, each of at least SETUP_MIN_REPEATS set-ups
# and SETUP_MIN_S seconds. The reference machine switches, every few tenths of
# a second, between a fast state and one where Python runs about half as
# fast. A set-up of a few hundredths of a second falls wholly in one state,
# so a median of them follows whichever state held the run's majority; the
# fastest set-up reads its cost in the fast state.
SETUP_MIN_REPEATS = 2
SETUP_MIN_S = 1.0

# Names the end-to-end metrics take in the text summary, per workload.
ALIASES = {
    "pipeline_http": {"op_p50_ms": ("pipeline_s", 0.001, "s")},
    "verify_http": {"op_p50_ms": ("verify_text_p50_ms", 1, "ms"),
                    "op_p90_ms": ("verify_text_p90_ms", 1, "ms"),
                    "ops_per_s": ("verify_texts_per_s", 1, "1/s")},
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(spec: dict) -> argparse.Namespace:
    lines = ["workloads:"]
    lines += [f"  {w['name']:<16} {w['why']}" for w in spec["workloads"]]
    lines.append("end-to-end metrics (--trace 0):")
    lines += [f"  {m['name']} [{m['unit']}, {m['better']} is better, bound {m['bound']}]"
              for m in spec["end_to_end"]]
    lines.append("per-layer metrics (--trace 1):")
    lines += [f"  {m['name']} [{m['unit']}, {m['better']} is better]" for m in spec["per_layer"]]
    lines.append("Definitions and parameters: perfbench/README.md")
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="\n".join(lines),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def end_to_end(out, setup_s: list[float], failed: int, rss_mb: float) -> dict:
    return {
        "setup_s": (min(setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_share": ((out.n_ops - failed) / out.n_ops, "share"),
        "backend_calls": (out.calls / out.n_ops, "calls/op"),
        "op_p50_ms": (tracing.percentile([1000 * s for s in out.op_s], 50), "ms"),
        "op_p90_ms": (tracing.percentile([1000 * s for s in out.op_s], 90), "ms"),
        "ops_per_s": (out.n_ops / sum(out.op_s), "1/s"),
    }


def time_setups(workload, workdir: Path, setup_s: list[float]) -> None:
    """Set the workload up one group of times, appending each duration to
    setup_s; the last set-up stays in place."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S:
        if times:
            workload.teardown()
        t0 = time.perf_counter()
        workload.setup(workdir / f"setup{len(setup_s) + len(times)}")
        times.append(time.perf_counter() - t0)
    setup_s.extend(times)


def main() -> int:
    spec = load_spec()
    args = parse_args(spec)
    if not (ROOT / "src" / "factforge").is_dir():
        print(f"error: no factforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    logging.getLogger("factforge").setLevel(logging.ERROR)  # retry warnings are expected

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    spare = workloads.WORKLOADS[args.workload](args.seed)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir = ROOT / ".perfbench_work" / run_id
    setup_s: list[float] = []
    try:
        time_setups(workload, workdir, setup_s)
        out = workload.measure(seconds=args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before checks
        failures = workload.check(out)
        if args.trace:
            # Untraced, traced, untraced again: the mean of the two untraced
            # phases brackets the traced one, so a machine that speeds up or
            # slows down during the run moves the tracing overhead less.
            tracer = tracing.Tracer(run_id)
            tracer.install()
            try:
                traced = workload.measure(n_ops=out.n_ops, tracer=tracer)
            finally:
                tracer.uninstall()
            after = workload.measure(n_ops=out.n_ops)
            for k, m in ((1, traced), (2, after)):
                failures.update({k * out.n_ops + i: why for i, why in workload.check(m).items()})
            tracer.write(ROOT / ".perfbench_work" / "spans" / f"{run_id}.jsonl")
            metrics = tracing.layer_metrics(
                tracer.spans, traced.n_ops, traced.passes, traced.server, workloads.LATENCY_MS,
                traced.wall_s, (out.wall_s + after.wall_s) / 2)
            attempted = out.n_ops + traced.n_ops + after.n_ops
            wanted = [m["name"] for m in spec["per_layer"]]
        else:
            time_setups(spare, workdir, setup_s)
            metrics = end_to_end(out, setup_s, len(failures), rss_mb)
            attempted = out.n_ops
            wanted = [m["name"] for m in spec["end_to_end"]]
    finally:
        workload.teardown()
        spare.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    if sorted(metrics) != sorted(wanted):
        raise RuntimeError(f"metric names do not match BENCHMARK.json: {sorted(metrics)}")
    for i, why in sorted(failures.items())[:20]:
        print(f"FAILED op {i}: {why}")
    print(f"{args.workload} seed={args.seed} ops={attempted} failed={len(failures)}"
          f" failed_share={len(failures) / attempted:.4f} share")
    aliases = ALIASES.get(args.workload, {})
    for name in wanted:
        value, unit = metrics[name]
        alias = aliases.get(name) if not args.trace else None
        extra = f"  ({alias[0]} = {value * alias[1]:.6g} {alias[2]})" if alias else ""
        print(f"  {name} = {value:.6g} {unit}{extra}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
