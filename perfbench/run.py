"""latmodal benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload suite|valid_w4|model_check \
        --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from src/ next to this directory.
A run plans the workload's inputs from the seed, times the set-up (import
and input files) in fresh processes, then repeats whole rounds of the
workload's operations until S seconds have passed, and checks every output
against the reference computations in reference.py.  With --trace 0 it
prints the end-to-end metrics; with --trace 1 each untraced round is
followed by a traced one, and it prints the per-layer metrics per traced
round, with the tracing overhead.  The last line of standard output is the
result as JSON.  Result and trace files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics, unit_of, write_traces
from workloads import HERE, SRC, WORKLOADS

SETUP_RUNS = 5  # timed set-ups per run, after one untimed warm-up


def _setup_times(workload: str, work: Path) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(work)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    plan_of, _, round_of, check = WORKLOADS[workload]
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = plan_of(seed)
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        setups = _setup_times(workload, work)
        sys.path.insert(0, str(SRC))
        rounds = round_of(plan, work)
        untraced, traced = [], []
        begin = time.perf_counter()
        while not untraced or time.perf_counter() - begin < seconds:
            untraced.append(rounds.run())
            if trace:
                # traced rounds alternate with untraced ones, so the
                # overhead is not confounded with drift in machine speed
                traced.append(rounds.run(traced=True))
        outcomes = untraced + traced
        if trace:
            traces = [t for o in traced for t in o.traces]
            write_traces(out_dir / f"trace-{workload}-{seed}.json.gz", traces)
        errors = check(plan, outcomes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for e in [e for o in outcomes for e in o.errors]:
        print(f"failed: {e}", file=sys.stderr)
    for e in errors:
        print(f"incorrect: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
    }
    wall_s = statistics.median(o.wall_s for o in untraced)
    if trace:
        overhead = statistics.median(o.wall_s for o in traced) - wall_s
        startups = [s for o in traced for s in o.startups]
        metrics = layer_metrics(traces, len(traced), startups, overhead)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "op_p50_s": statistics.median(t for o in untraced for t in o.op_s),
            "peak_rss_mb": max(o.peak_rss_mb for o in untraced),
        }
    result["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "latmodal" / "__init__.py").is_file():
        print(f"error: no latmodal package under {SRC}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
