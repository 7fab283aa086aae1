"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a source checkout)::

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b]
        [--seconds N] [--trace 0]

Workloads are interleaved: seed 1 of every workload, then seed 2 of
every workload, and so on, so that a drift in the machine's load
spreads over all of them.  For every workload and end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (Q3 - Q1) / median beside the metric's bound in
``BENCHMARK.json``, and the share of failed operations of every run.
Every run's last line is appended to ``.perfbench/steadiness.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench/steadiness.py")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = {w: [] for w in workloads}
    log = ROOT / ".perfbench" / "steadiness.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in _seeds(args.seeds):
        for workload in workloads:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-3000:]}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[workload].append(result)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "wall": wall, "result": result}) + "\n")
            share = result["failed"] / result["attempted"]
            print(f"{workload:18s} seed {seed:5d} wall {wall:6.1f}s "
                  f"correct {result['correct']} failed "
                  f"{result['failed']}/{result['attempted']} "
                  f"({share:.5f})", flush=True)
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs, failed shares "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            print(f"  {name:32s} median {median:12.5g} q1 {q1:12.5g} "
                  f"q3 {q3:12.5g} spread {spread:7.4f}"
                  + (f" bound {bound}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
