#!/usr/bin/env python3
"""Measures how steady the benchmark is, against the bounds it declares.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--workloads a,b]

Runs perfbench/run.py --runs times per workload, each with its own seed
(seed0, seed0+1, ...), with tracing off and the run length from
BENCHMARK.json. For every end-to-end metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and the metric's bound. The spread should stay below
a third of the bound; setup_s is exempt from the spread rule but not from
the bound on its median. It also prints each workload's share of failed
operations, which must be the same in every run. Exits 1 if a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.seed0 + i, spec["run_seconds"])
            if r is None:
                ok = False
                continue
            results.append(r)
        if len(results) < 2:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {len(results)} runs, attempted "
              f"{min(r['attempted'] for r in results)}-"
              f"{max(r['attempted'] for r in results)}, failed share "
              f"{shares}")
        print(f"  {'metric':24s} {'median':>14s} {'q1':>14s} {'q3':>14s}"
              f" {'spread':>8s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  <-- over bound/3"
            if m["name"] == "setup_s":
                flag = "  (spread exempt)"
            print(f"  {m['name']:24s} {med:14.6g} {q1:14.6g} {q3:14.6g}"
                  f" {spread:8.4f} {m['bound']:6.3f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
