#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly, one seed per run, and
prints the median and quartiles of every end-to-end metric.

    python3 perfbench/steady.py [--runs 10] [--workload <name> ...]
        [--save results.json]

Run i uses seed i, for run_seconds from BENCHMARK.json. A metric is
flagged when its spread (the distance between the first and third
quartile, as statistics.quantiles(values, n=4) gives them, over the
median) exceeds its bound in BENCHMARK.json, and marked "wide" when it
exceeds a third of it. The share of failed operations must be the same in
every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          check=False)
    if done.returncode != 0:
        sys.exit("steady: %s seed %d failed (exit %d)" %
                 (workload, seed, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--save", help="write every run's result here")
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    saved = {}
    flagged = 0
    for workload in workloads:
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(workload, seed, seconds))
            r = results[-1]
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (workload, seed, r["correct"], r["attempted"], r["failed"]),
                  file=sys.stderr)
        saved[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print("\n%s: %d runs, %d s each; failed share %s%s" % (
            workload, args.runs, seconds,
            ", ".join("%.6f" % s for s in sorted(shares)),
            "" if len(shares) == 1 else "  <-- NOT CONSTANT"))
        if len(shares) != 1:
            flagged += 1
        if not all(r["correct"] for r in results):
            print("  some runs were not correct  <-- FLAG")
            flagged += 1
        print("  %-24s %12s %12s %12s %8s %7s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if spread > m["bound"]:
                mark = "  <-- OVER BOUND"
                flagged += 1
            elif spread > m["bound"] / 3:
                mark = "  (wide: over a third of the bound)"
            print("  %-24s %12.4f %12.4f %12.4f %8.4f %7.3f%s" %
                  (m["name"], q1, med, q3, spread, m["bound"], mark))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
