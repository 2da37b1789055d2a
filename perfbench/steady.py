#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload several times on the current commit, each run with
another seed, and prints for every metric its median, quartiles, range
and quartile spread (IQR / median) next to the bound in BENCHMARK.json.
Run it from the repository root:

    python3 perfbench/steady.py                      # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads suite-default

It exits non-zero when a run fails, reports `correct: false`, or an
end-to-end spread reaches its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, min(values), max(values), spread


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(bench["command"], workload, seed, args.seconds)
            if not r["correct"]:
                ok = False
                print(f"{workload} seed {seed}: correct=false ({r['failed']}/{r['attempted']} failed)")
            results.append(r)
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14} {'spread':>7} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, lo, hi, spread = summarize(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread >= bound:
                    flag, ok = "  OVER BOUND", False
                elif spread >= bound / 3:
                    flag = "  over bound/3"
            print(
                f"  {name:<26} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {lo:>14.6g} {hi:>14.6g} "
                f"{spread:>7.2%} {'' if bound is None else bound:>6}{flag}"
            )
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
