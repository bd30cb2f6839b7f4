#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 simbench/spread.py --workload tree64 [--runs 10] [--trace 0]
                               [--first-seed 1] [--seconds S]

Run from the repository root. Reads the command, run length and bounds
from BENCHMARK.json, runs the workload once per seed, and prints for each
metric the median, the interquartile range as a share of the median (as
`statistics.quantiles(values, n=4)` gives the quartiles), the metric's
bound and whether the spread is under a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    table = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = {m["name"]: [] for m in table}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(args.seconds or bench["run_seconds"]),
            "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run reported failures: {result}")
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v['value']:.6g}" for n, v in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {args.runs} runs")
    for m in table:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = m.get("bound")
        verdict = "" if bound is None else (
            f"bound {bound:.3f}  {'ok' if spread < bound / 3 else 'WIDE'}")
        print(f"  {m['name']:<34} median {med:<14.6g} spread {spread:7.4f}  {verdict}")


if __name__ == "__main__":
    main()
