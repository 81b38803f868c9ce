#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root:

    python3 perfbench/spread.py --workload churn --seeds 1-10 [--seconds 10]

Runs perfbench/run.py once per seed (sequentially) and prints, per metric,
the median and the interquartile range as a share of the median (quartiles
as statistics.quantiles(values, n=4) gives them), next to the metric's bound
from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = "%.4f" % ((q3 - q1) / median)
        else:
            spread = "-"
        print("%-30s median %-14.6g spread %-8s bound %-5s runs %s" % (
            name, median, spread, bounds.get(name, "-"),
            " ".join("%.4g" % v for v in vals)))


if __name__ == "__main__":
    main()
