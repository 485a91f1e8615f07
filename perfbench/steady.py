#!/usr/bin/env python3
"""Steadiness of the benchmark: run it repeatedly and report the spread.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Run from the repository root. Each workload runs untraced once per seed
through perfbench/run.py. For every end-to-end metric the script prints the
median, the first and third quartiles (statistics.quantiles(values, n=4))
and the spread, the interquartile distance as a share of the median, and
compares the spread with the metric's bound in BENCHMARK.json: the bounds
are set from these spreads, and a spread above a third of its bound is
flagged. The share of failed operations must be the same in every run. Exit
status 1 when a run fails, a check fails, or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stdout.write(out.stdout)
        raise RuntimeError("%s seed %d exited with %d"
                           % (workload, seed, out.returncode))
    inputs = next((l for l in lines if l.startswith("inputs ")), "")
    return json.loads(lines[-1]), inputs


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in args.workloads.split(","):
        values, shares = {}, set()
        for seed in seeds:
            result, inputs = run_once(workload, seed, args.seconds)
            print("%s seed %d: %s attempted %d failed %d correct %s %s"
                  % (workload, seed, inputs, result["attempted"],
                     result["failed"], result["correct"],
                     " ".join("%s=%.6g" % (name, m["value"]) for name, m
                              in result["metrics"].items())), flush=True)
            ok &= result["correct"]
            shares.add((result["failed"], result["attempted"])
                       if result["failed"] else 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        if len(shares) > 1:
            print("  failed share differs between runs: %s" % sorted(shares))
            ok = False
        print("%-14s %-36s %12s %12s %12s %8s %8s"
              % ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            flag = ""
            if spread > bound:
                flag, ok = "  OVER BOUND", False
            elif spread > bound / 3:
                flag = "  above a third of the bound"
            print("%-14s %-36s %12.6g %12.6g %12.6g %8.4f %8g%s"
                  % (workload, name, med, q1, q3, spread, bound, flag),
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    os.environ.setdefault("PYTHONUNBUFFERED", "1")
    sys.exit(main())
