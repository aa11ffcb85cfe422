#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3,...]

Runs each workload once per seed (untraced, BENCHMARK.json's run_seconds)
and prints, per metric, the median of the runs and the distance between
their first and third quartiles (statistics.quantiles, n=4) as a share of
the median, next to the metric's bound. A spread above a third of its bound
is marked; setup_s has no spread limit, only its median is compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        definition = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in definition["workloads"]))
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--seconds", type=int, default=definition["run_seconds"])
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in definition["end_to_end"]}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, universal_newlines=True)
            if proc.returncode != 0:
                print("%s seed %d failed" % (workload, seed))
                return 1
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()})),
                flush=True)
        print("== %s over seeds %s" % (workload, args.seeds))
        for m in definition["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("inf")
            mark = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                mark = "  <-- above bound/3"
            print("  %-20s median %-14.6g spread %6.2f%%  bound %4.0f%%%s"
                  % (m["name"], med, 100 * spread, 100 * m["bound"], mark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
