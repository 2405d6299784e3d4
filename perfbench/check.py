#!/usr/bin/env python3
"""Run-to-run spread and determinism check for the repository benchmark.

    python3 perfbench/check.py --workload update_uniform --seeds 1,2,3,4,5
    python3 perfbench/check.py --workload read_zipf --seeds 1 --repeat 2

Runs perfbench/run.py once per seed (times --repeat) and prints, for every
end-to-end metric, the median over the runs and the distance between the
first and third quartile as a share of the median, next to the metric's
bound in BENCHMARK.json. With --repeat > 1 it also reports whether runs of
the same seed gave identical simulated metrics (they should, for every
workload). Exits non-zero if a run fails or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Metrics measured in host time; all others come from the simulation.
HOST_METRICS = {"host_kops", "setup_s", "host_rss_mib"}


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("run failed: workload %s seed %d" % (workload, seed))
    result = json.loads(done.stdout.strip().split("\n")[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = {}
    for seed in seeds:
        for _ in range(args.repeat):
            runs.setdefault(seed, []).append(
                run(args.workload, seed, args.seconds))
            print("seed %d done" % seed, file=sys.stderr, flush=True)

    ok = True
    if args.repeat > 1:
        for seed, results in runs.items():
            for name in bounds:
                if name in HOST_METRICS:
                    continue
                values = {r[name] for r in results}
                same = len(values) == 1
                ok = ok and same
                print("same-seed %-14s seed %d %-10s %s" % (
                    name, seed, "identical" if same else "DIFFERS",
                    sorted(values)))
    firsts = [results[0] for results in runs.values()]
    if len(firsts) >= 2:
        for name, bound in bounds.items():
            values = [r[name] for r in firsts]
            median = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / median if median else float("inf")
            within = spread <= bound
            ok = ok and within
            values_text = " ".join("%.5g" % v for v in values)
            print("%-14s %-14s median %-12.6g spread %.4f bound %.2f %-4s %s"
                  % (args.workload, name, median, spread, bound,
                     "ok" if within else "OVER", values_text))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
