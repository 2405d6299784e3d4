#!/usr/bin/env python3
"""A/B comparison of two versions of the code on the repository benchmark.

    python3 scripts/perfbench_compare.py --base origin/main --change HEAD \\
        --workloads update_uniform --pairs 10 --first-seed 201 --seconds 10

Each side is a git ref, exported with `git archive` into a temporary
directory. Both sides are built and run through their own perfbench/run.py,
with identical settings.
For every workload the script runs --pairs pairs; pair i runs both sides on
seed first_seed + i and alternates which side goes first.

Simulated metrics must repeat exactly for a seed, so every metric except
the host ones (host_kops, setup_s, host_rss_mib) must be identical between
the two sides of every pair; the script exits non-zero when one differs.
For each host metric it prints both sides' median and quartiles, the ratio
of the medians, how many pairs the change won (ties count for neither) and
a verdict: "gain" when the change won at least nine tenths of the pairs and
the medians differ by more than the base's quartile spread, "worse" when
the change's median is worse than the base's by more than the metric's
BENCHMARK.json bound, "no claim" otherwise.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_METRICS = ("host_kops", "setup_s", "host_rss_mib")


def export(ref, scratch, name):
    """Returns a `git archive` export of `ref` under `scratch`."""
    tree = os.path.join(scratch, name)
    os.makedirs(tree)
    archive = subprocess.run(["git", "-C", ROOT, "archive", ref],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout,
                   check=True)
    return tree


def run(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("perfbench_compare: run failed in %s: %s"
                 % (tree, " ".join(cmd[1:])))
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"]:
        sys.exit("perfbench_compare: wrong data in %s, %s seed %d"
                 % (tree, workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def report(workload, pairs, spec):
    print("\n%s (%d pairs)" % (workload, len(pairs)))
    print("%-13s %26s %26s %8s %6s  %s"
          % ("metric", "base median [q1, q3]", "change median [q1, q3]",
             "ratio", "wins", "verdict"))
    for name in HOST_METRICS:
        higher = spec[name]["better"] == "higher"
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        wins = sum(1 for b, c in zip(base, change)
                   if (c > b if higher else c < b))
        gain = cmed - bmed if higher else bmed - cmed
        if wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
            verdict = "gain"
        elif -gain > spec[name]["bound"] * bmed:
            verdict = "worse"
        else:
            verdict = "no claim"
        ratio = cmed / bmed if bmed else float("nan")
        print("%-13s %9.4g [%6.4g, %6.4g] %9.4g [%6.4g, %6.4g] %7.3fx"
              " %3d/%-2d  %s" % (name, bmed, bq1, bq3, cmed, cq1, cq3,
                                 ratio, wins, len(pairs), verdict))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--base", required=True, help="git ref")
    parser.add_argument("--change", required=True,
                        help="git ref")
    parser.add_argument("--workloads",
                        default="update_uniform,read_zipf,sharded_mixed")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    scratch = tempfile.mkdtemp(prefix="perfbench-compare-")
    try:
        trees = {"base": export(args.base, scratch, "base"),
                 "change": export(args.change, scratch, "change")}
        mismatches = []
        for workload in args.workloads.split(","):
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ["base", "change"] if i % 2 == 0 else ["change",
                                                               "base"]
                got = {side: run(trees[side], workload, seed, args.seconds)
                       for side in order}
                for name, value in got["base"].items():
                    if name in HOST_METRICS:
                        continue
                    if got["change"][name] != value:
                        mismatches.append("%s seed %d %s: %r vs %r" % (
                            workload, seed, name, value, got["change"][name]))
                pairs.append((got["base"], got["change"]))
                print("%s seed %d: host_kops %.1f -> %.1f" % (
                    workload, seed, got["base"]["host_kops"],
                    got["change"]["host_kops"]), flush=True)
            report(workload, pairs, spec)
        if mismatches:
            print("\nsimulated metrics differ:\n  " + "\n  ".join(mismatches))
            return 1
        print("\nsimulated metrics identical on every pair")
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
