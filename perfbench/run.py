#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload update_uniform --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
runs one workload, and relays its report. The last line of stdout is the
result JSON: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1 (the traced run also writes its spans to
.bench_build/perfbench-out/spans-<workload>.csv). Exits non-zero without a
result line when the build fails, the run fails or times out, a read
returned wrong data, or the metrics or their units differ from
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    binary = build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("run exited with code %d" % done.returncode)
    result = json.loads(lines[-1])
    if not result["correct"]:
        fail("run reported incorrect output")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = expected_metrics(args.trace)
    if got != wanted:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(wanted.items())))
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
