#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload model_hot --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke

The first form builds the benchmark (once; later runs rebuild incrementally)
into .bench_build/perfbench and runs one workload. The last line of standard
output is the result as one JSON object; build output and progress go to
standard error. The second form is the smoke test: tiny sizes, every workload
(exact_heavy too, which BENCHMARK.json leaves out; see perfbench/README.md),
both trace modes; it checks that every metric named in BENCHMARK.json is
emitted with its unit and that every answer check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "qreg_perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ["model_hot", "exact_heavy", "cache_churn"]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)


def run_once(args):
    """Runs the binary; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    out = proc.stdout.decode()
    lines = out.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, out, result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            before = len(problems)
            where = "%s trace=%d" % (workload, trace)
            try:
                code, _, result = run_once(["--workload", workload, "--seed", "7", "--seconds",
                                            "1", "--trace", str(trace), "--smoke"])
            except subprocess.TimeoutExpired:
                code, result = -1, None
            if result is None:
                problems.append("%s: exit %d, no JSON result" % (where, code))
                continue
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append("%s: correct=%s failed=%s" %
                                (where, result.get("correct"), result.get("failed")))
            metrics = result.get("metrics", {})
            for m in expected[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: metric %s missing" % (where, m["name"]))
                elif got.get("unit") != m["unit"]:
                    problems.append("%s: metric %s has unit %s, expected %s" %
                                    (where, m["name"], got.get("unit"), m["unit"]))
            extra = set(metrics) - {m["name"] for m in expected[trace]}
            if extra:
                problems.append("%s: metrics not in BENCHMARK.json: %s" %
                                (where, ", ".join(sorted(extra))))
            print("smoke %-24s %s" % (where, "ok" if len(problems) == before else "FAILED"),
                  file=sys.stderr)
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if args.smoke:
        return smoke()

    try:
        code, out, result = run_once(["--workload", args.workload, "--seed", str(args.seed),
                                      "--seconds", "%g" % args.seconds, "--trace", args.trace])
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1
    if code != 0 or result is None:
        print("perfbench: benchmark exited %d without a result" % code, file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
