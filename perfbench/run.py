#!/usr/bin/env python3
"""Repository benchmark for raven-guard.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
libraries under src/) and runs one workload:

    python3 perfbench/run.py --workload fleet_paced --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1 (names and units as
listed in BENCHMARK.json and perfbench/README.md).  Build output goes to
standard error.  Exits non-zero when the build fails or a correctness
check fails.

    python3 perfbench/run.py --smoke

is the benchmark's self-test: a short pass of every workload in both
modes, running every correctness check and checking the printed metric
names against BENCHMARK.json.

Build products and scratch files go under $CARGO_TARGET_DIR (default
.bench_build), relative to the current directory.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build the driver; returns its path."""
    build_dir = os.path.join(target_dir(), "perfbench-build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "rg_perfbench"],
                   stdout=sys.stderr, check=True, timeout=850)
    return os.path.join(build_dir, "rg_perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def validate(result, expected):
    """Problems with a result object (empty list when it is well formed)."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append("metric names differ: missing %s, unexpected %s" % (missing, extra))
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r is not a finite number" % (name, value))
        if name in expected and m.get("unit") != expected[name]:
            problems.append("%s unit %r, expected %r" % (name, m.get("unit"), expected[name]))
    return problems


def run_workload(binary, spec, workload, seed, seconds, trace, smoke):
    """Run one workload; returns (exit code, result dict or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--work-dir", os.path.join(target_dir(), "work")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    if result is None:
        log("run.py: %s printed no result (exit %d)" % (workload, proc.returncode))
        return proc.returncode or 1, None
    expected = expected_metrics(spec, trace)
    if trace:
        # A layer the workload never runs did no work: report it as 0.
        for name, unit in expected.items():
            result.get("metrics", {}).setdefault(name, {"value": 0, "unit": unit})
    problems = validate(result, expected)
    for p in problems:
        log("run.py: %s: %s" % (workload, p))
    code = proc.returncode
    if code == 0 and (problems or not result["correct"]):
        code = 1
    return code, result


def smoke(binary, spec):
    failures = 0
    for w in spec["workloads"]:
        for trace in (False, True):
            code, result = run_workload(binary, spec, w["name"], 1, 0.3, trace, True)
            ok = code == 0 and result is not None
            failures += 0 if ok else 1
            log("smoke %-16s trace=%d %s" % (w["name"], trace, "ok" if ok else "FAILED"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: short pass of every workload, both modes")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        parser.error("--workload must be one of %s" % ", ".join(names))
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log("run.py: build failed: %s" % e)
        return 1
    if args.smoke:
        return smoke(binary, spec)
    code, result = run_workload(binary, spec, args.workload, args.seed, args.seconds,
                                bool(args.trace), False)
    if result is not None:
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
