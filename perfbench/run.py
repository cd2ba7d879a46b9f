#!/usr/bin/env python3
"""Builds and runs one workload of the ROBOTune session benchmark.

    python3 perfbench/run.py --workload paper_b60 --seed 1 --seconds 55 --trace 0

Run it from the repository root.  It builds perfbench/ (which compiles the
libraries under src/) with CMake into .bench_build/, runs the benchmark, checks
that the result names exactly the metrics BENCHMARK.json lists for the mode,
and passes its output through.  The last line on stdout is the JSON
result.  The exit code is non-zero when the build fails, an output check
fails, or the result is malformed; a failed build prints no result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper_b60", "external_fleet")
# A run is stopped after this long; the measured work fits well inside.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; logs go to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_sessions", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            return False
    return True


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the parsed result, or None when it is malformed."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    metrics = result["metrics"]
    want = expected_metrics(trace)
    if set(metrics) != set(want):
        print("result metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(set(want) - set(metrics)),
                 sorted(set(metrics) - set(want))), file=sys.stderr)
        return None
    for name, unit in want.items():
        if metrics[name].get("unit") != unit:
            return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "perfbench_sessions")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD_DIR, "work-" + args.workload)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    result = check_result(lines[-1], args.trace) if lines else None
    if result is None:
        sys.stdout.write(proc.stdout)
        print("perfbench: no valid result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print("info commit %s" % git_commit())
    print(lines[-1])
    ok = result["correct"] and result["failed"] == 0 and proc.returncode == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
