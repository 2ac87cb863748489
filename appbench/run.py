#!/usr/bin/env python3
"""Builds the application benchmark from source and runs one workload.

    python3 appbench/run.py --workload ode_chain --seed 1 --seconds 30 --trace 0
    python3 appbench/run.py --self-test

The build (CMake, RelWithDebInfo) goes to appbench/.build and its output to
stderr, so the last line of stdout is the benchmark's JSON result. Exits
non-zero without a result when the sources are missing or the build fails.
See appbench/README.md for the workloads and metrics.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, ".build")


def build(target):
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", target,
                        "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def run(command, timeout):
    child = subprocess.Popen(command)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"appbench: timed out after {timeout} s", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the statistics self-tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        if args.self_test:
            return run([build("appbench_stats_test")], timeout=60)
        binary = build("appbench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"appbench: build failed: {error}", file=sys.stderr)
        return 1
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace],
               timeout=170)


if __name__ == "__main__":
    sys.exit(main())
