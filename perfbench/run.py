#!/usr/bin/env python3
"""Builds and runs the npac benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sched_stream --seed 42 --seconds 15 --trace 0

Builds perfbench/ (and the npac library it measures) into
.bench_build/perfbench, then runs one workload and relays its report. The
last line of stdout is the result JSON; build output goes to stderr.
Extra flags (--smoke, --emit-pins) pass through to the benchmark binary.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("sched_stream", "caps_bulk", "design_sweep")


def thread_budget():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    """Configures once and builds the benchmark binary; returns its path."""
    jobs = str(thread_budget())
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "npac_perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "npac_perfbench")


def git_sha():
    """The checkout's commit, when it is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, passthrough = parser.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("run.py: the npac sources (CMakeLists.txt, src/) are missing "
              "next to perfbench/", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    spans_dir = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--pins", os.path.join(HERE, "pins.txt"), "--git-sha", git_sha(),
        "--spans-out",
        os.path.join(spans_dir, f"{args.workload}-{args.seed}.jsonl"),
    ] + passthrough
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        print(f"run.py: npac_perfbench exited with {result.returncode}", file=sys.stderr)
        return result.returncode or 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(result.stdout)
        print("run.py: the last line of npac_perfbench is not JSON", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
