#!/usr/bin/env python3
"""Builds and runs the serving-stack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --print-reference

Builds perfbench/ (which compiles the repository's src/ tree) into the
directory named by CARGO_TARGET_DIR, or .bench_build, under the repository
root; runs one workload; and relays the benchmark's output, whose last line
is the JSON result. Exits non-zero, without a result, when the build or the
run fails. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hamlet-skew-insert", "play-uniform-insert", "d5-query-mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures and builds the benchmark; returns the binary's path."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", cmake_dir, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "perfbench")


def clean_env():
    # The benchmark measures the program at its defaults (WAL compression,
    # compressed frames, tracing off): drop any CDBS_* knob a shell may set.
    return {k: v for k, v in os.environ.items() if not k.startswith("CDBS_")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--print-reference", action="store_true",
                        help="print the reference answers and exit")
    args = parser.parse_args()
    if not args.print_reference and None in (
            args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    out_dir = build_dir()
    binary = build(out_dir)
    if args.print_reference:
        sys.exit(subprocess.run([binary, "--print-reference"],
                                env=clean_env(), check=False).returncode)

    workdir = os.path.join(out_dir, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        sys.exit("perfbench: benchmark exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: the last line is not a result")


if __name__ == "__main__":
    main()
