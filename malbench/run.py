#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see malbench/README.md).

Usage, from the root of a checkout:

    python3 malbench/run.py --workload zlog_append --seed 1 --seconds 10 --trace 0

The first call configures and compiles ../src plus the malbench program into
$CARGO_TARGET_DIR/malbench (default .bench_build/malbench); later calls
only relink if something changed. Build output goes to stderr, so the
last line of stdout is always the program's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("zlog_append", "rados_mixed", "ec_repair")
RUN_TIMEOUT_S = 170


def fail(message):
    print("malbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no source tree next to the benchmark (expected src/CMakeLists.txt)")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "malbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if run(configure) != 0:
        # A cache left by a tree at another path cannot be reused.
        shutil.rmtree(build_dir, ignore_errors=True)
        if run(configure) != 0:
            fail("cmake configure failed")
    if run(["cmake", "--build", build_dir, "--target", "malbench", "-j", "4"]) != 0:
        fail("build failed")
    return os.path.join(build_dir, "malbench")


def run(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("malbench exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
