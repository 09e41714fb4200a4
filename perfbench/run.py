#!/usr/bin/env python3
"""Builds the end-to-end evolution benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build (CMake, Release) goes to .bench_build/perfbench under the
repository root and is reused by later runs.  Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result.  A failed build
exits non-zero without printing a result.  See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "evebench")


def build():
    """Configures once, then brings the build up to date; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([BINARY] + list(argv)).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
