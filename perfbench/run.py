#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt compiles the program's libraries from
src/) under .bench_build/; later calls only rebuild what changed. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. The traced run (--trace 1) also writes its spans
and the program's run-report counters under .bench_out/.

Exits non-zero, without printing a result, when the build fails; exits
non-zero after printing the result when a correctness check fails.
"""

import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tango_perfbench")
RUN_TIMEOUT_S = 170


def build() -> bool:
    here = os.path.dirname(os.path.abspath(__file__))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", here, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tango_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main() -> int:
    if not build():
        return 2
    cmd = [BINARY] + sys.argv[1:]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
