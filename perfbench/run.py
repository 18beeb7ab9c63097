#!/usr/bin/env python3
"""Builds the perfbench runner from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build lives in .bench_build/perfbench
(configured once, then rebuilt incrementally); build output goes to
.bench_build/perfbench/build.log and never to standard output, whose last
line is the runner's JSON result. Extra flags (--corrupt-oracle) pass
through to the runner.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def build():
    os.makedirs(os.path.join(ROOT, BUILD_DIR), exist_ok=True)
    log_path = os.path.join(ROOT, BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" %
                                 " ".join(step))
                return False
    return True


def main():
    if not build():
        return 1
    command = [os.path.join(BUILD_DIR, "perfbench"), *sys.argv[1:]]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
