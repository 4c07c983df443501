#!/usr/bin/env python3
"""Builds and runs the NED serving benchmark.

Run from anywhere inside a checkout of the repository:

  python3 nedbench/run.py --workload news_stream --seed 1 --seconds 10 --trace 0

The first call configures and builds the library sources and the benchmark
into .bench_build/ at the repository root (a Release build with CMake);
later calls only rebuild what changed. The benchmark's own unit tests run
after every build. All arguments are passed to the benchmark binary, whose
last line of standard output is the result as one JSON object. Build output
goes to standard error. Exits nonzero, without a result, when the library
sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")


def build():
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "nedbench", "nedbench_stats_test"])
    steps.append([os.path.join(BUILD, "nedbench_stats_test")])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.stderr.write("nedbench: failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("nedbench: no library sources at %s\n"
                         % os.path.join(ROOT, "src"))
        return 2
    if not build():
        return 3
    os.makedirs(WORK, exist_ok=True)
    binary = os.path.join(BUILD, "nedbench")
    return subprocess.run([binary] + sys.argv[1:] + ["--work-dir", WORK],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
