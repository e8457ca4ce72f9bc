#!/usr/bin/env python3
"""Build and run the host-cost benchmark of the wP2P simulator.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the simulator sources under src/ plus the
benchmark) in .bench_build/ with CMake, then runs the benchmark binary with
the same arguments. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Exits non-zero, printing no
result, when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    sys.stdout.flush()
    binary = os.path.join(BUILD, "perfbench")
    sys.exit(subprocess.run([binary] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
