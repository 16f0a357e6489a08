#!/usr/bin/env python3
"""End-to-end benchmark of `efd_cli serve` (see BENCHMARK.json).

Run from the repository root:

    python3 e2ebench/run.py --workload fleet-tcp --seed 1 --seconds 10 --trace 0

The first call configures and builds the repository's library and CLI plus
the load generator into .bench_build/ (Release); later calls only let the
build tool confirm that nothing changed. Build output goes to stderr, so the
last line of stdout is always the benchmark's JSON result. Working files
live in .bench_work/ and are removed after each run, except the traced
run's span dump.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "e2e_bench", "efd_cli"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src", os.path.join("tools", "efd_cli.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} not found under {ROOT}; the benchmark "
                  "builds the EFD sources it sits in", file=sys.stderr)
            return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    command = [os.path.join(BUILD, "e2e_bench"), "run",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cli", os.path.join(BUILD, "efd", "efd_cli"),
               "--work", WORK]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
