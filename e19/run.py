#!/usr/bin/env python3
"""E19: build the end-to-end RFID benchmark from source and run it.

    python3 e19/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e19/run.py --test          # build and run the harness's unit tests

Run from the root of a checkout. The harness and the engine library it
links are built with CMake into .bench_build/e19 (Release). The last line
of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See e19/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "e19")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"e19: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"engine sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "e19"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", target, "-j",
         str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)


def clean_env():
    # Options a workload does not set stay at the engine defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("ESLEV_")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the unit tests instead")
    args = parser.parse_args()

    try:
        if args.test:
            build("e19_tests")
            return subprocess.run([os.path.join(BUILD, "e19_tests")],
                                  env=clean_env()).returncode
        if not args.workload:
            fail("--workload is required")
        build("e19")
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    workdir = os.path.join(BUILD, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD, "e19"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"harness exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("harness printed no result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
