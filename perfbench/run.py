#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload diverse-waveforms --seed 1 \
      --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

The first call configures and builds into .bench_build/perfbench (Release);
later calls rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. --selftest runs the helper
unit tests and a smoke-size run of every workload, traced and untraced.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
WORKLOADS = ["diverse-waveforms", "bustracker-fit", "log-firehose"]
BUILD_JOBS = "2"


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log("missing %s: run from a checkout of the repository" % needed)
            return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "perfbench_test", "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def run(args):
    cmd = [os.path.join(BUILD, "perfbench")] + args + ["--scratch", RUN_DIR]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


def selftest():
    if subprocess.run([os.path.join(BUILD, "perfbench_test")],
                      stdout=sys.stderr).returncode:
        return 1
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            log("smoke %s --trace %s" % (workload, trace))
            code = run(["--workload", workload, "--seed", "1", "--seconds",
                        "1", "--trace", trace, "--smoke"])
            if code:
                log("smoke %s --trace %s failed (exit %d)" %
                    (workload, trace, code))
                return 1
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", choices=["0", "1"])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 1
    if a.selftest:
        return selftest()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds",
            str(a.seconds), "--trace", a.trace]
    if a.smoke:
        args.append("--smoke")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
