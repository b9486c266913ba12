#!/usr/bin/env python3
"""Builds and runs the TRAC benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <selective|scan-heavy|ingest-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the library and the benchmark from
source into .bench_build/perfbench (later calls rebuild only what changed),
then runs the generator test and the benchmark. The benchmark's JSON result
is the last line of standard output; build logs and summaries go to
standard error. With --trace 1 the spans are written to
.bench_build/traces/<workload>.spans.jsonl.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
# The benchmark itself must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout=None):
    """Runs `cmd`, sending its output to stderr; fails the run on error."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-20000:])
        fail("failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no TRAC sources at %s/src: run from a repository checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                "trac_perfbench", "perfbench_generator_test"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["selective", "scan-heavy", "ingest-mixed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    run_logged([os.path.join(BUILD_DIR, "perfbench_generator_test")],
               timeout=60)

    cmd = [os.path.join(BUILD_DIR, "trac_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACE_DIR, args.workload + ".spans.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    out = proc.stdout.decode(errors="replace")
    if proc.returncode != 0 or not out.strip():
        fail("benchmark failed (exit %d)" % proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
