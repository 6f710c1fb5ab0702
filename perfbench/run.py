#!/usr/bin/env python3
"""Benchmark of record: builds the perfbench driver from source and runs one
workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload equiv_suite --seed 1 --seconds 20 --trace 0

The driver and the library it links are configured into .bench_build/ at the
root of the checkout (the first run builds; later runs only check that the
build is current). Build output goes to stderr; the driver's stdout is passed
through, so its last line is the result JSON. A traced run (--trace 1) also
writes its spans to .bench_build/trace-<workload>-<seed>.json.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("equiv_suite", "refute_mutants", "service_batch")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)


def source_id():
    """Git commit when the checkout is a repository, plus a digest of src/
    (the checkout the benchmark runs in need not be one)."""
    commit = "nogit"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                                capture_output=True, text=True,
                                check=True).stdout.strip() or commit
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "%s+src:%s" % (commit, digest.hexdigest()[:12])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-checks", type=int, default=0,
                    help="self-check only: run the first N checks")
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fixtures", os.path.join(HERE, "mutants.txt"),
           "--commit", source_id()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build", "trace-%s-%d.json" % (args.workload, args.seed))]
    if args.max_checks:
        cmd += ["--max-checks", str(args.max_checks)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
