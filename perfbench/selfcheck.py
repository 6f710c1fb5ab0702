#!/usr/bin/env python3
"""Quick self-check of the benchmark of record.

Runs every workload briefly (a few checks, one pass) untraced and traced, and
asserts that each run ends with a result line that names every metric of
BENCHMARK.json with its unit, reports no wrong answer, and, for the traced
single-check workloads, that the layer spans cover at least 90% of the check
time. Run from the root of a checkout:

    python3 perfbench/selfcheck.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_CHECKS = {"equiv_suite": 2, "refute_mutants": 3, "service_batch": 4}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--max-checks", str(MAX_CHECKS[workload])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError("%s trace=%d exited %d" % (workload, trace,
                                                         proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(MAX_CHECKS), names
    for workload in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True
            assert result["attempted"] >= 1
            assert 0 <= result["failed"] <= result["attempted"]
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                assert got is not None, "%s: %s missing" % (workload, m["name"])
                assert got["unit"] == m["unit"], (workload, m["name"], got)
                assert isinstance(got["value"], (int, float))
            assert len(metrics) == len(spec[key]), sorted(metrics)
            if trace and workload != "service_batch":
                cov = metrics["trace.coverage_pct"]["value"]
                assert cov >= 90, "%s: spans cover %.1f%%" % (workload, cov)
            print("ok  %-15s trace=%d  attempted=%d failed=%d" %
                  (workload, trace, result["attempted"], result["failed"]))
    print("selfcheck passed")


if __name__ == "__main__":
    main()
