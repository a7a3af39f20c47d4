#!/usr/bin/env python3
"""Smoke test of the benchmark itself: tiny sizes, a few seconds per run.

    python3 perfbench/smoke.py

Runs every workload untraced and traced through run.py at --smoke sizes and
checks that each run is correct, reports exactly the metrics BENCHMARK.json
names, and that the deterministic counts of a traced run repeat exactly when
it is run again with the same seed. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table1-sim", "broker-ack", "broker-fanout"]


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"FAIL {workload} trace={trace}: exit {out.returncode}")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    return record, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in WORKLOADS:
        for trace in (0, 1):
            record, result = run(w, trace)
            want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit(f"FAIL {w} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                sys.exit(f"FAIL {w} trace={trace}: {record['problems']}")
            if set(result["metrics"]) != want:
                sys.exit(f"FAIL {w} trace={trace}: metrics differ from BENCHMARK.json")
            if trace and not record["deterministic"]:
                sys.exit(f"FAIL {w}: a traced run records no deterministic counts")
            if trace:
                again, _ = run(w, trace)
                if again["deterministic"] != record["deterministic"]:
                    sys.exit(f"FAIL {w}: deterministic counts differ between two runs:\n"
                             f"  {record['deterministic']}\n  {again['deterministic']}")
            print(f"ok {w} trace={trace}: {result['attempted']} attempted", flush=True)
    print("smoke: all workloads passed")


if __name__ == "__main__":
    main()
