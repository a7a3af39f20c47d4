#!/usr/bin/env python3
"""Run one benchmark workload, or all of them, from the repository root.

    python3 perfbench/run.py --workload table1-sim|broker-ack|broker-fanout|all \
        --seed N --seconds S --trace 0|1 [--smoke]

Builds `dps-broker` (from the repository's workspace) and the benchmark
package (`perfbench/Cargo.toml`) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the workload. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the line
before it is the full record, which is also written to
`$CARGO_TARGET_DIR/perfbench/`. `--workload all` runs every workload, prints
each metric by name with its unit, and exits non-zero if any output check
fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table1-sim", "broker-ack", "broker-fanout"]
# A run must end within 180 s; leave room for start-up and teardown.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kw):
    """Runs `cmd` in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "dps-broker", "--bin", "dps-broker"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest]
        if not os.path.exists(manifest):
            log(f"missing {os.path.relpath(manifest, ROOT)}: run from a full checkout")
            sys.exit(2)
        code, _ = run_group(cmd + extra, BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=sys.stderr)
        if code != 0:
            log(f"build failed: {' '.join(cmd + extra)}")
            sys.exit(2)


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    skip = {"target", ".bench_build", "__pycache__", ".git"}
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in skip)
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(target_dir, workload, args, ident):
    binary = os.path.join(target_dir, "release", "dps-perfbench")
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--broker", os.path.join(target_dir, "release", "dps-broker"),
        "--out-dir", os.path.join(target_dir, "perfbench"),
        "--commit", ident[0], "--source-digest", ident[1],
    ]
    if args.smoke:
        cmd.append("--smoke")
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log(f"{workload}: exited with code {code}")
        return None
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log(f"{workload}: metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")
        return None
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = ap.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    build(target_dir)
    ident = (commit(), source_digest())

    if args.workload != "all":
        lines = run_one(target_dir, args.workload, args, ident)
        if lines is None:
            sys.exit(1)
        print("\n".join(lines), flush=True)
        return

    results = {}
    for w in WORKLOADS:
        lines = run_one(target_dir, w, args, ident)
        if lines is None:
            sys.exit(1)
        results[w] = json.loads(lines[-1])
    for w, r in results.items():
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for name, m in r["metrics"].items():
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    if not all(r["correct"] for r in results.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
