#!/usr/bin/env python3
"""immlab benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: corpus, scaleup, replay (see
perfbench/README.md). The workload runs in a fresh single-threaded Python
process that imports immlab from the checkout's src/ with a fixed
PYTHONHASHSEED. The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from one traced pass, and the spans are written to
perfbench/out/spans/. Every run's full record goes to perfbench/out/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5  # process starts per run; setup_s is their median

# Seconds one pass takes at the commit that introduced the benchmark (pure
# kernels, 2 CPUs). A run does round(seconds / nominal) whole passes, but at
# least MIN_PASSES: ceil(100 / operations per pass), so that ten samples lie
# beyond op_p90_ms. Every run of a workload thus does the same work whatever
# the host speed.
NOMINAL_PASS_S = {"corpus": 1.5, "scaleup": 6.8, "replay": 1.05}
MIN_PASSES = {"corpus": 7, "scaleup": 3, "replay": 1}
# A worker is stopped after SETUP_TIMEOUT_S plus TIMEOUT_FACTOR times its
# nominal timed work, so a program several times slower still reports.
SETUP_TIMEOUT_S = 60
TIMEOUT_FACTOR = 6


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def start_worker(args, mode, passes, timeout):
    """Run one worker process; returns (spawn time, its JSON, its other output)."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--passes", str(passes), "--trace", str(args.trace), "--mode", mode]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1]), lines[:-1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "scaleup", "replay"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in ("src/immlab/__init__.py", "corpus"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail(f"{needed} not found under {ROOT}: run from an immlab checkout")

    nominal = NOMINAL_PASS_S[args.workload]
    passes = max(MIN_PASSES[args.workload], round(args.seconds / nominal))
    # a traced run does one plain and one traced pass
    timeout = SETUP_TIMEOUT_S + TIMEOUT_FACTOR * nominal * (2 if args.trace else passes)
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                spawned, doc, _ = start_worker(args, "setup", passes, SETUP_TIMEOUT_S)
                setups.append(doc["ready"] - spawned)
        spawned, result, text = start_worker(args, "run", passes, timeout)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        return fail(str(err))
    setups.append(result["ready"] - spawned)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["setup_samples_s"] = setups

    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    record = os.path.join(OUT, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump(result, fh, indent=1)

    for line in text:
        print(line)
    if result["failures"]:
        print(f"failed operations: {json.dumps(result['failures'])}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
