#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and summarize its spread.

    python3 perfbench/steadiness.py --seeds 101-110 [--compare perfbench/out/steadiness-a.json] --tag b

It runs every workload of BENCHMARK.json. For every (workload, end-to-end metric) it prints the median, the first and
third quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, against a third of the metric's bound in BENCHMARK.json. With
--compare it also prints how far this set's median moved from an earlier
set's. Runs are sequential; results go to perfbench/out/steadiness-<tag>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, required=True)
    ap.add_argument("--tag", required=True)
    ap.add_argument("--compare", default=None)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    runs = {}
    for name in [w["name"] for w in spec["workloads"]]:
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            doc = json.loads(out.stdout.strip().split("\n")[-1])
            runs.setdefault(name, []).append(doc)
            print(f"{name} seed {seed}: failed {doc['failed']}/{doc['attempted']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in doc["metrics"].items()), flush=True)

    earlier = None
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)["summary"]
    summary = {}
    print("\n| workload | metric | median | q1 | q3 | spread | bound/3 | shift |")
    print("|---|---|---|---|---|---|---|---|")
    for name, docs in runs.items():
        for metric in spec["end_to_end"]:
            m = metric["name"]
            s = summarize([d["metrics"][m]["value"] for d in docs])
            s["failed_share"] = sorted({d["failed"] / d["attempted"] for d in docs})
            summary.setdefault(name, {})[m] = s
            shift = ""
            if earlier and m in earlier.get(name, {}):
                shift = f"{s['median'] / earlier[name][m]['median'] - 1:+.1%}"
            print(f"| {name} | {m} | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} | "
                  f"{s['spread']:.1%} | {metric['bound'] / 3:.1%} | {shift} |")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steadiness-{args.tag}.json"), "w") as fh:
        json.dump({"seeds": args.seeds, "seconds": seconds, "summary": summary,
                   "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
