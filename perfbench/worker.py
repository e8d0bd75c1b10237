"""One benchmark process: set up a workload, run its passes, check them.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and a fixed
PYTHONHASHSEED. With --mode setup it stops once the inputs are ready and
prints the monotonic time of that moment; with --mode run it goes on to the
timed passes and prints one JSON line with the outcome of the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

import immlab.kernels  # noqa: E402

sys.path.insert(0, HERE)
import workloads  # noqa: E402

P90_SAMPLES = 100  # op_p90_ms needs ten samples beyond it


def run_pass(wl, tracer=None):
    """All operations once; returns (wall seconds, latencies, outputs, problems)."""
    outputs, lats, problems = [], [], {}
    perf = time.perf_counter
    gc.collect()
    started = perf()
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.begin_op(i, op.family)
        t0 = perf()
        try:
            out = op.run()
        except Exception as err:  # an operation that raises counts as failed
            out = None
            problems[i] = f"raised {err!r}"
        lats.append(perf() - t0)
        outputs.append(out)
    wall = perf() - started
    return wall, lats, outputs, problems


def check_pass(wl, outputs, problems):
    """Check every output against its expected answer (not timed)."""
    for i, (op, out) in enumerate(zip(wl.ops, outputs)):
        if i in problems:
            continue
        found = op.check(out)
        if found:
            problems[i] = "; ".join(found)
    return problems


def signature(out):
    """What must repeat exactly from pass to pass."""
    if out is None:
        return None
    if isinstance(out, dict):
        return json.dumps({k: v for k, v in out.items() if k != "seconds"}, sort_keys=True)
    final, certs, outcome = out
    return (final, len(certs), tuple(sorted(outcome.items())))


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("corpus", "scaleup", "replay"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    args = ap.parse_args(argv)

    scratch = os.path.join(OUT, "inputs", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl = workloads.build(args.workload, ROOT, args.seed, scratch)
        ready = time.monotonic()
        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0
        result = measure(wl, args)
        result["ready"] = ready
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(wl, args):
    first = None
    deterministic = True
    failed = attempted = 0
    lats, wall, cands = [], 0.0, 0
    details = {}
    pass_walls = []

    def account(p_wall, p_lats, outputs, problems):
        nonlocal first, deterministic, failed, attempted, wall, cands
        check_pass(wl, outputs, problems)
        sig = [signature(out) for out in outputs]
        if first is None:
            first = sig
        deterministic = deterministic and sig == first
        attempted += len(wl.ops)
        failed += len(problems)
        wall += p_wall
        pass_walls.append(p_wall)
        lats.extend(p_lats)
        cands += sum(op.candidates for i, op in enumerate(wl.ops) if i not in problems)
        for i, why in problems.items():
            details.setdefault(wl.ops[i].label, why)

    base = {"workload": wl.name, "seed": args.seed, "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "kernel_backend": immlab.kernels.BACKEND,
            "threads": threading.active_count(), "makeup": wl.makeup}

    if not args.trace:
        if args.passes * len(wl.ops) < P90_SAMPLES:
            raise SystemExit(f"{args.passes} passes of {len(wl.ops)} operations leave fewer "
                             f"than {P90_SAMPLES // 10} samples beyond p90")
        for _ in range(args.passes):
            account(*run_pass(wl))
        done = attempted - failed
        metrics = {
            "ops_per_s": {"value": done / wall, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lats) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": percentile(lats, 90) * 1e3, "unit": "ms"},
            "candidates_per_s": {"value": cands / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        by_label = {}
        for i, lat in enumerate(lats):
            by_label.setdefault(wl.ops[i % len(wl.ops)].label, []).append(lat)
        p90 = metrics["op_p90_ms"]["value"] / 1e3
        base.update(passes=args.passes, timed_s=wall, pass_s=pass_walls, ops=len(lats),
                    samples_beyond_p90=sum(1 for x in lats if x > p90),
                    op_median_ms={label: statistics.median(v) * 1e3
                                  for label, v in sorted(by_label.items())})
    else:
        import tracing

        # one untraced pass for the overhead, then the same pass traced
        account(*run_pass(wl))
        plain_wall = wall
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(wl, tracer)
        finally:
            tracer.uninstall()
        account(*traced)
        metrics = tracer.per_layer(traced[0] / plain_wall)
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        spans_path = os.path.join(OUT, "spans", f"{wl.name}.tsv.gz")
        base.update(spans=tracer.write(spans_path), spans_file=os.path.relpath(spans_path, ROOT),
                    untraced_ops_per_s=len(wl.ops) / plain_wall,
                    traced_ops_per_s=len(wl.ops) / traced[0])
        print(f"per-layer table ({wl.name}, seed {args.seed}, one traced pass "
              f"of {len(wl.ops)} operations):")
        print(tracing.table(metrics))

    base.update(correct=deterministic, attempted=attempted, failed=failed,
                failures=dict(list(details.items())[:10]), metrics=metrics)
    return base


if __name__ == "__main__":
    sys.exit(main())
