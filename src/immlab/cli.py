"""Command-line front end: enumeration, consistency checks, hardware maps,
traversal/certification/simulation drivers, corpus runner, model comparison,
and the fuzzer."""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import os
import sys
import time

from . import consistency, hwmodels
from .certification import CertificationError, build_cert_graph, check_cert_compl
from .consistency import sc_witness_rel
from .enumeration import (
    EnumerationReport,
    assertion_holds,
    candidate_executions,
)
from .fuzz import CHECKS, FuzzConfig, fuzz_run
from .program import ParseError, parse_litmus
from .promise import simulate_traversal
from .traversal import Traversal, replay


def _common(parser):
    parser.add_argument("--max-val", type=int, default=None,
                        help="override the litmus value bound")
    parser.add_argument("--unroll", type=int, default=8,
                        help="per-thread loop unroll bound")
    parser.add_argument("--max-candidates", type=int, default=None,
                        help="cap the candidate stream")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--dump-graph", metavar="DIR", default=None,
                        help="write graphs as JSON into DIR")


def _load(args):
    with open(args.file, "rb") as fh:
        test = parse_litmus(fh.read(), args.file)
    if args.max_val is not None:
        test.program.max_val = args.max_val
    return test


def _dump(args, name, graph):
    if not args.dump_graph:
        return
    os.makedirs(args.dump_graph, exist_ok=True)
    path = os.path.join(args.dump_graph, name + ".json")
    with open(path, "w") as fh:
        fh.write(graph.dumps())


def _emit(args, doc, human):
    if args.json:
        print(json.dumps(doc, indent=1, default=str))
    else:
        print(human)


def cmd_enumerate(args):
    test = _load(args)
    report = EnumerationReport()
    count = 0
    outcomes = set()
    for cand in candidate_executions(test.program, unroll=args.unroll,
                                     max_candidates=args.max_candidates, report=report):
        _dump(args, f"candidate-{count:05d}", cand.execution)
        count += 1
        o = cand.execution.outcome(locations=range(len(test.program.locations)))
        outcomes.add(tuple(sorted(o.items())))
    doc = {
        "schema": 1, "test": test.name, "candidates": count,
        "complete": report.complete, "truncated_threads": report.truncated_threads,
        "outcomes": sorted(outcomes),
    }
    human = (
        f"{test.name}: {count} candidate executions"
        + ("" if report.complete else " (lower bound: enumeration truncated)")
        + f", {len(outcomes)} raw outcome(s)"
    )
    _emit(args, doc, human)
    return 0


def _model_verdict(test, check, unroll, max_candidates):
    """allowed if a check-consistent candidate meets the assertion; else
    forbidden after a complete search, unknown after a truncated one."""
    report = EnumerationReport()
    hit = False
    outcomes = set()
    for cand in candidate_executions(test.program, unroll=unroll,
                                     max_candidates=max_candidates, report=report):
        if not check(cand.execution).consistent:
            continue
        o = cand.execution.outcome(locations=range(len(test.program.locations)))
        outcomes.add(tuple(sorted(o.items())))
        if test.assertion and assertion_holds(cand, test):
            hit = True
    if hit:
        verdict = "allowed"
    else:
        verdict = "forbidden" if report.complete else "unknown"
    return verdict, outcomes, report


def cmd_check(args):
    test = _load(args)
    if args.model == "power" and (args.power_at_axiom or args.armv7):
        check = functools.partial(hwmodels.check_imm_via_power,
                                  at_axiom=args.power_at_axiom, armv7=args.armv7)
    else:
        check = consistency.checker_for(args.model)
    verdict, _, report = _model_verdict(test, check, args.unroll, args.max_candidates)
    expected = test.expectations.get(args.model)
    ok = expected is None or expected == verdict
    doc = {
        "schema": 1, "test": test.name, "model": args.model, "verdict": verdict,
        "expected": expected, "ok": ok, "complete": report.complete,
    }
    human = f"{test.name} [{args.model}]: assertion {verdict}" + (
        "" if expected is None else f" (expected {expected}: {'ok' if ok else 'MISMATCH'})"
    )
    _emit(args, doc, human)
    return 0 if ok else 1


def cmd_outcomes(args):
    test = _load(args)
    verdict, outcomes, report = _model_verdict(
        test, consistency.checker_for(args.model), args.unroll, args.max_candidates)
    names = test.program.locations
    rendered = [
        {names[loc] if loc < len(names) else f"loc{loc}": val for loc, val in oc}
        for oc in sorted(outcomes)
    ]
    doc = {"schema": 1, "test": test.name, "model": args.model,
           "outcomes": rendered, "complete": report.complete}
    lines = [f"{test.name} [{args.model}]: {len(rendered)} outcome(s)"]
    lines += ["  " + " ".join(f"{k}={v}" for k, v in oc.items()) for oc in rendered]
    _emit(args, doc, "\n".join(lines))
    return 0


def cmd_map(args):
    test = _load(args)
    count = 0
    problems = 0
    for cand in candidate_executions(test.program, unroll=args.unroll,
                                     max_candidates=args.max_candidates):
        g = cand.execution
        if args.target == "power":
            src = hwmodels.split_release(g)
            mapped = hwmodels.to_power(src)
        else:
            src = g
            mapped = hwmodels.to_arm(g)
        if hwmodels.correspondence_check(src, mapped):
            problems += 1
        _dump(args, f"{args.target}-{count:05d}", mapped)
        count += 1
    doc = {"schema": 1, "test": test.name, "target": args.target,
           "mapped": count, "correspondence_failures": problems}
    _emit(args, doc,
          f"{test.name} → {args.target}: mapped {count} candidates, "
          f"{problems} correspondence failure(s)")
    return 0 if problems == 0 else 1


def _consistent_candidates(test, unroll, max_candidates):
    """IMM_S-consistent candidates with their SC witness, enumeration order."""
    out = []
    for cand in candidate_executions(test.program, unroll=unroll,
                                     max_candidates=max_candidates):
        v = consistency.check_imms(cand.execution)
        if v.consistent:
            out.append((cand, sc_witness_rel(cand.execution, v)))
    return out

def cmd_traverse(args):
    test = _load(args)
    graphs = _consistent_candidates(test, args.unroll, args.max_candidates)
    if not graphs:
        print("no consistent candidate executions", file=sys.stderr)
        return 1
    cand, sc = graphs[args.graph_index]
    g = cand.execution
    trav = Traversal(g, sc=sc)
    steps = trav.traverse()
    if args.trace or not args.json:
        for step in steps:
            print(json.dumps(step.to_json(g)))
    if args.json:
        print(json.dumps({"schema": 1, "test": test.name,
                          "graph_index": args.graph_index, "steps": len(steps)}))
    return 0


def cmd_certify(args):
    test = _load(args)
    graphs = _consistent_candidates(test, args.unroll, args.max_candidates)
    if not graphs:
        print("no consistent candidate executions", file=sys.stderr)
        return 1
    cand, sc = graphs[args.graph_index]
    g = cand.execution
    trav = Traversal(g, sc=sc)
    steps = trav.traverse()
    if not 0 <= args.step <= len(steps):
        print(f"--step out of range (0..{len(steps)})", file=sys.stderr)
        return 1
    tc = replay(g, steps[: args.step])
    try:
        cg = build_cert_graph(g, tc, args.thread,
                              sprog=test.program.threads[args.thread],
                              sc=sc, unroll=args.unroll)
        diags = check_cert_compl(g, tc, cg, sprog=test.program.threads[args.thread],
                                 unroll=args.unroll)
        imms_ok = consistency.check_imms(cg.graph).consistent
    except CertificationError as err:
        _emit(args, {"schema": 1, "error": str(err)}, f"certification failed: {err}")
        return 1
    _dump(args, f"certify-{args.graph_index}-{args.step}-t{args.thread}", cg.graph)
    doc = {
        "schema": 1, "test": test.name, "graph_index": args.graph_index,
        "step": args.step, "thread": args.thread,
        "events": [str(cg.graph.events[i]) for i in range(cg.graph.n)],
        "determined": sorted(str(g.events[e]) for e in cg.determined),
        "diagnostics": diags, "imms_consistent": imms_ok,
    }
    human = (
        f"certification graph for thread {args.thread} at step {args.step}: "
        f"{cg.graph.n} events, {'consistent' if imms_ok else 'INCONSISTENT'}, "
        f"{len(diags)} diagnostic(s)"
    )
    _emit(args, doc, human)
    return 0 if not diags and imms_ok else 1


def cmd_simulate(args):
    test = _load(args)
    graphs = [
        (cand, sc) for cand, sc in _consistent_candidates(test, args.unroll,
                                                          args.max_candidates)
        if consistency.check_imm(cand.execution).consistent
    ]
    if not graphs:
        print("no consistent candidate executions", file=sys.stderr)
        return 1
    cand, sc = graphs[args.graph_index]
    g = cand.execution
    steps = Traversal(g, sc=sc).traverse()
    trace, outcome = simulate_traversal(g, steps, test.program, unroll=args.unroll)
    if args.trace or not args.json:
        for line in trace:
            print(json.dumps(line))
    names = test.program.locations
    rendered = {names[loc] if loc < len(names) else f"loc{loc}": val
                for loc, val in sorted(outcome.items())}
    doc = {"schema": 1, "test": test.name, "graph_index": args.graph_index,
           "outcome": rendered, "machine_steps": len(trace),
           "matches_graph": outcome == g.outcome()}
    _emit(args, doc, f"machine outcome: {rendered} "
          f"({'matches' if doc['matches_graph'] else 'DIFFERS FROM'} the graph)")
    return 0 if doc["matches_graph"] else 1


def cmd_compare(args):
    test = _load(args)
    chk_a = consistency.checker_for(args.model_a)
    chk_b = consistency.checker_for(args.model_b)
    only_a, only_b, both, neither = 0, 0, 0, 0
    outcomes_a, outcomes_b = set(), set()
    for cand in candidate_executions(test.program, unroll=args.unroll,
                                     max_candidates=args.max_candidates):
        g = cand.execution
        ca, cb = chk_a(g).consistent, chk_b(g).consistent
        o = tuple(sorted(g.outcome(locations=range(len(test.program.locations))).items()))
        if ca:
            outcomes_a.add(o)
        if cb:
            outcomes_b.add(o)
        only_a += ca and not cb
        only_b += cb and not ca
        both += ca and cb
        neither += not ca and not cb
    doc = {
        "schema": 1, "test": test.name,
        "models": [args.model_a, args.model_b],
        "consistent": {"both": both, f"only_{args.model_a}": only_a,
                       f"only_{args.model_b}": only_b, "neither": neither},
        "outcome_inclusion": {
            f"{args.model_a}⊆{args.model_b}": outcomes_a <= outcomes_b,
            f"{args.model_b}⊆{args.model_a}": outcomes_b <= outcomes_a,
        },
    }
    human = (
        f"{test.name}: {args.model_a} vs {args.model_b}: both={both} "
        f"only-{args.model_a}={only_a} only-{args.model_b}={only_b} neither={neither}; "
        f"outcomes {args.model_a}⊆{args.model_b}: {outcomes_a <= outcomes_b}"
    )
    _emit(args, doc, human)
    return 0


def run_one(path, models, unroll, max_candidates):
    started = time.time()
    try:
        with open(path, "rb") as fh:
            test = parse_litmus(fh.read(), path)
    except ParseError as err:
        return {"file": path, "test": path, "models": {}, "ok": False,
                "error": str(err), "seconds": round(time.time() - started, 3)}
    wanted = models or sorted(test.expectations)
    entry = {"file": path, "test": test.name, "models": {}, "ok": True}
    for model in wanted:
        verdict, outcomes, report = _model_verdict(
            test, consistency.checker_for(model), unroll, max_candidates)
        expected = test.expectations.get(model)
        ok = expected is None or expected == verdict
        entry["models"][model] = {
            "verdict": verdict, "expected": expected, "ok": ok,
            "outcomes": len(outcomes), "complete": report.complete,
        }
        entry["ok"] = entry["ok"] and ok
    entry["seconds"] = round(time.time() - started, 3)
    return entry


def cmd_run(args):
    paths = []
    for root, _, files in os.walk(args.corpus):
        for name in sorted(files):
            if name.endswith(".litmus"):
                paths.append(os.path.join(root, name))
    models = args.models.split(",") if args.models else None
    results = []
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(args.jobs) as pool:
            futures = [pool.submit(run_one, p, models, args.unroll, args.max_candidates)
                       for p in paths]
            results = [f.result() for f in futures]
    else:
        results = [run_one(p, models, args.unroll, args.max_candidates) for p in paths]
    results.sort(key=lambda e: e["file"])
    all_ok = all(e["ok"] for e in results)
    doc = {"schema": 1, "corpus": args.corpus, "tests": results, "ok": all_ok}
    if args.json:
        print(json.dumps(doc, indent=1))
    else:
        for e in results:
            if "error" in e:
                print(f"FAIL {e['file']}: {e['error']}")
                continue
            marks = " ".join(
                f"{m}={v['verdict']}{'' if v['ok'] else '!=' + str(v['expected'])}"
                for m, v in sorted(e["models"].items())
            )
            print(f"{'ok  ' if e['ok'] else 'FAIL'} {e['test']:<22} {marks} "
                  f"({e['seconds']}s)")
        print(f"{'all expectations met' if all_ok else 'EXPECTATION MISMATCHES'} "
              f"({len(results)} tests)")
    return 0 if all_ok else 1


def cmd_fuzz(args):
    cfg = FuzzConfig(
        threads=tuple(int(t) for t in args.threads.split(",")),
        max_instr=args.max_instr,
        relaxed_only=args.relaxed,
        max_candidates_per_program=args.per_program,
    )
    checks = tuple(args.checks.split(",")) if args.checks else CHECKS
    report = fuzz_run(args.seed, count=args.count, cfg=cfg, checks=checks,
                      unroll=args.unroll)
    if args.json:
        print(json.dumps(report.to_json(), indent=1))
    else:
        print(f"seed {report.seed}: {report.programs} programs, "
              f"{report.candidates} candidates, {report.truncated} truncated, "
              f"{report.traversals} traversals, "
              f"{report.simulated} simulations, {len(report.violations)} violation(s)")
        for v in report.violations[:10]:
            print("  violation:", v["check"], v["detail"])
    return 0 if report.ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="immlab",
        description="execution-graph laboratory for weak memory models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate candidate executions")
    p.add_argument("file")
    _common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("check", help="check a litmus assertion under a model")
    p.add_argument("file")
    p.add_argument("--model", required=True, choices=consistency.MODELS)
    p.add_argument("--power-at-axiom", action="store_true",
                   help="re-enable the co ∪ [At];po;[At] acyclicity axiom")
    p.add_argument("--armv7", action="store_true",
                   help="weaken the dependency order to the ARMv7 variant")
    _common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("outcomes", help="outcome set under a model")
    p.add_argument("file")
    p.add_argument("--model", required=True, choices=consistency.MODELS)
    _common(p)
    p.set_defaults(fn=cmd_outcomes)

    p = sub.add_parser("map", help="map candidates to a hardware model")
    p.add_argument("file")
    p.add_argument("--target", required=True, choices=("power", "arm"))
    _common(p)
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("traverse", help="traverse a consistent execution")
    p.add_argument("file")
    p.add_argument("--graph-index", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    _common(p)
    p.set_defaults(fn=cmd_traverse)

    p = sub.add_parser("certify", help="build and check a certification graph")
    p.add_argument("file")
    p.add_argument("--graph-index", type=int, default=0)
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--thread", type=int, required=True)
    _common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("simulate", help="drive the promise machine over a graph")
    p.add_argument("file")
    p.add_argument("--graph-index", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    _common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="compare two models on one test")
    p.add_argument("file")
    p.add_argument("model_a", choices=consistency.MODELS)
    p.add_argument("model_b", choices=consistency.MODELS)
    _common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("run", help="run a corpus against its expectations")
    p.add_argument("corpus")
    p.add_argument("--models", default=None, help="comma-separated model list")
    p.add_argument("--jobs", type=int, default=1)
    _common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("fuzz", help="random programs through the property sweep")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--threads", default="2,3")
    p.add_argument("--max-instr", type=int, default=4)
    p.add_argument("--relaxed", action="store_true")
    p.add_argument("--per-program", type=int, default=400)
    p.add_argument("--checks", default=None,
                   help=f"comma-separated subset of {','.join(CHECKS)}")
    _common(p)
    p.set_defaults(fn=cmd_fuzz)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
