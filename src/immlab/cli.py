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
from .promise import PromiseError, simulate_traversal
from .traversal import Traversal, replay


def _int_at_least(low):
    """argparse type: an int no smaller than low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _thread_counts(text):
    """argparse type: a comma-separated list of positive ints."""
    parse = _int_at_least(1)
    try:
        return tuple(parse(part) for part in text.split(","))
    except argparse.ArgumentTypeError as err:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive ints, got {text!r} ({err})") from None


# flags shared between subcommands; each subcommand takes the ones it reads
_FLAGS = {
    "--max-val": dict(type=_int_at_least(0), default=None,
                      help="override the litmus value bound"),
    "--unroll": dict(type=_int_at_least(1), default=8,
                     help="per-thread loop unroll bound"),
    "--max-candidates": dict(type=_int_at_least(1), default=None,
                             help="cap the candidate stream"),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--dump-graph": dict(metavar="DIR", default=None,
                         help="write graphs as JSON into DIR"),
}
# the flags of every subcommand that searches the candidates of one test
_SEARCH = ("--max-val", "--unroll", "--max-candidates", "--json")


def _flags(parser, *names):
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def _load(args):
    """The test in args.file. A file that cannot be read or parsed ends the
    command with exit code 2, as a usage error does."""
    try:
        with open(args.file, "rb") as fh:
            test = parse_litmus(fh.read(), args.file)
    except (OSError, ParseError) as err:
        print(f"immlab: {args.file}: {getattr(err, 'strerror', None) or err}", file=sys.stderr)
        sys.exit(2)
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


def _name_list(choices, kind):
    """argparse type: a comma-separated subset of choices."""
    def parse(text):
        names = tuple(text.split(","))
        unknown = [name for name in names if name not in choices]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {', '.join(map(repr, unknown))} "
                f"(choose from {', '.join(choices)})")
        return names
    return parse


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
    forbidden after a complete search, unknown after a truncated one. Only
    the coherent candidates are checked: every model rejects the rest."""
    report = EnumerationReport()
    hit = False
    outcomes = set()
    for cand in candidate_executions(test.program, unroll=unroll,
                                     max_candidates=max_candidates, report=report,
                                     coherent=True):
        if not check(cand.execution).consistent:
            continue
        o = cand.execution.outcome(locations=range(len(test.program.locations)))
        outcomes.add(tuple(sorted(o.items())))
        if test.assertion and assertion_holds(cand, test, o):
            hit = True
    if hit:
        verdict = "allowed"
    else:
        verdict = "forbidden" if report.complete else "unknown"
    return verdict, outcomes, report


def cmd_check(args):
    if args.model != "power" and (args.power_at_axiom or args.armv7):
        print("--power-at-axiom and --armv7 apply only to --model power", file=sys.stderr)
        return 2
    test = _load(args)
    if args.power_at_axiom or args.armv7:
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
        "pruned": report.pruned, "shapes": report.shapes,
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


def _consistent_candidates(test, unroll, max_candidates, report):
    """IMM_S-consistent candidates with their SC witness, enumeration order;
    report records whether the search was complete. Drawn from the coherent
    stream, which keeps every IMM_S-consistent candidate in order."""
    out = []
    for cand in candidate_executions(test.program, unroll=unroll,
                                     max_candidates=max_candidates, report=report,
                                     coherent=True):
        v = consistency.check_imms(cand.execution)
        if v.consistent:
            out.append((cand, sc_witness_rel(cand.execution, v)))
    return out


def _pick_graph(graphs, index, report):
    """graphs[index], or None once the reason there is none is reported;
    graphs come from the search that report describes."""
    truncated = "" if report.complete else (
        " (the search was truncated: raise --unroll or --max-candidates)")
    if not graphs:
        print("no consistent candidate executions" + truncated, file=sys.stderr)
        return None
    if not 0 <= index < len(graphs):
        print(f"--graph-index out of range (0..{len(graphs) - 1}){truncated}",
              file=sys.stderr)
        return None
    return graphs[index]


def cmd_traverse(args):
    test = _load(args)
    report = EnumerationReport()
    picked = _pick_graph(
        _consistent_candidates(test, args.unroll, args.max_candidates, report),
        args.graph_index, report)
    if picked is None:
        return 1
    cand, sc = picked
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
    threads = len(test.program.threads)
    if not 0 <= args.thread < threads:
        print(f"--thread out of range (0..{threads - 1})", file=sys.stderr)
        return 1
    report = EnumerationReport()
    picked = _pick_graph(
        _consistent_candidates(test, args.unroll, args.max_candidates, report),
        args.graph_index, report)
    if picked is None:
        return 1
    cand, sc = picked
    g = cand.execution
    trav = Traversal(g, sc=sc)
    steps = trav.traverse()
    if not 0 <= args.step <= len(steps):
        print(f"--step out of range (0..{len(steps)})", file=sys.stderr)
        return 1
    tc = replay(g, steps[: args.step])
    sprog = test.program.threads[args.thread]
    try:
        cg = build_cert_graph(g, tc, args.thread, sprog, sc=sc, unroll=args.unroll)
        diags = check_cert_compl(g, tc, cg, sprog, unroll=args.unroll)
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
    report = EnumerationReport()
    graphs = [
        (cand, sc)
        for cand, sc in _consistent_candidates(test, args.unroll, args.max_candidates,
                                               report)
        if consistency.check_imm(cand.execution).consistent
    ]
    picked = _pick_graph(graphs, args.graph_index, report)
    if picked is None:
        return 1
    cand, sc = picked
    g = cand.execution
    steps = Traversal(g, sc=sc).traverse()
    try:
        trace, outcome = simulate_traversal(g, steps, test.program, unroll=args.unroll)
    except PromiseError as err:
        print(f"simulation failed: {err}", file=sys.stderr)
        return 1
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
    except (OSError, ParseError) as err:
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
            "pruned": report.pruned, "shapes": report.shapes,
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
    results = []
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(args.jobs) as pool:
            futures = [pool.submit(run_one, p, args.models, args.unroll,
                                   args.max_candidates)
                       for p in paths]
            results = [f.result() for f in futures]
    else:
        results = [run_one(p, args.models, args.unroll, args.max_candidates)
                   for p in paths]
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
        threads=args.threads,
        max_instr=args.max_instr,
        relaxed_only=args.relaxed,
        max_candidates_per_program=args.per_program,
    )
    report = fuzz_run(args.seed, count=args.count, cfg=cfg, checks=args.checks,
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
    _flags(p, *_SEARCH, "--dump-graph")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("check", help="check a litmus assertion under a model")
    p.add_argument("file")
    p.add_argument("--model", required=True, choices=consistency.MODELS)
    p.add_argument("--power-at-axiom", action="store_true",
                   help="re-enable the co ∪ [At];po;[At] acyclicity axiom")
    p.add_argument("--armv7", action="store_true",
                   help="weaken the dependency order to the ARMv7 variant")
    _flags(p, *_SEARCH)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("outcomes", help="outcome set under a model")
    p.add_argument("file")
    p.add_argument("--model", required=True, choices=consistency.MODELS)
    _flags(p, *_SEARCH)
    p.set_defaults(fn=cmd_outcomes)

    p = sub.add_parser("map", help="map candidates to a hardware model")
    p.add_argument("file")
    p.add_argument("--target", required=True, choices=("power", "arm"))
    _flags(p, *_SEARCH, "--dump-graph")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("traverse", help="traverse a consistent execution")
    p.add_argument("file")
    p.add_argument("--graph-index", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    _flags(p, *_SEARCH)
    p.set_defaults(fn=cmd_traverse)

    p = sub.add_parser("certify", help="build and check a certification graph")
    p.add_argument("file")
    p.add_argument("--graph-index", type=int, default=0)
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--thread", type=int, required=True)
    _flags(p, *_SEARCH, "--dump-graph")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("simulate", help="drive the promise machine over a graph")
    p.add_argument("file")
    p.add_argument("--graph-index", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    _flags(p, *_SEARCH)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="compare two models on one test")
    p.add_argument("file")
    p.add_argument("model_a", choices=consistency.MODELS)
    p.add_argument("model_b", choices=consistency.MODELS)
    _flags(p, *_SEARCH)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("run", help="run a corpus against its expectations")
    p.add_argument("corpus")
    p.add_argument("--models", default=None,
                   type=_name_list(consistency.MODELS, "model"),
                   help=f"comma-separated subset of {','.join(consistency.MODELS)}")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    _flags(p, "--unroll", "--max-candidates", "--json")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("fuzz", help="random programs through the property sweep")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_int_at_least(1), default=50)
    p.add_argument("--threads", type=_thread_counts, default="2,3",
                   help="comma-separated thread counts to draw from")
    p.add_argument("--max-instr", type=_int_at_least(1), default=4)
    p.add_argument("--relaxed", action="store_true")
    p.add_argument("--per-program", type=_int_at_least(1), default=400)
    p.add_argument("--checks", default=CHECKS, type=_name_list(CHECKS, "check"),
                   help=f"comma-separated subset of {','.join(CHECKS)}")
    _flags(p, "--unroll", "--json")
    p.set_defaults(fn=cmd_fuzz)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
