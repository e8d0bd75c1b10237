"""Command-line front end: enumeration, consistency checks, hardware maps,
traversal/certification/simulation drivers, corpus runner, model comparison,
and the fuzzer."""

from __future__ import annotations

import argparse
import collections
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
    UNROLL,
    EnumerationReport,
    SearchSpace,
    assertion_test,
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
                      help="override the litmus value bound (reads take 0..N)"),
    "--unroll": dict(type=_int_at_least(1), default=UNROLL,
                     help="per-thread loop unroll bound"),
    "--max-candidates": dict(type=_int_at_least(1), default=None,
                             help="cap the candidate stream"),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--dump-graph": dict(metavar="DIR", default=None,
                         help="write graphs as JSON into DIR"),
    "--model": dict(required=True, choices=consistency.MODELS),
    "--graph-index": dict(type=int, default=0),
    "--trace": dict(action="store_true"),
}
# the flags of every subcommand that searches the candidates of one test
_SEARCH = ("--max-val", "--unroll", "--max-candidates", "--json")


def _flags(parser, *names):
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def _read(path):
    """The test in the file at path; OSError or ParseError when it cannot
    be read or parsed."""
    with open(path, "rb") as fh:
        return parse_litmus(fh.read(), path)


def _fail(path, err):
    """End the command on a path it cannot use, with exit code 2 as a usage
    error does."""
    print(f"immlab: {path}: {getattr(err, 'strerror', None) or err}", file=sys.stderr)
    sys.exit(2)


def _load(args):
    """The test in args.file, its value bound overridden by --max-val."""
    try:
        test = _read(args.file)
    except (OSError, ParseError) as err:
        _fail(args.file, err)
    if args.max_val is not None:
        test.program.max_val = args.max_val
    return test


def _dump_dir(args):
    """Make the --dump-graph directory, before the search that fills it."""
    if args.dump_graph:
        try:
            os.makedirs(args.dump_graph, exist_ok=True)
        except OSError as err:
            _fail(args.dump_graph, err)


def _dump(args, name, graph):
    if not args.dump_graph:
        return
    path = os.path.join(args.dump_graph, name + ".json")
    try:
        with open(path, "w") as fh:
            fh.write(graph.dumps())
    except OSError as err:
        _fail(path, err)


def _name_list(choices, kind):
    """argparse type: a comma-separated subset of choices, each named once."""
    def parse(text):
        names = tuple(text.split(","))
        unknown = [name for name in names if name not in choices]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {', '.join(map(repr, unknown))} "
                f"(choose from {', '.join(choices)})")
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise argparse.ArgumentTypeError(
                f"{kind} {', '.join(map(repr, repeated))} given more than once")
        return names
    return parse


def _truncation(complete):
    """The note that ends the report of a search that was cut short."""
    return "" if complete else " (the search was truncated: raise --unroll or --max-candidates)"


def _emit(args, doc, human, complete=None):
    """doc as JSON under --json, else human. Given whether the search behind
    them was complete, doc says so and the first line of human notes a
    truncation."""
    if complete is not None:
        doc["complete"] = complete
        head, sep, rest = human.partition("\n")
        human = head + _truncation(complete) + sep + rest
    print(json.dumps(doc, indent=1, default=str) if args.json else human)


def _search(test, unroll, max_candidates, check=None, wanted=None, space=None):
    """test's candidate search: its report, which describes the search once
    the stream is drained, and a stream of (candidate, verdict). Without
    check the stream holds every candidate, with verdict None. With check
    it holds the candidates that check finds consistent, with its verdict,
    drawn from the coherent stream: that stream keeps each of them in
    order, since every model rejects the completions it drops. Given
    wanted, it checks only the completions that wanted accepts when the
    stream reaches them (candidate_executions); the cap still counts every
    completion reached.

    The stream draws on space, the test's SearchSpace at unroll, when one
    is given, and on a space of its own otherwise: the thread runs and
    shapes are the space's, while the report, the cap and the completions
    counted against it are this search's alone."""
    report = EnumerationReport()
    stream = candidate_executions(test.program, unroll=unroll, max_candidates=max_candidates,
                                  report=report, coherent=check is not None, wanted=wanted,
                                  space=space)
    if check is None:
        return report, ((cand, None) for cand in stream)
    return report, ((cand, v) for cand in stream if (v := check(cand.execution)).consistent)


def _outcome_keys(test):
    """A function of a candidate of test to its outcome key: its final
    values at the declared locations, 0 where nothing is written, as sorted
    pairs, read from its final memory, with no graph. The candidates of a
    shape with no co group share their write-value class's final memory
    (see _Completions), so the key of the last memory read is kept and
    given again while the memory is the same object."""
    locs = range(len(test.program.locations))
    zeros = (0,) * len(locs)
    last = key = None

    def outcome_key(cand):
        nonlocal last, key
        final = cand.final
        if final is not last:
            last, key = final, tuple(zip(locs, map(final.get, locs, zeros)))
        return key

    return outcome_key


def _named(test, pairs):
    """(location, value) pairs as a dict keyed by location name."""
    names = test.program.locations
    return {names[loc] if loc < len(names) else f"loc{loc}": val for loc, val in pairs}


def _model_entry(test, model, unroll, max_candidates, check=None, space=None):
    """model's entry for test, and the outcome keys of its consistent
    candidates. The verdict is allowed if a consistent candidate meets the
    assertion (every candidate meets an empty one); else forbidden after a
    complete search, unknown after a truncated one. check is the model's
    own unless given; the search draws on space when given (_search).

    Only the completions that can change the entry are checked: one whose
    outcome key no consistent candidate has yet, or one that meets the
    assertion while no consistent candidate has. The rest are skipped,
    decided on the final memory and registers the stream gives each
    completion, so no graph is built for them."""
    hit = False
    outcomes = set()
    outcome_key, holds = _outcome_keys(test), assertion_test(test)

    def wanted(cand):
        return not hit and holds(cand) or outcome_key(cand) not in outcomes

    report, stream = _search(test, unroll, max_candidates,
                             check or consistency.checker_for(model), wanted, space)
    for cand, _ in stream:
        outcomes.add(outcome_key(cand))
        hit = hit or holds(cand)
    verdict = "allowed" if hit else "forbidden" if report.complete else "unknown"
    expected = test.expectations.get(model)
    entry = {"verdict": verdict, "expected": expected,
             "ok": expected is None or expected == verdict, "complete": report.complete,
             "pruned": report.pruned, "shapes": report.shapes}
    return entry, outcomes


def cmd_enumerate(args):
    test = _load(args)
    _dump_dir(args)
    report, stream = _search(test, args.unroll, args.max_candidates)
    outcomes = set()
    outcome_key = _outcome_keys(test)
    for i, (cand, _) in enumerate(stream):
        _dump(args, f"candidate-{i:05d}", cand.execution)
        outcomes.add(outcome_key(cand))
    doc = {"schema": 1, "test": test.name, "candidates": report.candidates,
           "truncated_threads": report.truncated_threads, "outcomes": sorted(outcomes)}
    _emit(args, doc, f"{test.name}: {report.candidates} candidate executions, "
          f"{len(outcomes)} raw outcome(s)", report.complete)
    return 0


def cmd_check(args):
    if args.model != "power" and (args.power_at_axiom or args.armv7):
        print("--power-at-axiom and --armv7 apply only to --model power", file=sys.stderr)
        return 2
    test = _load(args)
    check = None
    if args.power_at_axiom or args.armv7:
        check = functools.partial(hwmodels.check_imm_via_power,
                                  at_axiom=args.power_at_axiom, armv7=args.armv7)
    entry, _ = _model_entry(test, args.model, args.unroll, args.max_candidates, check)
    expected = entry["expected"]
    human = f"{test.name} [{args.model}]: assertion {entry['verdict']}" + (
        "" if expected is None
        else f" (expected {expected}: {'ok' if entry['ok'] else 'MISMATCH'})")
    _emit(args, {"schema": 1, "test": test.name, "model": args.model, **entry}, human)
    return 0 if entry["ok"] else 1


def cmd_outcomes(args):
    test = _load(args)
    entry, outcomes = _model_entry(test, args.model, args.unroll, args.max_candidates)
    rendered = [_named(test, oc) for oc in sorted(outcomes)]
    lines = [f"{test.name} [{args.model}]: {len(rendered)} outcome(s)"]
    lines += ["  " + " ".join(f"{k}={v}" for k, v in oc.items()) for oc in rendered]
    _emit(args, {"schema": 1, "test": test.name, "model": args.model, "outcomes": rendered},
          "\n".join(lines), entry["complete"])
    return 0


def cmd_map(args):
    test = _load(args)
    _dump_dir(args)
    problems = 0
    report, stream = _search(test, args.unroll, args.max_candidates)
    for i, (cand, _) in enumerate(stream):
        g = cand.execution
        if args.target == "power":
            src = hwmodels.split_release(g)
            mapped = hwmodels.to_power(src)
        else:
            src = g
            mapped = hwmodels.to_arm(g)
        if hwmodels.correspondence_check(src, mapped):
            problems += 1
        _dump(args, f"{args.target}-{i:05d}", mapped)
    doc = {"schema": 1, "test": test.name, "target": args.target,
           "mapped": report.candidates, "correspondence_failures": problems}
    _emit(args, doc, f"{test.name} → {args.target}: mapped {report.candidates} candidates, "
          f"{problems} correspondence failure(s)", report.complete)
    return 0 if problems == 0 else 1


def _pick_graph(test, args, imm=False):
    """The --graph-index-th IMM_S-consistent candidate of test (IMM-consistent
    too when imm) as (graph, its SC witness, its traversal steps), or None
    once the reason there is none is reported."""
    report, stream = _search(test, args.unroll, args.max_candidates, consistency.check_imms)
    graphs = [(cand.execution, v) for cand, v in stream
              if not imm or consistency.check_imm(cand.execution).consistent]
    if not graphs:
        print("no consistent candidate executions" + _truncation(report.complete),
              file=sys.stderr)
        return None
    if not 0 <= args.graph_index < len(graphs):
        print(f"--graph-index out of range (0..{len(graphs) - 1})"
              + _truncation(report.complete), file=sys.stderr)
        return None
    g, v = graphs[args.graph_index]
    sc = sc_witness_rel(g, v)
    return g, sc, Traversal(g, sc=sc).traverse()


def cmd_traverse(args):
    test = _load(args)
    picked = _pick_graph(test, args)
    if picked is None:
        return 1
    g, _, steps = picked
    if args.trace or not args.json:
        for step in steps:
            print(json.dumps(step.to_json(g)))
    if args.json:
        print(json.dumps({"schema": 1, "test": test.name,
                          "graph_index": args.graph_index, "steps": len(steps)}))
    return 0


def cmd_certify(args):
    test = _load(args)
    _dump_dir(args)
    threads = len(test.program.threads)
    if not 0 <= args.thread < threads:
        print(f"--thread out of range (0..{threads - 1})", file=sys.stderr)
        return 1
    picked = _pick_graph(test, args)
    if picked is None:
        return 1
    g, sc, steps = picked
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
    picked = _pick_graph(test, args, imm=True)
    if picked is None:
        return 1
    g, _, steps = picked
    try:
        trace, outcome = simulate_traversal(g, steps, test.program, unroll=args.unroll)
    except PromiseError as err:
        print(f"simulation failed: {err}", file=sys.stderr)
        return 1
    if args.trace or not args.json:
        for line in trace:
            print(json.dumps(line))
    rendered = _named(test, sorted(outcome.items()))
    matches = outcome == g.outcome()
    doc = {"schema": 1, "test": test.name, "graph_index": args.graph_index,
           "outcome": rendered, "machine_steps": len(trace), "matches_graph": matches}
    _emit(args, doc, f"machine outcome: {rendered} "
          f"({'matches' if matches else 'DIFFERS FROM'} the graph)")
    return 0 if matches else 1


def cmd_compare(args):
    """Consistency of every candidate under two models, and the inclusions
    of their outcome sets, which a truncated search leaves unknown."""
    a, b = args.model_a, args.model_b
    if a == b:
        print(f"compare needs two different models, got {a} twice", file=sys.stderr)
        return 2
    test = _load(args)
    chk_a, chk_b = consistency.checker_for(a), consistency.checker_for(b)
    seen = collections.Counter()  # (consistent under a, under b) -> candidates
    outcomes_a, outcomes_b = set(), set()
    report, stream = _search(test, args.unroll, args.max_candidates)
    outcome_key = _outcome_keys(test)
    for cand, _ in stream:
        g = cand.execution
        ca, cb = chk_a(g).consistent, chk_b(g).consistent
        seen[ca, cb] += 1
        key = outcome_key(cand)
        if ca:
            outcomes_a.add(key)
        if cb:
            outcomes_b.add(key)
    a_in_b = outcomes_a <= outcomes_b if report.complete else None
    b_in_a = outcomes_b <= outcomes_a if report.complete else None
    doc = {
        "schema": 1, "test": test.name, "models": [a, b],
        "consistent": {"both": seen[True, True], f"only_{a}": seen[True, False],
                       f"only_{b}": seen[False, True], "neither": seen[False, False]},
        "outcome_inclusion": {f"{a}⊆{b}": a_in_b, f"{b}⊆{a}": b_in_a},
    }
    human = (
        f"{test.name}: {a} vs {b}: both={seen[True, True]} only-{a}={seen[True, False]} "
        f"only-{b}={seen[False, True]} neither={seen[False, False]}; "
        f"outcomes {a}⊆{b}: {'unknown' if a_in_b is None else a_in_b}"
    )
    _emit(args, doc, human, report.complete)
    return 0


def run_one(path, models, unroll, max_candidates):
    started = time.time()
    try:
        test = _read(path)
    except (OSError, ParseError) as err:
        return {"file": path, "test": path, "models": {}, "ok": False,
                "error": str(err), "seconds": round(time.time() - started, 3)}
    entry = {"file": path, "test": test.name, "models": {}, "ok": True}
    models = models or sorted(test.expectations)
    # the thread runs and shapes do not depend on the model: every model's
    # search draws its own stream from one space
    space = SearchSpace(test.program, unroll) if models else None
    for model in models:
        found, outcomes = _model_entry(test, model, unroll, max_candidates, space=space)
        entry["models"][model] = {**found, "outcomes": len(outcomes)}
        entry["ok"] = entry["ok"] and found["ok"]
    entry["seconds"] = round(time.time() - started, 3)
    return entry


def cmd_run(args):
    paths = []
    for root, _, files in os.walk(args.corpus, onerror=lambda err: _fail(err.filename, err)):
        for name in sorted(files):
            if name.endswith(".litmus"):
                paths.append(os.path.join(root, name))
    if not paths:
        _fail(args.corpus, "no .litmus file")
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
    _flags(p, "--model")
    p.add_argument("--power-at-axiom", action="store_true",
                   help="re-enable the co ∪ [At];po;[At] acyclicity axiom")
    p.add_argument("--armv7", action="store_true",
                   help="weaken the dependency order to the ARMv7 variant")
    _flags(p, *_SEARCH)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("outcomes", help="outcome set under a model")
    p.add_argument("file")
    _flags(p, "--model", *_SEARCH)
    p.set_defaults(fn=cmd_outcomes)

    p = sub.add_parser("map", help="map candidates to a hardware model")
    p.add_argument("file")
    p.add_argument("--target", required=True, choices=("power", "arm"))
    _flags(p, *_SEARCH, "--dump-graph")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("traverse", help="traverse a consistent execution")
    p.add_argument("file")
    _flags(p, "--graph-index", "--trace", *_SEARCH)
    p.set_defaults(fn=cmd_traverse)

    p = sub.add_parser("certify", help="build and check a certification graph")
    p.add_argument("file")
    _flags(p, "--graph-index")
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--thread", type=int, required=True)
    _flags(p, *_SEARCH, "--dump-graph")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("simulate", help="drive the promise machine over a graph")
    p.add_argument("file")
    _flags(p, "--graph-index", "--trace", *_SEARCH)
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
