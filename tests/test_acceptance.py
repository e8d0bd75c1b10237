"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import random
import time

from immlab.certification import (
    ShapeChangeError,
    build_cert_graph,
    certification_traversal,
    check_cert_compl,
)
from immlab.consistency import (
    check_c11,
    check_imm,
    check_imms,
    check_rc11,
    sc_witness_rel,
)
from immlab.enumeration import assertion_holds, candidate_executions
from immlab.execgraph import Execution
from immlab.fuzz import FuzzConfig, fuzz_run, random_program
from immlab.hwmodels import (
    check_arm,
    check_imm_via_arm,
    check_imm_via_power,
    power_ppo_fixpoint,
    split_release,
    to_arm,
    to_power,
)
from immlab.promise import simulate_traversal
from immlab.relalg import Rel
from immlab.traversal import Traversal, replay

from conftest import FIXTURES
from oracles import matrix_closure, matrix_compose, power_fixpoint_oracle

FUZZ_SEED = 409123


def _verdict(test, cands, check):
    return "allowed" if any(
        check(c.execution).consistent and assertion_holds(c, test) for c in cands
    ) else "forbidden"


def report(number, ok, text):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, text


def test_criterion_1_litmus_verdicts(corpus, corpus_candidates):
    expected = {
        "mp": "forbidden",
        "lb-rel": "forbidden",
        "lb-acq": "forbidden",
        "lb-addr": "forbidden",
        "rfi-ppo": "allowed",
        "detour": "forbidden",
        "iriw-ra": "allowed",
        "iriw-sc": "forbidden",
        "psc-ar": "forbidden",
        "strong-rmw": "forbidden",
        "lb-data": "allowed",
    }
    failures = []
    slowest = 0.0
    for name, want in expected.items():
        t0 = time.time()
        got = _verdict(corpus[name], corpus_candidates[name], check_imm)
        elapsed = time.time() - t0
        slowest = max(slowest, elapsed)
        if got != want:
            failures.append(f"{name}: imm says {got}, wanted {want}")
        if elapsed >= 5.0:
            failures.append(f"{name}: took {elapsed:.1f}s (budget 5s)")

    # the strong-RMW graph: its ARM image is inconsistent, the normal-mode
    # variant without the trailing barrier is ARM-allowed
    strong = [c for c in corpus_candidates["strong-rmw"]
              if assertion_holds(c, corpus["strong-rmw"])]
    if not strong or any(check_arm(to_arm(c.execution)).consistent for c in strong):
        failures.append("strong-rmw: ARM image unexpectedly consistent")
    normal = [c for c in corpus_candidates["strong-rmw-normal"]
              if assertion_holds(c, corpus["strong-rmw-normal"])]
    if not any(check_arm(to_arm(c.execution)).consistent for c in normal):
        failures.append("strong-rmw-normal: ARM image unexpectedly inconsistent")

    from immlab.hwmodels import check_power
    fixture = Execution.from_json(
        json.loads((FIXTURES / "power_sync_fences.json").read_text())
    )
    if not check_power(fixture).consistent:
        failures.append("fence fixture: not POWER-consistent")
    if not (fixture.po | fixture.rf).is_acyclic():
        failures.append("fence fixture: po ∪ rf cyclic")

    report(1, not failures,
           f"litmus verdict table exact, slowest test {slowest:.2f}s"
           + ("" if not failures else f"; failures: {failures}"))


def test_criterion_2_model_inclusions(corpus_candidates):
    violations = []
    checked = 0
    for name, cands in corpus_candidates.items():
        for c in cands:
            g = c.execution
            checked += 1
            imm = check_imm(g).consistent
            if imm and not check_imms(g).consistent:
                violations.append((name, "imm=>imms"))
            if imm and not check_c11(g).consistent:
                violations.append((name, "imm=>c11"))
            if check_rc11(g).consistent and not check_c11(g).consistent:
                violations.append((name, "rc11=>c11"))
    fuzz = fuzz_run(FUZZ_SEED, count=32, checks=("inclusions",))
    fuzz_bad = [v for v in fuzz.violations]
    ok = not violations and not fuzz_bad and fuzz.candidates >= 1000
    report(2, ok,
           f"model inclusions: {checked} corpus + {fuzz.candidates} fuzzed candidates "
           f"(seed {FUZZ_SEED}), {len(violations) + len(fuzz_bad)} violation(s)")


def test_criterion_3_hardware_mapping_theorems(corpus_candidates):
    t0 = time.time()
    violations = []
    checked = 0
    for name, cands in corpus_candidates.items():
        for c in cands:
            g = c.execution
            checked += 1
            imm = check_imm(g).consistent
            split = split_release(g)
            if check_imm_via_power(g).consistent and not imm:
                violations.append((name, "power=>imm"))
            if check_imm_via_arm(g).consistent and not imm:
                violations.append((name, "arm=>imm"))
            if check_imm(split).consistent and not imm:
                violations.append((name, "split-release"))
    fuzz = fuzz_run(FUZZ_SEED, count=32, checks=("mappings",))
    elapsed = time.time() - t0
    ok = (not violations and not fuzz.violations
          and fuzz.candidates >= 1000 and elapsed < 600)
    report(3, ok,
           f"hardware mapping theorems: {checked} corpus + {fuzz.candidates} fuzzed "
           f"candidates, {len(violations) + len(fuzz.violations)} counterexample(s), "
           f"{elapsed:.0f}s (budget 600s)")


def _consistent_with_sc(cands):
    for c in cands:
        v = check_imms(c.execution)
        if v.consistent:
            yield c, sc_witness_rel(c.execution, v)


def test_criterion_4_traversal_totality(corpus, corpus_candidates):
    total = 0
    failures = []
    for name, cands in corpus_candidates.items():
        for c, sc in _consistent_with_sc(cands):
            g = c.execution
            trav = Traversal(g, sc=sc)
            try:
                steps = trav.traverse()  # validates every intermediate config
            except Exception as err:
                failures.append((name, repr(err)))
                continue
            if replay(g, steps) != trav.final_config():
                failures.append((name, "did not reach ⟨E, W⟩"))
            total += 1

    lb = corpus["lb-data"]
    g = next(c.execution for c in corpus_candidates["lb-data"]
             if assertion_holds(c, lb) and check_imm(c.execution).consistent)
    got = [(s.kind, str(g.events[s.event])) for s in Traversal(g).traverse()]
    want = [("issue", "(0,1)"), ("cover", "(1,0)"), ("issue", "(1,1)"),
            ("cover", "(1,1)"), ("cover", "(0,0)"), ("cover", "(0,1)")]
    if got != want:
        failures.append(("lb-data", f"step order {got}"))
    report(4, not failures,
           f"traversal totality on {total} consistent corpus executions, "
           f"documented tie-break reproduces the two-thread example order"
           + ("" if not failures else f"; failures: {failures[:3]}"))


def test_criterion_5_certification(corpus, corpus_candidates):
    built = 0
    failures = []
    shape_changes = 0
    for name, cands in corpus_candidates.items():
        test = corpus[name]
        for c, sc in _consistent_with_sc(cands):
            g = c.execution
            trav = Traversal(g, sc=sc)
            steps = trav.traverse()
            for k in range(len(steps) + 1):
                tc = replay(g, steps[:k])
                for tid in g.tids():
                    pending = (tc.issued - tc.covered) & g.thread_events(tid)
                    if not pending:
                        continue
                    try:
                        cg = build_cert_graph(
                            g, tc, tid, sprog=test.program.threads[tid], sc=sc
                        )
                    except ShapeChangeError:
                        shape_changes += 1
                        continue
                    except Exception as err:
                        failures.append((name, k, tid, repr(err)))
                        continue
                    built += 1
                    diags = check_cert_compl(
                        g, tc, cg, sprog=test.program.threads[tid]
                    )
                    if diags:
                        failures.append((name, k, tid, diags))
                        continue
                    if not check_imms(cg.graph).consistent:
                        failures.append((name, k, tid, "cert graph inconsistent"))
                        continue
                    try:
                        certification_traversal(cg)
                    except Exception as err:
                        failures.append((name, k, tid, repr(err)))
    ok = not failures and shape_changes == 0 and built > 100
    report(5, ok,
           f"certification: {built} (graph, config, thread) triples pass "
           f"cert-compl, consistency, and thread-only traversal; "
           f"{shape_changes} shape-change exclusion(s)"
           + ("" if not failures else f"; failures: {failures[:3]}"))


def test_criterion_6_promise_end_to_end(corpus, corpus_candidates):
    failures = []
    simulated = 0
    outcomes_hit = 0
    for name, test in corpus.items():
        if not test.program.is_relaxed_only():
            continue
        want = set()
        have = set()
        for c in corpus_candidates[name]:
            g = c.execution
            if not check_imm(g).consistent:
                continue
            want.add(tuple(sorted(g.outcome().items())))
            try:
                steps = Traversal(g).traverse()
                _, outcome = simulate_traversal(g, steps, test.program)
            except Exception as err:
                failures.append((name, repr(err)))
                continue
            simulated += 1
            if outcome != g.outcome():
                failures.append((name, f"{outcome} != {g.outcome()}"))
            have.add(tuple(sorted(outcome.items())))
        if want != have:
            failures.append((name, "outcome sets differ"))
        outcomes_hit += len(have)
    fuzz = fuzz_run(FUZZ_SEED + 1, count=24, cfg=FuzzConfig(relaxed_only=True),
                    checks=("promise",))
    ok = not failures and not fuzz.violations and fuzz.simulated >= 100
    report(6, ok,
           f"promise round trip: {simulated} corpus + {fuzz.simulated} fuzzed relaxed "
           f"executions simulated with all invariants, every graph outcome reproduced"
           + ("" if not failures else f"; failures: {failures[:3]}"))


def test_criterion_7_oracle_suites():
    rng = random.Random(FUZZ_SEED)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(1, 10)
        pairs = {(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 2 * n))}
        other = {(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 2 * n))}
        r, s = Rel(n, pairs), Rel(n, other)
        if r.plus().pairs != matrix_closure(pairs, n):
            mismatches += 1
        if r.compose(s).pairs != matrix_compose(pairs, other, n):
            mismatches += 1

    fixpoint_checked = 0
    fixpoint_bad = 0
    rng = random.Random(FUZZ_SEED + 2)
    cfg = FuzzConfig(threads=(2, 3), max_instr=3)
    while fixpoint_checked < 100:
        program = random_program(rng, cfg)
        for cand in candidate_executions(program, max_candidates=3):
            gp = to_power(split_release(cand.execution))
            rels = power_ppo_fixpoint(gp)
            po = gp.po
            rf, fr = gp.rf, gp.rf.inverse().compose(gp.co)
            seeds = {
                "addr": gp.addr.pairs,
                "data": gp.data.pairs,
                "rdw": ((fr - po).compose(rf - po) & po).pairs,
                "rfi": (rf & po).pairs,
                "ctrl_isync": gp.ident(gp.R).seq(
                    gp.ctrl, gp.ident(gp.fences_with_mode("isync")), po).pairs,
                "detour": ((gp.co - po).compose(rf - po) & po).pairs,
                "ctrl": gp.ctrl.pairs,
                "addr_po_opt": gp.addr.compose(po.opt()).pairs,
                "po_loc": gp.po_loc.pairs,
            }
            ii, ic, ci, cc = power_fixpoint_oracle(seeds)
            if (rels.ii.pairs, rels.ic.pairs, rels.ci.pairs, rels.cc.pairs) != \
                    (ii, ic, ci, cc):
                fixpoint_bad += 1
            fixpoint_checked += 1
            if fixpoint_checked >= 100:
                break
    ok = mismatches == 0 and fixpoint_bad == 0
    report(7, ok,
           f"oracle suites: 200 relation checks and {fixpoint_checked} dependency "
           f"fixpoints match their independent oracles exactly "
           f"({mismatches + fixpoint_bad} mismatch(es))")
