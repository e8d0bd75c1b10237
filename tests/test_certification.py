import pytest

from immlab.certification import (
    ShapeChangeError,
    build_cert_graph,
    cert_co,
    cert_events,
    certification_traversal,
    check_cert_compl,
    determined,
    reexecute_labels,
)
from immlab.consistency import check_imm, check_imms, sc_witness_rel
from immlab.enumeration import candidate_executions
from immlab.program import parse_litmus
from immlab.traversal import Traversal, TraversalConfig, replay

CERT_SRC = """
prog "CERT-FIG"
locations x y z
vals 0..3
thread 0:
  r[rlx] r1 x
  w[rlx] y r1
  w[rlx] x 2
thread 1:
  w[rlx] x 1
  r[rlx] r2 y
  r[rlx] r3 x
  w[rlx] z r2
  w[rlx] x 3
"""

CO_PUSH_SRC = """
prog "CO-PUSH"
locations x
vals 0..3
thread 0:
  w[rlx] x 2
thread 1:
  w[rlx] x 1
  w[rlx] x 3
"""


def _find(src, pick):
    test = parse_litmus(src)
    for c in candidate_executions(test.program):
        g = c.execution
        if pick(g) and check_imm(g).consistent:
            return test, g
    raise AssertionError("graph not found")


@pytest.fixture(scope="module")
def cert_scene():
    def pick(g):
        ix = {str(e): i for i, e in enumerate(g.events)}
        lab = {str(e): g.labels[i] for i, e in enumerate(g.events)}
        return (
            (lab["(0,0)"].val, lab["(1,1)"].val, lab["(1,2)"].val) == (1, 1, 2)
            and (ix["(1,0)"], ix["(0,0)"]) in g.rf.pairs
            and (ix["(0,2)"], ix["(1,2)"]) in g.rf.pairs
            and (ix["(1,0)"], ix["(0,2)"]) in g.co.pairs
        )

    test, g = _find(CERT_SRC, pick)
    ix = {str(e): i for i, e in enumerate(g.events)}
    inits = frozenset(g.init_events)
    tc = TraversalConfig(
        inits | {ix["(1,0)"]},
        inits | {ix["(1,0)"], ix["(0,1)"], ix["(1,3)"]},
    )
    return test, g, ix, tc


class TestDetermined:
    def test_supplementary_formula(self, cert_scene):
        _, g, ix, tc = cert_scene
        det = determined(g, tc.covered, tc.issued)
        assert ix["(1,1)"] in det  # deps path into the issued z-write
        assert ix["(1,2)"] not in det
        assert ix["(0,0)"] in det  # feeds the issued y-write

    def test_full_coverage_makes_everything_determined(self, cert_scene):
        _, g, _, _ = cert_scene
        full = TraversalConfig(frozenset(range(g.n)), frozenset(g.W))
        assert determined(g, full.covered, full.issued) == frozenset(range(g.n))

    def test_initial_config_inits_only(self, cert_scene):
        _, g, _, _ = cert_scene
        inits = frozenset(g.init_events)
        assert determined(g, inits, inits) == inits


class TestCertEvents:
    def test_drops_non_prefix_events(self, cert_scene):
        _, g, ix, tc = cert_scene
        keep = cert_events(g, tc, 1)
        dropped = {ix["(0,0)"], ix["(0,2)"], ix["(1,4)"]}
        assert dropped & keep == set()
        assert {ix["(0,1)"], ix["(1,0)"], ix["(1,1)"], ix["(1,2)"], ix["(1,3)"]} <= keep

    def test_full_traversal_keeps_everything(self, cert_scene):
        _, g, _, _ = cert_scene
        full = TraversalConfig(frozenset(range(g.n)), frozenset(g.W))
        assert cert_events(g, full, 1) == frozenset(range(g.n))

    def test_relaxed_formula_on_relaxed_graph(self, cert_scene):
        _, g, _, tc = cert_scene
        assert cert_events(g, tc, 1, "relaxed") == cert_events(g, tc, 1, "full")


class TestCertCo:
    def test_pushes_non_issued_late(self):
        def pick(g):
            ix = {str(e): i for i, e in enumerate(g.events)}
            return (
                (ix["(1,0)"], ix["(0,0)"]) in g.co.pairs
                and (ix["(0,0)"], ix["(1,1)"]) in g.co.pairs
            )

        test, g = _find(CO_PUSH_SRC, pick)
        ix = {str(e): i for i, e in enumerate(g.events)}
        inits = frozenset(g.init_events)
        tc = TraversalConfig(inits, inits | {ix["(0,0)"], ix["(1,1)"]})
        trav = Traversal(g)
        assert trav.check_config(tc) == []
        keep = cert_events(g, tc, 1)
        co = cert_co(g, tc, 1, keep)
        # source co has e21 before e11; certification reverses the pair and
        # slots e21 immediately before its same-thread issued successor
        assert (ix["(0,0)"], ix["(1,0)"]) in co.pairs
        assert (ix["(1,0)"], ix["(1,1)"]) in co.immediate().pairs

    def test_all_issued_keeps_source_co(self, cert_scene):
        _, g, _, _ = cert_scene
        full = TraversalConfig(frozenset(range(g.n)), frozenset(g.W))
        co = cert_co(g, full, 1, frozenset(range(g.n)))
        assert co == g.co

    def test_totality_on_random_configs(self, corpus_candidates):
        checked = 0
        for name in ("lb-data", "mp", "detour"):
            for c in corpus_candidates[name]:
                g = c.execution
                v = check_imms(g)
                if not v.consistent:
                    continue
                sc = sc_witness_rel(g, v)
                trav = Traversal(g, sc=sc)
                steps = trav.traverse()
                for k in range(len(steps) + 1):
                    tc = replay(g, steps[:k])
                    for tid in g.tids():
                        keep = cert_events(g, tc, tid)
                        co = cert_co(g, tc, tid, keep)
                        for loc in g.locations():
                            ws = frozenset(
                                w for w in keep if w in g.W and g.loc_of[w] == loc
                            )
                            assert co.is_total_on(ws)
                        checked += 1
        assert checked > 50


class TestReexecution:
    def test_fig_scene_relabels_resourced_read(self, cert_scene):
        test, g, ix, tc = cert_scene
        cg = build_cert_graph(g, tc, 1, sprog=test.program.threads[1])
        local = cg.graph
        lab = {str(local.events[i]): local.labels[i] for i in range(local.n)}
        assert lab["(1,2)"].val == 1  # re-sourced from the local x-write
        assert lab["(1,3)"].val == 1  # depends on the determined y-read: unchanged
        rf = {(str(local.events[a]), str(local.events[b])) for a, b in local.rf.pairs}
        assert ("(1,0)", "(1,2)") in rf

    def test_no_nondetermined_reads_keeps_labels(self, cert_scene):
        test, g, _, _ = cert_scene
        full = TraversalConfig(frozenset(range(g.n)), frozenset(g.W))
        cg = build_cert_graph(g, full, 1, sprog=test.program.threads[1])
        assert cg.graph.signature()[0] == g.signature()[0]

    def test_pinned_value_propagates_through_data(self, cert_scene):
        # hand computation: pin r3 to the local write's value 1; the z-write
        # depends on r2 (still 1), so its value must stay 1
        from immlab.certification import cert_determined, cert_rf
        test, g, ix, tc = cert_scene
        keep = cert_events(g, tc, 1)
        det = cert_determined(g, tc, 1, keep)
        assert ix["(1,2)"] not in det
        rf, _ = cert_rf(g, tc, 1, keep, det)
        labels = reexecute_labels(g, 1, keep, rf, test.program.threads[1])
        assert labels[ix["(1,2)"]].val == 1
        assert labels[ix["(1,3)"]].val == 1

    def test_cas_success_flip_reported(self):
        # A legal configuration cannot flip a CAS: [R^ex];po ⊆ deps makes
        # every exclusive read before an issued write determined. The error
        # path is for doctored reads-from choices, exercised directly here.
        src = """
prog "FLIP"
locations x y z
vals 0..2
thread 0:
  w[rlx] x 1
thread 1:
  r[rlx] a x
  cas[rlx,rlx] b y a 1
  w[rlx] z 1
"""
        test = parse_litmus(src)
        target = None
        for c in candidate_executions(test.program):
            g = c.execution
            regs = c.final_regs[1]
            if regs.get("a") == 1 and regs.get("b") == 0 and check_imm(g).consistent:
                target = g
                break
        assert target is not None
        g = target
        ix = {str(e): i for i, e in enumerate(g.events)}
        keep = frozenset(g.init_events) | {ix["(1,0)"], ix["(1,1)"], ix["(1,2)"]}
        from immlab.relalg import Rel
        doctored = Rel(g.n, [
            (ix["init(0)"], ix["(1,0)"]),  # a becomes 0, so the CAS succeeds
            (ix["init(1)"], ix["(1,1)"]),
        ])
        with pytest.raises(ShapeChangeError):
            reexecute_labels(g, 1, keep, doctored, test.program.threads[1])

    def test_exclusive_reads_before_issued_writes_are_determined(self, corpus,
                                                                 corpus_candidates):
        from immlab.certification import cert_determined
        for c in corpus_candidates["atomicity"]:
            g = c.execution
            v = check_imms(g)
            if not v.consistent:
                continue
            sc = sc_witness_rel(g, v)
            steps = Traversal(g, sc=sc).traverse()
            for k in range(len(steps) + 1):
                tc = replay(g, steps[:k])
                for tid in g.tids():
                    keep = cert_events(g, tc, tid)
                    det = cert_determined(g, tc, tid, keep)
                    issued_local = tc.issued & g.thread_events(tid)
                    for r in g.R_ex & keep:
                        if g.tid_of(r) == tid and any(
                            (r, w) in g.po.pairs for w in issued_local
                        ):
                            assert r in det


class TestIssuedRmwReadParts:
    def test_init_sourced_rmw_read_part_is_kept(self):
        # the read part of an issued strong RMW reading from an init write
        # must survive into the certification graph (init is always there)
        src = """
prog "RMW-INIT"
locations x y
vals 0..2
thread 0:
  w[rlx] y 1
thread 1:
  fadd[rlx,rlx,strong] a x 1
"""
        test = parse_litmus(src)
        target = None
        for c in candidate_executions(test.program):
            g = c.execution
            if c.final_regs[1]["a"] == 0 and check_imm(g).consistent:
                target = g
                break
        g = target
        ix = {str(e): i for i, e in enumerate(g.events)}
        inits = frozenset(g.init_events)
        tc = TraversalConfig(inits, inits | {ix["(0,0)"], ix["(1,1)"]})
        assert Traversal(g).check_config(tc) == []
        cg = build_cert_graph(g, tc, 0, sprog=test.program.threads[0])
        assert ix["(1,0)"] in cg.keep  # the exclusive read stays
        local_rmw = cg.graph.rmw
        assert len(local_rmw) == 1
        assert check_cert_compl(g, tc, cg, sprog=test.program.threads[0]) == []
        assert check_imms(cg.graph).consistent
        certification_traversal(cg)


class TestEndToEnd:
    def test_fig_scene_passes_all_clauses(self, cert_scene):
        test, g, ix, tc = cert_scene
        cg = build_cert_graph(g, tc, 1, sprog=test.program.threads[1])
        assert check_cert_compl(g, tc, cg, sprog=test.program.threads[1]) == []
        assert check_imms(cg.graph).consistent
        steps = certification_traversal(cg)
        assert all(cg.graph.events[s.event].tid == 1 for s in steps)

    def test_full_config_trivially_passes(self, cert_scene):
        test, g, _, _ = cert_scene
        full = TraversalConfig(frozenset(range(g.n)), frozenset(g.W))
        cg = build_cert_graph(g, full, 1, sprog=test.program.threads[1])
        assert check_cert_compl(g, full, cg, sprog=test.program.threads[1]) == []
        assert cg.graph.rf == g.rf
        assert cg.graph.co == g.co

    def test_acquire_reads_of_cert_graph_are_covered(self, corpus, corpus_candidates):
        # acquire events surviving into the certification graph sit in the
        # covered set of its configuration
        for c in corpus_candidates["mp"]:
            g = c.execution
            v = check_imms(g)
            if not v.consistent:
                continue
            sc = sc_witness_rel(g, v)
            trav = Traversal(g, sc=sc)
            steps = trav.traverse()
            test = corpus["mp"]
            for k in range(len(steps) + 1):
                tc = replay(g, steps[:k])
                for tid in g.tids():
                    if not (tc.issued - tc.covered) & g.thread_events(tid):
                        continue
                    cg = build_cert_graph(
                        g, tc, tid, sprog=test.program.threads[tid], sc=sc
                    )
                    for i in range(cg.graph.n):
                        lab = cg.graph.labels[i]
                        if getattr(lab, "mode", None) == "acq" or lab.kind == "f":
                            assert i in cg.tc.covered
