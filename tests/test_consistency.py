import itertools
import random

import pytest

from immlab import consistency
from immlab.consistency import (
    check_c11,
    check_imm,
    check_imms,
    check_rc11,
    sc_witness_rel,
)
from immlab.enumeration import assertion_holds, candidate_executions
from immlab.execgraph import Execution
from immlab.fuzz import FuzzConfig, random_program
from immlab.program import parse_litmus
from immlab.relalg import Rel

from oracles import fence_orders, imms_sc_axioms, sc_fence_order_by_search


def annotated(corpus, corpus_candidates, name):
    test = corpus[name]
    return [c for c in corpus_candidates[name] if assertion_holds(c, test)]


class TestImm:
    def test_mp_weak_fails_coherence(self, corpus, corpus_candidates):
        (weak,) = annotated(corpus, corpus_candidates, "mp")
        v = check_imm(weak.execution)
        assert not v.consistent
        assert v.axioms() == ["coherence"]

    def test_atomicity_witnessed(self, corpus, corpus_candidates):
        hits = annotated(corpus, corpus_candidates, "atomicity")
        assert hits
        assert all(
            "atomicity" in check_imm(c.execution).axioms()
            or "coherence" in check_imm(c.execution).axioms()
            for c in hits
        )
        assert any("atomicity" in check_imm(c.execution).axioms() for c in hits)

    def test_rfi_not_preserved_is_consistent(self, corpus, corpus_candidates):
        hits = annotated(corpus, corpus_candidates, "rfi-ppo")
        assert any(check_imm(c.execution).consistent for c in hits)

    def test_no_thin_air_witness_lies_in_ar(self, corpus, corpus_candidates):
        for name in ("lb-rel", "lb-acq", "lb-addr", "strong-rmw"):
            for c in annotated(corpus, corpus_candidates, name):
                v = check_imm(c.execution)
                if "no-thin-air" not in v.axioms():
                    continue
                witness = dict(v.violations)["no-thin-air"]
                g = c.execution
                names = {str(e): i for i, e in enumerate(g.events)}
                ar = g.derive().ar
                for a, b in itertools.pairwise(witness):
                    assert (names[a], names[b]) in ar.pairs, name
                return
        raise AssertionError("no thin-air witness found")


class TestImms:
    def test_imm_implies_imms(self, corpus_candidates):
        for name, cands in corpus_candidates.items():
            for c in cands:
                if check_imm(c.execution).consistent:
                    assert check_imms(c.execution).consistent, name

    def test_no_sc_fences_reduces(self, corpus, corpus_candidates):
        g = corpus_candidates["lb-data"][0].execution
        v = check_imms(g)
        assert v.sc_witness == () or not v.consistent

    def test_iriw_sc_inconsistent_under_both_orders(self, corpus, corpus_candidates):
        (weak,) = annotated(corpus, corpus_candidates, "iriw-sc")
        g = weak.execution
        assert len(g.F_sc) == 2
        v = check_imms(g)
        assert not v.consistent  # neither fence order satisfies the axioms
        assert "s-no-thin-air" in v.axioms()

    def test_witness_is_total_order(self, corpus, corpus_candidates):
        for c in corpus_candidates["iriw-sc"]:
            v = check_imms(c.execution)
            if v.consistent and c.execution.F_sc:
                sc = sc_witness_rel(c.execution, v)
                assert sc.is_total_on(c.execution.F_sc)
                return
        raise AssertionError("expected some consistent IRIW+sc candidate")

    def test_explicit_sc_component_is_used(self, corpus_candidates):
        from immlab.execgraph import Execution
        for c in corpus_candidates["iriw-sc"]:
            g = c.execution
            v = check_imms(g)
            if not (v.consistent and g.F_sc):
                continue
            sc = sc_witness_rel(g, v)
            pinned = Execution(g.events, g.labels, rmw=g.rmw, data=g.data,
                               addr=g.addr, ctrl=g.ctrl, casdep=g.casdep,
                               rf=g.rf, co=g.co, sc=sc)
            assert check_imms(pinned).consistent
            reversed_sc = sc.inverse()
            flipped = Execution(g.events, g.labels, rmw=g.rmw, data=g.data,
                                addr=g.addr, ctrl=g.ctrl, casdep=g.casdep,
                                rf=g.rf, co=g.co, sc=reversed_sc)
            # with the order pinned the checker may not search; a bad order
            # can only fail (it does here or stays consistent by symmetry)
            v2 = check_imms(flipped)
            assert v2.sc_witness == tuple(sorted(reversed_sc.pairs)) or not v2.consistent
            return
        raise AssertionError("expected some consistent IRIW+sc candidate")


def iriw_sc(k):
    """IRIW+sc-k: two w[rel] writers, then k readers of both locations, each
    with f[sc] between two r[acq] reads, the readers alternating x-first and
    y-first."""
    lines = [f'prog "IRIW+sc-{k}"', "locations x y", "vals 0..1",
             "thread 0:", "  w[rel] x 1", "thread 1:", "  w[rel] y 1"]
    for i in range(k):
        first, second = ("x", "y") if i % 2 == 0 else ("y", "x")
        lines += [f"thread {i + 2}:", f"  r[acq] a {first}", "  f[sc]",
                  f"  r[acq] b {second}"]
    return "\n".join(lines) + "\n"


# thread 2's fence reaches thread 0's by an ar_base path through rfe and a
# data dependency that no hb_rc11 edge follows, so only ar_base orders them
SC_AR = """
prog "SC-AR"
locations x y
vals 0..1
thread 0:
  r[rlx] b y
  f[sc]
thread 1:
  r[rlx] a x
  w[rlx] y a
thread 2:
  f[sc]
  w[rlx] x 1
"""


def coherent_graphs(src):
    return (c.execution
            for c in candidate_executions(parse_litmus(src).program, coherent=True))


def fuzz_graphs(seed, cfg, programs):
    rng = random.Random(seed)
    for _ in range(programs):
        program = random_program(rng, cfg)
        for c in candidate_executions(program, max_candidates=cfg.max_candidates_per_program):
            yield c.execution


SC_GRAPH_SETS = {
    "fuzz-7": lambda: fuzz_graphs(7, FuzzConfig(), 80),
    "fuzz-29": lambda: fuzz_graphs(29, FuzzConfig(), 80),
    "fuzz-5-three-four-threads": lambda: fuzz_graphs(5, FuzzConfig(threads=(3, 4)), 60),
    "iriw-sc-2": lambda: coherent_graphs(iriw_sc(2)),
    "iriw-sc-3": lambda: coherent_graphs(iriw_sc(3)),
    "iriw-sc-4": lambda: coherent_graphs(iriw_sc(4)),
}


class TestScFenceOrder:
    """The SC-fence order built by a lowest-index topological sort against
    the first permutation that satisfies both s-model conditions."""

    @staticmethod
    def assert_same_as_search(graphs):
        seen = 0
        for g in graphs:
            if not g.F_sc:
                continue
            d = g.derive()
            assert consistency._sc_fence_order(g, d) == sc_fence_order_by_search(g, d), g.dumps()
            seen += 1
        return seen

    def test_matches_search_on_corpus_full_stream(self, corpus_candidates):
        graphs = (c.execution for cands in corpus_candidates.values() for c in cands)
        assert self.assert_same_as_search(graphs) >= 20

    @pytest.mark.parametrize("name", SC_GRAPH_SETS)
    def test_matches_search(self, name):
        assert self.assert_same_as_search(SC_GRAPH_SETS[name]()) > 0

    def test_ar_base_path_puts_the_higher_index_fence_first(self):
        test = parse_litmus(SC_AR)
        cands = list(candidate_executions(test.program))
        assert self.assert_same_as_search(c.execution for c in cands) == len(cands)
        (chain,) = [c.execution for c in cands if c.final_regs[0]["b"] == 1]
        f0, f2 = sorted(chain.F_sc)
        d = chain.derive()
        assert (f2, f0) in d.ar_base.plus() and (f2, f0) not in consistency._sc_fences(chain, d)
        assert check_imms(chain).sc_witness == ((f2, f0),)


# thread 1's fence reaches thread 0's through po, co and po, a path of the
# first part of X that no ar_base edge follows
SC_ECO = """
prog "SC-ECO"
locations x
vals 0..2
thread 0:
  w[rlx] x 2
  f[sc]
thread 1:
  f[sc]
  w[rlx] x 1
"""


def pinned(g, sc):
    """g with its SC-fence order given as sc."""
    return Execution.on(g.shape, g.labels, rf=g.rf, co=g.co, sc=sc)


GIVEN_ORDER_SETS = {
    # only ar_base orders the two fences of SC-AR; no other source shows that
    "sc-ar": lambda: (c.execution for c in candidate_executions(parse_litmus(SC_AR).program)),
    "iriw-sc-2": lambda: coherent_graphs(iriw_sc(2)),
    "iriw-sc-3": lambda: coherent_graphs(iriw_sc(3)),
    "fuzz-5-three-four-threads": lambda: fuzz_graphs(
        5, FuzzConfig(threads=(3, 4), max_candidates_per_program=200), 60),
}


class TestGivenScOrder:
    """A graph's own SC-fence order, checked as X ⊆ sc, against both
    s-model conditions as the paper states them."""

    @staticmethod
    def assert_same_as_axioms(graphs):
        seen = 0
        for g in graphs:
            if not g.F_sc:
                continue
            d = g.derive()
            table_ok = not consistency.evaluate(consistency.IMMS, g, d)
            for sc in fence_orders(g):
                want = table_ok and imms_sc_axioms(g, d, sc)
                assert check_imms(pinned(g, sc)).consistent == want, (g.dumps(), sc)
                seen += 1
        return seen

    def test_matches_axioms_on_corpus_full_stream(self, corpus_candidates):
        graphs = (c.execution for cands in corpus_candidates.values() for c in cands)
        assert self.assert_same_as_axioms(graphs) >= 20

    @pytest.mark.parametrize("name", GIVEN_ORDER_SETS)
    def test_matches_axioms(self, name):
        assert self.assert_same_as_axioms(GIVEN_ORDER_SETS[name]()) > 0

    def test_ar_base_order_is_checked(self):
        # reversing the order that only ar_base fixes breaks condition 2
        chain = next(c.execution for c in candidate_executions(parse_litmus(SC_AR).program)
                     if c.final_regs[0]["b"] == 1)
        f0, f2 = sorted(chain.F_sc)
        v = check_imms(pinned(chain, Rel(chain.n, [(f0, f2)])))
        assert v.violations == [("s-no-thin-air", [(str(chain.events[f2]),
                                                    str(chain.events[f0]))])]
        assert v.sc_witness is None

    def test_a_reversed_eco_path_names_condition_one(self):
        (g,) = [c.execution for c in candidate_executions(parse_litmus(SC_ECO).program)
                if c.execution.outcome()[0] == 2]
        f0, f1 = sorted(g.F_sc)
        assert check_imms(g).sc_witness == ((f1, f0),) == ((3, 2),)
        v = check_imms(pinned(g, Rel(g.n, [(f0, f1)])))
        assert v.violations == [("sc-coherence", [(str(g.events[f1]), str(g.events[f0]))])]
        assert v.sc_witness is None

    def test_a_partial_order_fails_totality(self):
        g = next(c.execution for c in candidate_executions(parse_litmus(SC_ECO).program))
        assert check_imms(pinned(g, Rel(g.n))).axioms() == ["sc-totality"]


class TestC11:
    def test_imm_implies_c11(self, corpus_candidates):
        for name, cands in corpus_candidates.items():
            for c in cands:
                if check_imm(c.execution).consistent:
                    assert check_c11(c.execution).consistent, name

    def test_mp_weak_inconsistent(self, corpus, corpus_candidates):
        (weak,) = annotated(corpus, corpus_candidates, "mp")
        v = check_c11(weak.execution)
        assert not v.consistent
        assert "coherence" in v.axioms()  # sw_RC11 still links rel-write→acq-read

    def test_empty_graph_consistent(self):
        assert check_c11(Execution.build([])).consistent


class TestRc11:
    def test_lb_data_annotated_is_rc11_inconsistent(self, corpus, corpus_candidates):
        hits = annotated(corpus, corpus_candidates, "lb-data")
        assert hits
        for c in hits:
            v = check_rc11(c.execution)
            assert "po-rf-acyclicity" in v.axioms()

    def test_straight_line_consistent(self, corpus, corpus_candidates):
        g = corpus_candidates["coh"][0].execution
        if check_c11(g).consistent:
            assert check_rc11(g).consistent == (g.po | g.rf).is_acyclic()

    def test_mp_strong_consistent(self, corpus, corpus_candidates):
        strong = [
            c for c in corpus_candidates["mp"]
            if c.final_regs[1] == {"a": 1, "b": 1}
        ]
        assert strong and all(check_rc11(c.execution).consistent for c in strong)

    def test_rc11_implies_c11(self, corpus_candidates):
        for name, cands in corpus_candidates.items():
            for c in cands:
                if check_rc11(c.execution).consistent:
                    assert check_c11(c.execution).consistent, name
