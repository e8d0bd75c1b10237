import pytest

from immlab.consistency import check_imm, check_imms, sc_witness_rel
from immlab.enumeration import assertion_holds, candidate_executions
from immlab.program import parse_litmus
from immlab.traversal import Traversal, TraversalConfig, TraversalError, replay


def annotated_graph(corpus, corpus_candidates, name):
    test = corpus[name]
    return next(
        c.execution
        for c in corpus_candidates[name]
        if assertion_holds(c, test) and check_imm(c.execution).consistent
    )


def consistent_graphs(cands):
    out = []
    for c in cands:
        v = check_imms(c.execution)
        if v.consistent:
            out.append((c.execution, sc_witness_rel(c.execution, v)))
    return out


@pytest.fixture(scope="module")
def lb_data(corpus, corpus_candidates):
    g = annotated_graph(corpus, corpus_candidates, "lb-data")
    ix = {str(e): i for i, e in enumerate(g.events)}
    return g, ix


PPO_ISS_SRC = """
prog "PPO-ISS"
locations x y
vals 0..2
thread 0:
  w[rlx] x 2
thread 1:
  w[rlx] x 1
  r[rlx] a x
  w[rlx] y a
"""

ACQ_ISS_SRC = """
prog "ACQ-ISS"
locations x y z
vals 0..3
thread 0:
  w[rlx] x 3
thread 1:
  w[rlx] y 2
  w[rel] x 2
thread 2:
  r[rlx] a x
  w[rel] z 2
thread 3:
  r[acq] b z
  r[acq] c x
  w[rlx] y 1
"""


def _graph_for(src, want):
    test = parse_litmus(src)
    for c in candidate_executions(test.program):
        g = c.execution
        regs = {}
        for phi in c.final_regs.values():
            regs.update(phi)
        if all(regs.get(k) == v for k, v in want.items()) and check_imm(g).consistent:
            return g
    raise AssertionError("graph not found")


class TestIssuable:
    def test_ppo_iss_needs_external_source_issued(self):
        # the read skips the local write for the external one: both the
        # external source and the skipped local write gate the dependent write
        g = _graph_for(PPO_ISS_SRC, {"a": 2})
        ix = {str(e): i for i, e in enumerate(g.events)}
        e11, e21, e23 = ix["(0,0)"], ix["(1,0)"], ix["(1,2)"]
        trav = Traversal(g)
        inits = frozenset(g.init_events)
        # neither e11 (rfe;ppo) nor e21 (detour;ppo) issued: not issuable
        assert not trav.issuable(inits, inits, e23)
        assert not trav.issuable(inits, inits | {e21}, e23)  # e11 still missing
        assert not trav.issuable(inits, inits | {e11}, e23)  # e21 still missing
        assert trav.issuable(inits, inits | {e11, e21}, e23)

    def test_relaxed_fragment_drops_detour(self):
        g = _graph_for(PPO_ISS_SRC, {"a": 2})
        ix = {str(e): i for i, e in enumerate(g.events)}
        e11, e23 = ix["(0,0)"], ix["(1,2)"]
        full = Traversal(g)
        rlx = Traversal(g, fragment="relaxed")
        inits = frozenset(g.init_events)
        assert rlx.issuable(inits, inits | {e11}, e23)
        assert not full.issuable(inits, inits | {e11}, e23)

    def test_acq_iss(self):
        g = _graph_for(ACQ_ISS_SRC, {"a": 2, "b": 2, "c": 3})
        ix = {str(e): i for i, e in enumerate(g.events)}
        e11, e41, e43 = ix["(0,0)"], ix["(3,0)"], ix["(3,2)"]
        covered = frozenset(g.init_events) | {
            ix["(1,0)"], ix["(1,1)"], ix["(2,0)"], ix["(2,1)"], e41,
        }
        issued = frozenset(g.init_events) | {
            ix["(1,0)"], ix["(1,1)"], ix["(2,1)"],
        }
        sc = None
        trav = Traversal(g, sc=sc)
        # e43 rfe-reads x=3 through an acquire read: e11 must be issued first
        assert not trav.issuable(covered, issued, e43)
        assert trav.issuable(covered, issued | {e11}, e43)

    def test_strong_write_gates_later_writes(self, corpus, corpus_candidates):
        g = annotated_graph(corpus, corpus_candidates, "strong-rmw-normal")
        # recreate with strong mode via the strong corpus: use the forbidden
        # graph directly (it is imm-inconsistent, so test the condition only)
        test = corpus["strong-rmw"]
        g = next(c.execution for c in corpus_candidates["strong-rmw"]
                 if assertion_holds(c, test))
        trav = Traversal(g)
        ix = {str(e): i for i, e in enumerate(g.events)}
        strong = next(iter(g.W_strong))
        later = ix["(1,3)"]
        inits = frozenset(g.init_events)
        assert not trav.issuable(inits, inits, later)
        assert (strong, later) in trav.req_strong.pairs


class TestCoverable:
    def test_write_needs_issue(self, lb_data):
        g, ix = lb_data
        trav = Traversal(g)
        covered = frozenset(g.init_events) | {ix["(0,0)"]}  # po-prefix done
        issued = frozenset(g.init_events) | {ix["(1,1)"]}
        assert not trav.coverable(covered, issued, ix["(0,1)"])
        assert trav.coverable(covered, issued | {ix["(0,1)"]}, ix["(0,1)"])

    def test_read_needs_source_issued(self, lb_data):
        g, ix = lb_data
        trav = Traversal(g)
        inits = frozenset(g.init_events)
        assert not trav.coverable(inits, inits, ix["(1,0)"])
        assert trav.coverable(inits, inits | {ix["(0,1)"]}, ix["(1,0)"])

    def test_sc_fence_needs_sc_predecessors_covered(self, corpus, corpus_candidates):
        graphs = consistent_graphs(corpus_candidates["iriw-sc"])
        assert graphs
        g, sc = graphs[0]
        trav = Traversal(g, sc=sc)
        fences = sorted(g.F_sc)
        fst = next(f for f in fences if all((x, f) not in sc.pairs for x in fences))
        snd = next(f for f in fences if f != fst)
        covered = frozenset(g.init_events) | {
            e for e in range(g.n) if (e, snd) in g.po.pairs
        }
        issued = frozenset(g.init_events) | frozenset(g.W)
        assert not trav.coverable(covered, issued, snd)  # sc-predecessor uncovered
        covered2 = covered | {e for e in range(g.n) if (e, fst) in g.po.pairs} | {fst}
        assert trav.coverable(covered2, issued, snd)

    def test_fragment_equality_on_relaxed_graphs(self, corpus_candidates):
        for name in ("lb-data", "coh", "detour"):
            for c in corpus_candidates[name][:10]:
                g = c.execution
                full = Traversal(g)
                rlx = Traversal(g, fragment="relaxed")
                inits = frozenset(g.init_events)
                issued = inits | frozenset(list(g.W)[:2])
                for e in range(g.n):
                    assert full.coverable(inits, issued, e) == rlx.coverable(
                        inits, issued, e
                    ), name
                # full issuable implies relaxed issuable (not conversely)
                for w in g.W:
                    if full.issuable(inits, issued, w):
                        assert rlx.issuable(inits, issued, w), name


class TestSteps:
    def test_lb_data_initial_only_issue_e12(self, lb_data):
        # the dependent write cannot be promised first (its ppo source reads
        # from the not-yet-issued write), matching the machine narrative
        g, ix = lb_data
        trav = Traversal(g)
        steps = trav.enabled_steps(trav.initial_config())
        assert [(s.kind, s.event) for s, _ in steps] == [("issue", ix["(0,1)"])]

    def test_release_cover_enabled(self, corpus, corpus_candidates):
        g = next(c.execution for c in corpus_candidates["mp"]
                 if check_imm(c.execution).consistent)
        trav = Traversal(g)
        ix = {str(e): i for i, e in enumerate(g.events)}
        tc = TraversalConfig(
            frozenset(g.init_events) | {ix["(0,0)"]},
            frozenset(g.init_events) | {ix["(0,0)"]},
        )
        kinds = {(s.kind, s.event) for s, _ in trav.enabled_steps(tc)}
        assert ("release-cover", ix["(0,1)"]) in kinds

    def test_fully_traversed_no_steps(self, lb_data):
        g, _ = lb_data
        trav = Traversal(g)
        assert trav.enabled_steps(trav.final_config()) == []

    def test_lb_data_traversal_matches_paper_order(self, lb_data):
        g, ix = lb_data
        steps = Traversal(g).traverse()
        got = [(s.kind, str(g.events[s.event])) for s in steps]
        assert got == [
            ("issue", "(0,1)"), ("cover", "(1,0)"), ("issue", "(1,1)"),
            ("cover", "(1,1)"), ("cover", "(0,0)"), ("cover", "(0,1)"),
        ]

    def test_single_write_program(self):
        t = parse_litmus('prog "W"\nlocations x\nthread 0:\n  w[rlx] x 1\n')
        (c,) = candidate_executions(t.program)
        steps = Traversal(c.execution).traverse()
        assert [s.kind for s in steps] == ["issue", "cover"]

    def test_single_release_write_single_step(self):
        t = parse_litmus('prog "W"\nlocations x\nthread 0:\n  w[rel] x 1\n')
        (c,) = candidate_executions(t.program)
        steps = Traversal(c.execution).traverse()
        assert [s.kind for s in steps] == ["release-cover"]

    def test_rmw_cover_bundles_pair(self, corpus, corpus_candidates):
        g = next(c.execution for c in corpus_candidates["atomicity"]
                 if check_imm(c.execution).consistent)
        steps = Traversal(g).traverse()
        rmw_steps = [s for s in steps if s.kind == "rmw-cover"]
        assert rmw_steps and all(s.partner is not None for s in rmw_steps)

    def test_replay_reproduces_final_config(self, corpus_candidates):
        for name in ("lb-data", "mp", "atomicity"):
            for c in corpus_candidates[name][:6]:
                g = c.execution
                v = check_imms(g)
                if not v.consistent:
                    continue
                sc = sc_witness_rel(g, v)
                trav = Traversal(g, sc=sc)
                steps = trav.traverse()
                assert replay(g, steps) == trav.final_config(), name


class TestCorpusTotality:
    def test_traversal_completes_on_consistent_corpus(self, corpus_candidates):
        done = 0
        for name, cands in corpus_candidates.items():
            for g, sc in consistent_graphs(cands)[:10]:
                steps = Traversal(g, sc=sc).traverse()  # validates configs itself
                assert steps or g.n == len(g.init_events)
                done += 1
        assert done > 30


class TestSmallSteps:
    def test_initial_lb_data_has_issue(self, lb_data):
        g, ix = lb_data
        trav = Traversal(g)
        kind, event = trav.find_next(trav.initial_config())
        assert (kind, event) == ("issue", ix["(0,1)"])

    def test_one_event_short_cover(self, lb_data):
        g, ix = lb_data
        trav = Traversal(g)
        full = trav.final_config()
        short = TraversalConfig(full.covered - {ix["(0,1)"]}, full.issued)
        kind, event = trav.find_next(short)
        assert (kind, event) == ("cover", ix["(0,1)"])

    def test_sc_minimal_fence_selected(self, corpus, corpus_candidates):
        graphs = consistent_graphs(corpus_candidates["iriw-sc"])
        g, sc = graphs[0]
        trav = Traversal(g, sc=sc)
        fences = sorted(g.F_sc)
        fst = next(f for f in fences if all((x, f) not in sc.pairs for x in fences))
        covered = frozenset(
            e for e in range(g.n) if e not in g.F_sc
        )
        issued = frozenset(g.init_events) | frozenset(g.W)
        tc = TraversalConfig(covered, issued)
        kind, event = trav.find_next(tc)
        assert (kind, event) == ("cover", fst)

    def test_small_step_applies(self, lb_data):
        g, ix = lb_data
        trav = Traversal(g)
        (kind, e), tc = trav.small_step(trav.initial_config())
        assert kind == "issue" and e in tc.issued

    def test_lift_cover_plain(self, lb_data):
        g, ix = lb_data
        trav = Traversal(g)
        tc = TraversalConfig(
            frozenset(g.init_events), frozenset(g.init_events) | {ix["(0,1)"]}
        )
        step = trav.lift_to_trav(tc, ("cover", ix["(1,0)"]))
        assert step.kind == "cover"

    def test_lift_rmw_cover_issued(self, corpus, corpus_candidates):
        g = next(c.execution for c in corpus_candidates["atomicity"]
                 if check_imm(c.execution).consistent)
        trav = Traversal(g)
        r, w = next(iter(g.rmw.pairs))
        tc = TraversalConfig(
            frozenset(g.init_events),
            frozenset(g.init_events) | {w},
        )
        step = trav.lift_to_trav(tc, ("cover", r))
        assert step.kind == "rmw-cover" and step.partner == w

    def test_lift_issue_of_release_becomes_release_cover(self, corpus, corpus_candidates):
        g = next(c.execution for c in corpus_candidates["mp"]
                 if check_imm(c.execution).consistent)
        ix = {str(e): i for i, e in enumerate(g.events)}
        trav = Traversal(g)
        tc = TraversalConfig(
            frozenset(g.init_events) | {ix["(0,0)"]},
            frozenset(g.init_events) | {ix["(0,0)"]},
        )
        step = trav.lift_to_trav(tc, ("issue", ix["(0,1)"]))
        assert step.kind == "release-cover"

    def test_lift_cover_of_rmw_read_with_unissued_write_issues_it(
            self, corpus, corpus_candidates):
        # no single step covers the exclusive read while its normal-mode write
        # is unissued; the lift falls back to issuing the write, which the
        # configuration invariants guarantee is possible
        g = next(c.execution for c in corpus_candidates["atomicity"]
                 if check_imm(c.execution).consistent
                 and any(not c.execution.events[r].is_init
                         and c.execution.labels[r].val == 0
                         for r in c.execution.R_ex))
        trav = Traversal(g)
        r, w = next(iter(g.rmw.pairs))
        tc = trav.initial_config()
        if not trav.coverable(tc.covered, tc.issued, r):
            pytest.skip("exclusive read not coverable at the initial config")
        step = trav.lift_to_trav(tc, ("cover", r))
        assert step.kind == "issue" and step.event == w

    def test_lift_uncoverable_release_raises(self, corpus, corpus_candidates):
        g = next(c.execution for c in corpus_candidates["mp"]
                 if check_imm(c.execution).consistent)
        ix = {str(e): i for i, e in enumerate(g.events)}
        trav = Traversal(g)
        tc = trav.initial_config()  # x-write not covered yet
        with pytest.raises(TraversalError):
            trav.lift_to_trav(tc, ("issue", ix["(0,1)"]))


class TestConfigChecker:
    def test_initial_and_final_valid(self, lb_data):
        g, _ = lb_data
        trav = Traversal(g)
        assert trav.check_config(trav.initial_config()) == []
        assert trav.check_config(trav.final_config()) == []

    def test_uncoverable_covered_event_flagged(self, lb_data):
        g, ix = lb_data
        trav = Traversal(g)
        bad = TraversalConfig(
            frozenset(g.init_events) | {ix["(1,0)"]}, frozenset(g.init_events)
        )
        assert any("not coverable" in d for d in trav.check_config(bad))

    def test_missing_sc_order_rejected(self, corpus, corpus_candidates):
        g = corpus_candidates["iriw-sc"][0].execution
        with pytest.raises(TraversalError, match="sc order"):
            Traversal(g)
