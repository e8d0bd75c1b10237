import json
import random

import pytest

from immlab.consistency import check_imm
from immlab.enumeration import assertion_holds, candidate_executions
from immlab.execgraph import IMM_RELS, IMM_STATIC, Event, Execution, Fence
from immlab.fuzz import FuzzConfig, random_program
from immlab.hwmodels import (
    ARM_RELS,
    ARM_STATIC,
    POWER_RELS,
    POWER_STATIC,
    MappingError,
    arm_relations,
    check_arm,
    check_power,
    correspondence_check,
    power_ppo_fixpoint,
    split_release,
    to_arm,
    to_power,
)
from immlab.relalg import Rel

from oracles import power_fixpoint_oracle


def annotated(corpus, corpus_candidates, name):
    test = corpus[name]
    return [c for c in corpus_candidates[name] if assertion_holds(c, test)]


class TestSplitRelease:
    def test_single_release_write(self, corpus, corpus_candidates):
        g = corpus_candidates["mp"][0].execution
        s = split_release(g)
        assert s.n == g.n + 1
        assert not s.W_rel
        fences = [i for i in s.F if s.labels[i].mode == "rel"]
        assert len(fences) == 1
        f = fences[0]
        w = next(i for i in s.W if s.loc_of[i] == 1 and not s.events[i].is_init)
        assert (f, w) in s.po.pairs
        assert s.events[f].half == 1

    def test_identity_without_release_writes(self, corpus, corpus_candidates):
        g = corpus_candidates["lb-data"][0].execution
        assert split_release(g) is g

    def test_hypothesis_established(self, corpus_candidates):
        # po;[weakened release write] ⊆ po^?;[F^rel];po ∪ rmw after the split
        for name in ("mp", "lb-rel", "rel-seq", "strong-rmw"):
            for c in corpus_candidates[name][:20]:
                src = c.execution
                s = split_release(src)
                po = s.po
                frel = s.ident(s.fences_geq("rel"))
                shield = po.opt().compose(frel).compose(po) | s.rmw
                for w in range(s.n):
                    ev = s.events[w]
                    if ev.is_init or ev.half == 1:
                        continue
                    lab = src.labels[src.index_of(ev)]
                    if lab.kind != "w" or lab.mode != "rel":
                        continue
                    for e in po.preimage((w,)):
                        assert (e, w) in shield.pairs, name

    def test_rmw_release_write_gets_fence_before_read(self, corpus, corpus_candidates):
        g = corpus_candidates["rel-seq"][0].execution
        s = split_release(g)
        # thread 1's fadd has a release write; its fence precedes the exclusive read
        reads = [i for i in s.R_ex if s.events[i].tid == 1]
        assert reads
        r = reads[0]
        fences = [i for i in s.F if s.labels[i].mode == "rel" and s.events[i].tid == 1]
        assert any((f, r) in s.po.pairs for f in fences)

    def test_split_preserves_imm_verdict_on_rel_seq(self, corpus, corpus_candidates):
        # the release-sequence behavior stays forbidden after splitting
        test = corpus["rel-seq"]
        for c in annotated(corpus, corpus_candidates, "rel-seq"):
            assert not check_imm(split_release(c.execution)).consistent


class TestToPower:
    def test_acquire_read_gets_isync_and_ctrl(self, corpus, corpus_candidates):
        g = split_release(corpus_candidates["mp"][0].execution)
        p = to_power(g)
        isyncs = [i for i in p.F if p.labels[i].mode == "isync"]
        assert len(isyncs) == 1
        f = isyncs[0]
        assert p.events[f].half == 1
        r = next(i for i in p.R if p.events[i].tid == 1 and p.events[i].whole == 0)
        assert (r, f) in p.ctrl.pairs
        later = [i for i in range(p.n) if (f, i) in p.po.pairs]
        assert all((r, b) in p.ctrl.pairs for b in later)

    def test_all_relaxed_graph_unchanged_events(self, corpus, corpus_candidates):
        g = corpus_candidates["lb-data"][0].execution
        p = to_power(g)
        assert [e for e in p.events] == [e for e in g.events]
        assert all(lab.mode is None for i, lab in enumerate(p.labels)
                   if not p.events[i].is_init and lab.kind in "rw")

    def test_release_writes_rejected(self, corpus, corpus_candidates):
        with pytest.raises(MappingError, match="split_release"):
            to_power(corpus_candidates["mp"][0].execution)

    def test_casdep_becomes_ctrl(self, corpus, corpus_candidates):
        g = corpus_candidates["casdep"][0].execution
        p = to_power(split_release(g))
        assert not p.casdep
        # the load feeding the CAS expectation controls everything after the
        # exclusive read, in particular the trailing write
        ix = {str(e): i for i, e in enumerate(p.events)}
        feeder = ix["(0,0)"]
        trailing = max(i for i in p.W if p.events[i].tid == 0)
        assert (feeder, trailing) in p.ctrl.pairs

    def test_correspondence_check_clean(self, corpus_candidates):
        for name, cands in corpus_candidates.items():
            for c in cands:
                src = split_release(c.execution)
                p = to_power(src)
                assert src.wellformed() == [] and p.wellformed() == [], name
                assert correspondence_check(src, p) == [], name

    def test_correspondence_check_rejects_label_tampering(self, corpus_candidates):
        src = split_release(corpus_candidates["mp"][0].execution)
        p = to_power(src)
        labels = list(p.labels)
        sync_at = next(i for i, lab in enumerate(labels)
                       if lab.kind == "f" and lab.mode == "lwsync")
        labels[sync_at] = Fence("sync")
        tampered = Execution(p.events, labels, rmw=p.rmw, data=p.data, addr=p.addr,
                             ctrl=p.ctrl, rf=p.rf, co=p.co, model="power")
        assert correspondence_check(src, tampered)


class TestCheckPower:
    def test_fixture_is_power_consistent(self, fixtures_dir):
        doc = json.loads((fixtures_dir / "power_sync_fences.json").read_text())
        g = Execution.from_json(doc)
        assert g.wellformed() == []
        assert check_power(g).consistent
        assert (g.po | g.rf).is_acyclic()

    def test_sc_per_loc_violation(self):
        # a read before the write it reads from, same thread: po|loc ∪ rf cycle
        from immlab.execgraph import Read, Write
        g = Execution.build(
            [
                (Event.init(0), Write("rlx", 0, 0, "normal")),
                (Event(0, 0), Read(None, 0, 1)),
                (Event(0, 1), Write(None, 0, 1, None)),
            ],
            rf=[(Event(0, 1), Event(0, 0))],
            co=[(Event.init(0), Event(0, 1))],
            model="power",
        )
        v = check_power(g)
        assert "sc-per-loc" in v.axioms()

    @pytest.mark.parametrize("armv7", [False, True])
    def test_fixpoint_matches_naive_oracle(self, armv7):
        rng = random.Random(99)
        cfg = FuzzConfig(threads=(2, 3), max_instr=3)
        checked = 0
        while checked < 25:
            program = random_program(rng, cfg)
            for cand in candidate_executions(program, max_candidates=4):
                gp = to_power(split_release(cand.execution))
                rels = power_ppo_fixpoint(gp, armv7=armv7)
                seeds = _fixpoint_seeds(gp)
                ii, ic, ci, cc = power_fixpoint_oracle(seeds, armv7=armv7)
                assert rels.ii.pairs == ii
                assert rels.ic.pairs == ic
                assert rels.ci.pairs == ci
                assert rels.cc.pairs == cc
                checked += 1

    @pytest.mark.parametrize("armv7", [False, True])
    def test_fixpoint_matches_oracle_on_every_corpus_image(self, corpus_candidates, armv7):
        checked = 0
        for name, cands in corpus_candidates.items():
            for c in cands:
                gp = to_power(split_release(c.execution))
                rels = power_ppo_fixpoint(gp, armv7=armv7)
                oracle = power_fixpoint_oracle(_fixpoint_seeds(gp), armv7=armv7)
                assert (rels.ii.pairs, rels.ic.pairs, rels.ci.pairs, rels.cc.pairs) \
                    == oracle, name
                checked += 1
        assert checked == 247

    def test_fixpoint_inclusions(self, corpus_candidates):
        for name in ("mp", "iriw-sc", "strong-rmw"):
            for c in corpus_candidates[name][:8]:
                gp = to_power(split_release(c.execution))
                rels = power_ppo_fixpoint(gp)
                assert rels.ci.pairs <= rels.ii.pairs
                assert rels.ii.pairs <= rels.ic.pairs
                assert rels.ci.pairs <= rels.cc.pairs
                fence_rfe = rels.fence | (gp.rf - gp.po)
                assert rels.hb.pairs <= (rels.ppo | fence_rfe).pairs

    def test_armv7_drops_po_loc_rule(self, corpus_candidates):
        g = to_power(split_release(corpus_candidates["coh"][0].execution))
        full = power_ppo_fixpoint(g, armv7=False)
        weak = power_ppo_fixpoint(g, armv7=True)
        assert weak.cc.pairs <= full.cc.pairs

    def test_armv7_variants_share_no_fixpoint(self, corpus_candidates):
        # every check starts a fresh store from the shape's static relations,
        # so the ii/ic/ci/cc of one variant never answer for the other
        gp = to_power(split_release(corpus_candidates["coh"][0].execution))
        oracle = {armv7: power_fixpoint_oracle(_fixpoint_seeds(gp), armv7=armv7)
                  for armv7 in (False, True)}
        assert oracle[False] != oracle[True]
        for armv7 in (False, True, False):
            check_power(gp, armv7=armv7)
            rels = power_ppo_fixpoint(gp, armv7=armv7)
            assert (rels.ii.pairs, rels.ic.pairs, rels.ci.pairs, rels.cc.pairs) \
                == oracle[armv7], armv7


def _fixpoint_seeds(gp):
    po = gp.po
    rf = gp.rf
    fr = rf.inverse().compose(gp.co)
    return {
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


class TestToArm:
    def test_strong_write_gets_ld_fence(self, corpus, corpus_candidates):
        g = annotated(corpus, corpus_candidates, "strong-rmw")[0].execution
        a = to_arm(g)
        lds = [i for i in a.F if a.labels[i].mode == "ld"]
        assert len(lds) == 1
        f = lds[0]
        w = next(iter(g.W_strong))
        assert a.events[f].tid == g.events[w].tid
        assert a.events[f].half == 1

    def test_no_strong_writes_no_insertions(self, corpus, corpus_candidates):
        g = corpus_candidates["lb-data"][0].execution
        a = to_arm(g)
        assert a.n == g.n

    def test_acquire_fence_maps_to_ld(self):
        g = Execution.build([(Event(0, 0), Fence("acq")), (Event(0, 1), Fence("sc"))])
        a = to_arm(g)
        assert a.labels[0].mode == "ld"
        assert a.labels[1].mode == "sy"

    def test_label_table(self, corpus, corpus_candidates):
        g = corpus_candidates["mp"][0].execution
        a = to_arm(g)
        ix = {str(e): i for i, e in enumerate(a.events)}
        assert a.labels[ix["(0,1)"]].mode == "L"  # release write
        assert a.labels[ix["(1,0)"]].mode == "Q"  # acquire read

    def test_correspondence_check_clean(self, corpus_candidates):
        for name, cands in corpus_candidates.items():
            for c in cands:
                g = c.execution
                a = to_arm(g)
                assert a.wellformed() == [], name
                assert correspondence_check(g, a) == [], name

    def test_correspondence_check_rejects_rf_co_tampering(self, corpus_candidates):
        g = corpus_candidates["mp"][0].execution
        a = to_arm(g)
        tampered = Execution(a.events, a.labels, rmw=a.rmw, data=a.data, addr=a.addr,
                             ctrl=a.ctrl, rf=Rel(a.n), co=Rel(a.n), model="arm")
        assert {"rf changed", "co changed"} <= set(correspondence_check(g, tampered))


class TestCheckArm:
    def test_rfi_example_consistent(self, corpus, corpus_candidates):
        hits = annotated(corpus, corpus_candidates, "rfi-ppo")
        assert any(check_arm(to_arm(c.execution)).consistent for c in hits)

    def test_strong_rmw_with_fence_inconsistent(self, corpus, corpus_candidates):
        for c in annotated(corpus, corpus_candidates, "strong-rmw"):
            v = check_arm(to_arm(c.execution))
            assert not v.consistent
            assert "external" in v.axioms()

    def test_normal_rmw_without_fence_allowed(self, corpus, corpus_candidates):
        hits = annotated(corpus, corpus_candidates, "strong-rmw-normal")
        assert any(check_arm(to_arm(c.execution)).consistent for c in hits)

    def test_single_write_consistent(self):
        from immlab.execgraph import Write
        g = Execution.build(
            [
                (Event.init(0), Write("rlx", 0, 0, "normal")),
                (Event(0, 0), Write("rlx", 0, 1, "normal")),
            ],
            co=[(Event.init(0), Event(0, 0))],
        )
        assert check_arm(to_arm(g)).consistent


def test_every_table_entry_is_a_relation(corpus_candidates):
    """Each entry of the IMM/RC11, POWER and ARM tables, static or not and
    read or not by an axiom, evaluates to a relation over the graph's
    events."""
    def check(rels, names, g):
        for name in names:
            rel = getattr(rels, name)
            assert isinstance(rel, Rel) and rel.n == g.n, name

    for cands in corpus_candidates.values():
        for c in cands:
            g = c.execution
            split = split_release(g)
            for src in (g, split):
                check(src.derive(), IMM_STATIC | IMM_RELS, src)
            gp = to_power(split)
            check(power_ppo_fixpoint(gp),
                  [*POWER_STATIC, *POWER_RELS, "ii", "ic", "ci", "cc"], gp)
            ga = to_arm(g)
            check(arm_relations(ga), ARM_STATIC | ARM_RELS, ga)

