import json
import random

import pytest

from immlab.certification import CertificationError, build_cert_graph
from immlab.consistency import check_c11, check_imm, check_imms, sc_witness_rel
from immlab.enumeration import assertion_holds, candidate_executions
from immlab.execgraph import (
    IMM_RELS, Event, Execution, Fence, Label, Read, Shape, Slot, Write, namespace,
)
from immlab.hwmodels import split_release, to_arm, to_power
from immlab.relalg import Rel
from immlab.traversal import Traversal, replay

from oracles import event_key, restrict_thread, signature


def weak_mp(corpus, corpus_candidates):
    test = corpus["mp"]
    return next(
        c.execution for c in corpus_candidates["mp"] if assertion_holds(c, test)
    )


def find_candidate(cands, predicate):
    return next(c.execution for c in cands if predicate(c))


class TestWellformed:
    def test_mp_execution_wellformed(self, corpus, corpus_candidates):
        assert weak_mp(corpus, corpus_candidates).wellformed() == []

    def test_every_corpus_candidate_wellformed(self, corpus_candidates):
        for name, cands in corpus_candidates.items():
            for c in cands:
                assert c.execution.wellformed() == [], name

    def test_rf_value_violation(self):
        g = Execution.build(
            [
                (Event.init(0), Write("rlx", 0, 0, "normal")),
                (Event(0, 0), Write("rlx", 0, 1, "normal")),
                (Event(1, 0), Read("rlx", 0, 2)),
            ],
            rf=[(Event(0, 0), Event(1, 0))],
            co=[(Event.init(0), Event(0, 0))],
        )
        assert any("rf value" in d for d in g.wellformed())

    def test_ctrl_not_forward_closed(self):
        g = Execution.build(
            [
                (Event.init(0), Write("rlx", 0, 0, "normal")),
                (Event(0, 0), Read("rlx", 0, 0)),
                (Event(0, 1), Write("rlx", 0, 1, "normal")),
                (Event(0, 2), Write("rlx", 0, 2, "normal")),
            ],
            ctrl=[(Event(0, 0), Event(0, 1))],  # missing (0,0)→(0,2)
            rf=[(Event.init(0), Event(0, 0))],
            co=[(Event.init(0), Event(0, 1)), (Event.init(0), Event(0, 2)),
                (Event(0, 1), Event(0, 2))],
        )
        assert any("ctrl;po" in d for d in g.wellformed())

    def test_init_label_checked(self):
        g = Execution.build([(Event.init(0), Write("rlx", 0, 7, "normal"))])
        assert any("init label" in d for d in g.wellformed())


class TestDerived:
    def test_mp_sw_edge(self, corpus, corpus_candidates):
        g = weak_mp(corpus, corpus_candidates)
        d = g.derive()
        wrel = next(iter(g.W_rel))
        racq = next(iter(g.R_acq))
        assert (wrel, racq) in d.sw.pairs
        assert (wrel, racq) in d.hb.pairs

    def test_single_thread_relaxed_sw_empty_hb_is_po(self):
        g = Execution.build(
            [
                (Event.init(0), Write("rlx", 0, 0, "normal")),
                (Event(0, 0), Write("rlx", 0, 1, "normal")),
                (Event(0, 1), Read("rlx", 0, 1)),
            ],
            rf=[(Event(0, 0), Event(0, 1))],
            co=[(Event.init(0), Event(0, 0))],
        )
        d = g.derive()
        assert d.sw == Rel(g.n)
        assert d.hb == g.po.plus()

    def test_internal_release_acquire_sw_stays_in_po(self):
        g = Execution.build(
            [
                (Event.init(0), Write("rlx", 0, 0, "normal")),
                (Event(0, 0), Write("rel", 0, 1, "normal")),
                (Event(0, 1), Read("acq", 0, 1)),
            ],
            rf=[(Event(0, 0), Event(0, 1))],
            co=[(Event.init(0), Event(0, 0))],
        )
        d = g.derive()
        assert d.sw.pairs <= g.po.pairs  # rfi-based sw exists but adds nothing to hb
        assert d.hb == g.po.plus()

    def test_lb_addr_ar_cycle(self, corpus, corpus_candidates):
        test = corpus["lb-addr"]
        g = find_candidate(corpus_candidates["lb-addr"], lambda c: assertion_holds(c, test))
        d = g.derive()
        assert not d.ar.is_acyclic()
        # the cycle uses addr;po into the y-write, rfe across, bob, rfe back
        ix = {str(e): i for i, e in enumerate(g.events)}
        a_read, mid_read, y_write = ix["(0,0)"], ix["(0,1)"], ix["(0,2)"]
        c_read, x_write = ix["(1,0)"], ix["(1,1)"]
        assert (a_read, mid_read) in g.addr.pairs
        assert (a_read, y_write) in d.ppo.pairs
        assert (y_write, c_read) in d.rfe.pairs
        assert (c_read, x_write) in d.bob.pairs
        assert (x_write, a_read) in d.rfe.pairs

    def test_detour_example_has_detour(self, corpus, corpus_candidates):
        test = corpus["detour"]

        def right_co(c):
            # the annotated run with the local x-write ordered before thread 0's
            g = c.execution
            ix = {str(e): i for i, e in enumerate(g.events)}
            return (
                assertion_holds(c, test)
                and (ix["(1,1)"], ix["(0,0)"]) in g.co.pairs
            )

        g = find_candidate(corpus_candidates["detour"], right_co)
        d = g.derive()
        assert d.detour
        assert not d.ar.is_acyclic()

    def test_detour_example_all_runs_die(self, corpus, corpus_candidates):
        # both coherence orders of the annotated outcome are inconsistent
        test = corpus["detour"]
        for c in corpus_candidates["detour"]:
            if assertion_holds(c, test):
                assert not check_imm(c.execution).consistent

    def test_rc11_variants_are_subsets(self, corpus_candidates):
        for name, cands in corpus_candidates.items():
            for c in cands[:40]:
                d = c.execution.derive()
                assert d.rs_rc11.pairs <= d.rs.pairs, name
                assert d.sw_rc11.pairs <= d.sw.pairs, name
                assert d.hb_rc11.pairs <= d.hb.pairs, name

    def test_shape_invariants(self, corpus_candidates):
        for name, cands in corpus_candidates.items():
            for c in cands[:40]:
                g = c.execution
                d = g.derive()
                assert d.hb.compose(d.hb).pairs <= d.hb.pairs
                assert d.sw.pairs <= d.hb.pairs
                assert g.po.pairs <= d.hb.pairs
                loc = g.loc_of
                assert all(loc[a] == loc[b] for a, b in d.eco.pairs), name
                assert d.fr == g.rf.inverse().compose(g.co)
                id_r, id_w = g.ident(g.R), g.ident(g.W)
                assert d.ppo.pairs <= id_r.seq(g.po, id_w).pairs
                assert d.bob.pairs <= g.po.pairs
                assert d.detour.pairs <= g.po.pairs


class TestDerivedNamespace:
    @staticmethod
    def fresh_graphs(corpus):
        """Every corpus candidate, enumerated anew so nothing is derived yet."""
        return [c.execution for t in corpus.values()
                for c in candidate_executions(t.program)]

    def test_entry_computed_once_on_first_read(self, corpus_candidates):
        g = corpus_candidates["mp"][0].execution
        calls = []
        d = namespace({"rfe": lambda g, r: calls.append(1) or g.rf - g.po})(g)
        assert "rfe" not in vars(d)
        assert d.rfe is d.rfe and d.rfe == g.rf - g.po
        assert calls == [1]

    def test_unknown_name_raises_attribute_error(self, corpus_candidates):
        d = corpus_candidates["mp"][0].execution.derive()
        with pytest.raises(AttributeError, match="nonesuch"):
            d.nonesuch
        assert not hasattr(d, "ii")  # a POWER relation, outside the IMM table
        assert getattr(d, "nonesuch", None) is None

    def test_derive_is_cached_and_imm_only(self, corpus_candidates):
        g = corpus_candidates["mp"][0].execution
        assert g.derive().hb is g.derive().hb
        assert vars(g.derive()) is vars(g.derive())
        g2 = Execution(g.events, g.labels, model="arm")
        with pytest.raises(ValueError, match="defined for imm executions"):
            g2.derive()

    def test_check_imm_builds_no_rc11_relation(self, corpus):
        rc11_only = [name for name in IMM_RELS if name.endswith("_rc11")] + ["vf_rlx"]
        assert len(rc11_only) == 4
        for g in self.fresh_graphs(corpus):
            check_imm(g)
            built = vars(g.derive())
            assert "ar" in built and not built.keys() & set(rc11_only)

    def test_check_c11_builds_no_ar_or_ppo(self, corpus):
        for g in self.fresh_graphs(corpus):
            check_c11(g)
            built = vars(g.derive())
            assert "hb_rc11" in built and not built.keys() & {"ar", "ppo"}


class TestProgramOrder:
    @staticmethod
    def precedes_pairs(g):
        return {(i, j) for i, a in enumerate(g.events)
                for j, b in enumerate(g.events) if a.precedes(b)}

    def test_po_is_precedes_on_corpus_and_mapped_graphs(self, corpus_candidates):
        from immlab.hwmodels import split_release, to_arm, to_power

        for name, cands in corpus_candidates.items():
            for c in cands[:8]:
                g = c.execution
                split = split_release(g)
                for graph in (g, split, to_power(split), to_arm(g), restrict_thread(g, 0)):
                    assert graph.po.pairs == self.precedes_pairs(graph), name

    def test_po_with_half_steps_and_no_init(self):
        g = Execution.build([
            (Event(2, 0), Write("rlx", 0, 1)),
            (Event(0, 1, 1), Fence("rel")),
            (Event(0, 0), Read("rlx", 0, 0)),
            (Event(0, 1), Write("rlx", 1, 1)),
            (Event(0, 2), Write("rlx", 0, 2)),
        ])
        assert g.po.pairs == self.precedes_pairs(g)
        assert len(g.po) == 6
        assert Execution.build([]).po == Rel(0)


def corpus_graphs(corpus, corpus_candidates):
    """Every corpus candidate, its split-release, POWER and ARM images, and
    the certification graph of every thread at every prefix of the
    traversal of each IMM_S-consistent candidate."""
    for name, cands in corpus_candidates.items():
        threads = corpus[name].program.threads
        for c in cands:
            g = c.execution
            split = split_release(g)
            yield from (g, split, to_power(split), to_arm(g))
            v = check_imms(g)
            if not v.consistent:
                continue
            sc = sc_witness_rel(g, v)
            steps = Traversal(g, sc=sc).traverse()
            for k in range(len(steps) + 1):
                tc = replay(g, steps[:k])
                for tid in g.tids():
                    try:
                        yield build_cert_graph(g, tc, tid, threads[tid], sc=sc).graph
                    except CertificationError:
                        pass


class TestEventsAndLabels:
    """Events order themselves as tuples, and a label is its slot plus its
    value."""

    @pytest.fixture(scope="class")
    def seen(self, corpus, corpus_candidates):
        events, labels, graphs = set(), set(), 0
        for g in corpus_graphs(corpus, corpus_candidates):
            events.update(g.events)
            labels.update(g.labels)
            graphs += 1
        return events, labels, graphs

    def test_tuple_order_is_the_canonical_order(self, seen):
        events, _, graphs = seen
        assert graphs > 1000 and len(events) > 20
        for a in events:
            for b in events:
                assert (a < b) == (event_key(a) < event_key(b)), (a, b)
                assert (a == b) == (event_key(a) == event_key(b)), (a, b)

    def test_a_label_is_its_slot_valued(self, seen):
        _, labels, _ = seen
        assert {lab.kind for lab in labels} == set("rwf")
        for lab in labels:
            assert type(lab) is Label and type(lab.slot) is Slot
            assert lab.slot.valued(lab.val) == lab
            assert lab.slot != lab

    def test_a_read_and_a_write_alike_but_in_kind_differ(self, seen):
        _, labels, _ = seen
        for lab in labels:
            if lab.kind == "r":
                assert Write(lab.mode, lab.loc, lab.val) != lab
            if lab.kind == "w":
                assert Read(lab.mode, lab.loc, lab.val) != lab
        assert len({Read("rlx", 0, 1), Write("rlx", 0, 1), Write("rlx", 0, 1, None)}) == 3

    @pytest.mark.parametrize("events", [
        [Event(0, 0), Event.init(0)],
        [Event.init(1), Event.init(0)],
        [Event(1, 0), Event(0, 0)],
        [Event(0, 1), Event(0, 0, 1)],
        [Event(0, 0, 1), Event(0, 0)],
        [Event(0, 0), Event(0, 0)],
    ])
    def test_shape_rejects_events_out_of_canonical_order(self, events):
        slots = [Slot("f", "sc")] * len(events)
        with pytest.raises(ValueError, match="canonical order"):
            Shape(events, slots)
        Shape(sorted(set(events), key=event_key), slots[:len(set(events))])


class TestRestrictThread:
    def test_mp_thread0(self, corpus, corpus_candidates):
        g = weak_mp(corpus, corpus_candidates)
        t0 = restrict_thread(g, 0)
        assert t0.n == 2
        assert t0.rf == Rel(2) and t0.co == Rel(2)

    def test_empty(self):
        g = Execution.build([])
        assert restrict_thread(g, 0).n == 0

    def test_labels_preserved_pointwise(self, corpus, corpus_candidates):
        g = weak_mp(corpus, corpus_candidates)
        t1 = restrict_thread(g, 1)
        # per-event comparison against the source
        for i, e in enumerate(t1.events):
            assert t1.labels[i] == g.labels[g.index_of(e)]


class TestOutcome:
    def test_mp_strong(self, corpus, corpus_candidates):
        test = corpus["mp"]
        g = find_candidate(
            corpus_candidates["mp"],
            lambda c: check_imm(c.execution).consistent,
        )
        assert g.outcome(locations=[0, 1]) == {0: 1, 1: 1}

    def test_unwritten_location_reads_zero(self, corpus, corpus_candidates):
        g = weak_mp(corpus, corpus_candidates)
        assert g.outcome(locations=[7])[7] == 0

    def test_three_writes_last_wins(self):
        rng = random.Random(6)
        for _ in range(10):
            order = [Event(0, 0), Event(1, 0), Event(2, 0)]
            rng.shuffle(order)
            vals = {order[0]: 1, order[1]: 2, order[2]: 3}
            co = [(Event.init(0), e) for e in order]
            co += [(order[i], order[j]) for i in range(3) for j in range(i + 1, 3)]
            g = Execution.build(
                [(Event.init(0), Write("rlx", 0, 0, "normal"))]
                + [(e, Write("rlx", 0, vals[e], "normal")) for e in order],
                co=co,
            )
            # linear-scan oracle: the write no co edge leaves
            co_set = set(co)
            last = next(e for e in order if not any((e, f) in co_set for f in order))
            assert last == order[-1]
            assert g.outcome(locations=[0])[0] == vals[last]
            assert [g.events[w] for w in g.co_order(0)] == [Event.init(0)] + order

    def test_partial_co_rejected(self):
        g = Execution.build(
            [
                (Event.init(0), Write("rlx", 0, 0, "normal")),
                (Event(0, 0), Write("rlx", 0, 1, "normal")),
                (Event(1, 0), Write("rlx", 0, 2, "normal")),
            ],
            co=[(Event.init(0), Event(0, 0)), (Event.init(0), Event(1, 0))],
        )
        assert g.co_order(0) is None
        with pytest.raises(ValueError, match="co not total"):
            g.outcome(locations=[0])


class TestSerialization:
    def test_round_trip(self, corpus, corpus_candidates):
        g = weak_mp(corpus, corpus_candidates)
        again = Execution.loads(g.dumps())
        assert signature(again) == signature(g)
        assert again.model == g.model

    def test_fixture_loads(self, fixtures_dir):
        doc = json.loads((fixtures_dir / "power_sync_fences.json").read_text())
        g = Execution.from_json(doc)
        assert g.model == "power"
        assert g.wellformed() == []
        assert doc["schema"] == 1

    def test_fixture_out_of_order_is_rejected(self, fixtures_dir):
        doc = json.loads((fixtures_dir / "power_sync_fences.json").read_text())
        events = doc["events"]
        events[-2], events[-1] = events[-1], events[-2]
        with pytest.raises(ValueError, match="canonical order"):
            Execution.from_json(doc)

    def test_sc_round_trips(self):
        g = Execution.build(
            [(Event(0, 0), Fence("sc")), (Event(1, 0), Fence("sc"))],
            sc=[(Event(0, 0), Event(1, 0))],
        )
        again = Execution.loads(g.dumps())
        assert again.sc.pairs == g.sc.pairs
