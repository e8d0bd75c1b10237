import functools
import json
import math
import os
import random
import subprocess
import sys

import pytest

from immlab import consistency, hwmodels
from immlab.cli import main
from immlab.enumeration import (
    EnumerationReport,
    ThreadState,
    assertion_holds,
    candidate_executions,
    thread_graphs,
    thread_step,
)
from immlab.execgraph import Write
from immlab.fuzz import FuzzConfig, random_program
from immlab.program import parse_litmus

from conftest import CORPUS_DIR, ROOT
from oracles import (
    is_initialized,
    literal_values,
    pair_built_candidates,
    sc_per_location,
    signature,
)

SRC = ROOT / "src"
FUZZ_SEEDS = (11, 29)
FUZZ_PROGRAMS = 20  # per seed
FUZZ_CAP = 400  # programs with more candidates are skipped

# b=2 is a value that only a computed write makes
COMPUTED = ('prog "COMPUTED"\nlocations x y\nvals 0..2\n'
            "thread 0:\n  r[rlx] a x\n  w[rlx] y a + 1\n"
            "thread 1:\n  w[rlx] x 1\nthread 2:\n  r[rlx] b y\n"
            "assert allowed: b=2\n")

# every checker a verdict is decided with, keyed by model and flags
CHECKERS = {model: consistency.checker_for(model) for model in consistency.MODELS}
CHECKERS["power --power-at-axiom"] = functools.partial(hwmodels.check_imm_via_power,
                                                       at_axiom=True)
CHECKERS["power --armv7"] = functools.partial(hwmodels.check_imm_via_power, armv7=True)


class TestThreadStep:
    def test_load_appends_read_and_tracks_register(self, corpus):
        body = corpus["mp"].program.threads[1]
        st = ThreadState(list(body), 1)
        thread_step(st, read_value=1)
        assert len(st.events) == 1
        lab = st.events[0].label
        assert lab.kind == "r" and lab.val == 1 and lab.mode == "acq"
        assert st.psi["a"] == frozenset((0,))
        assert st.phi["a"] == 1

    def test_assign_leaves_graph_unchanged(self):
        t = parse_litmus('prog "A"\nlocations x\nthread 0:\n  a := 1\n  w[rlx] x a\n')
        st = ThreadState(list(t.program.threads[0]), 0)
        thread_step(st)
        assert st.events == []  # G' = G on assignments
        thread_step(st)
        assert len(st.events) == 1

    def test_failing_cas_appends_only_the_read(self, corpus):
        body = corpus["casdep"].program.threads[0]
        st = ThreadState(list(body), 0)
        thread_step(st, read_value=1)  # a := 1
        thread_step(st, read_value=0)  # cas reads 0 ≠ a: failure
        kinds = [rec.label.kind for rec in st.events]
        assert kinds == ["r", "r"]
        assert st.events[1].label.ex
        assert st.events[1].casdep == frozenset((0,))  # expectation came from the load

    def test_successful_cas_appends_write(self, corpus):
        body = corpus["casdep"].program.threads[0]
        st = ThreadState(list(body), 0)
        thread_step(st, read_value=1)
        thread_step(st, read_value=1)  # equals a: success
        kinds = [rec.label.kind for rec in st.events]
        assert kinds == ["r", "r", "w"]
        assert st.events[2].rmw_from == 1

    def test_fadd_dependencies(self, corpus):
        body = corpus["atomicity"].program.threads[0]
        st = ThreadState(list(body), 0)
        thread_step(st, read_value=0)
        read, write = st.events
        assert read.label.ex and write.label.kind == "w"
        assert write.label.val == 1
        assert write.rmw_from == 0
        assert 0 in write.data  # the exclusive read feeds the written value

    def test_register_addressed_fadd(self):
        # location and addend both come from earlier reads: the address reads
        # feed addr of both rmw events, the addend read feeds the write's data
        t = parse_litmus(
            'prog "FA"\nlocations x y z w\nvals 0..3\nthread 0:\n'
            "  r[rlx] a x\n  r[rlx] b y\n  fadd[rlx,rlx] c a b\n  w[rlx] w 1\n"
        )
        st = ThreadState(list(t.program.threads[0]), 0)
        thread_step(st, read_value=2)  # a = 2: the fadd targets location z
        thread_step(st, read_value=1)  # b = 1
        thread_step(st, read_value=2)  # the exclusive read returns 2
        thread_step(st)
        labels = [rec.label for rec in st.events]
        assert labels[2].loc == 2 and labels[2].ex
        assert labels[3].loc == 2 and labels[3].val == 3
        assert st.events[2].addr == frozenset((0,))
        assert st.events[3].addr == frozenset((0,))
        assert st.events[3].data == frozenset((1, 2))

    def test_goto_extends_control_set(self):
        t = parse_litmus(
            'prog "G"\nlocations x y\nthread 0:\n'
            "  r[rlx] a x\n  if a goto 3\n  w[rlx] y 1\n"
        )
        st = ThreadState(list(t.program.threads[0]), 0)
        thread_step(st, read_value=0)
        thread_step(st)  # branch not taken
        thread_step(st)
        assert st.events[1].ctrl == frozenset((0,))


class TestThreadGraphs:
    def test_mp_thread1_four_graphs(self, corpus):
        results, truncated = thread_graphs(corpus["mp"].program.threads[1], 1, (0, 1))
        assert len(results) == 4 and truncated == 0

    def test_store_only_thread_single_graph(self, corpus):
        results, truncated = thread_graphs(corpus["mp"].program.threads[0], 0, (0, 1))
        assert len(results) == 1 and truncated == 0

    def test_cas_two_shapes(self, corpus):
        # trailing `w z 2` follows either shape of the CAS
        results, _ = thread_graphs(corpus["casdep"].program.threads[0], 0, (0, 1))
        shapes = {tuple(rec.label.kind for rec in r.events) for r in results}
        assert ("r", "r", "w", "w") in shapes  # successful CAS emits its write
        assert ("r", "r", "w") in shapes  # failed CAS keeps only the exclusive read

    def test_loop_truncation_reported(self):
        t = parse_litmus(
            'prog "LOOP"\nlocations x\nthread 0:\n  w[rlx] x 1\n  if 1 goto 0\n'
        )
        results, truncated = thread_graphs(t.program.threads[0], 0, (0, 1), unroll=2)
        assert truncated == 1 and results == []

    def test_skipped_assignment_reads_zero(self):
        # control flow can jump over a register's assignment; the initial
        # register map is all zeroes, so the later use is defined
        t = parse_litmus(
            'prog "SKIP"\nlocations x y\nvals 0..1\nthread 0:\n'
            "  if 1 goto 2\n  r[rlx] a x\n  w[rlx] y a\n"
        )
        results, truncated = thread_graphs(t.program.threads[0], 0, (0, 1))
        assert truncated == 0 and len(results) == 1
        (res,) = results
        assert [rec.label.kind for rec in res.events] == ["w"]
        assert res.events[0].label.val == 0

    def test_backward_goto_within_bound_terminates(self):
        t = parse_litmus(
            'prog "DEC"\nlocations x\nthread 0:\n'
            "  r[rlx] a x\n  a := a - 1\n  if a goto 1\n  w[rlx] x 9\n"
        )
        results, truncated = thread_graphs(t.program.threads[0], 0, (0, 1, 2))
        assert truncated == 0 and results
        # the store is the last instruction, made only once the loop exits:
        # every run ended
        assert all(r.labels[-1] == Write("rlx", 0, 9, "normal") for r in results)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_runs_come_in_order_of_their_read_values(self, corpus, seed):
        rng = random.Random(seed)
        programs = [test.program for test in corpus.values()]
        programs += [random_program(rng, FuzzConfig()) for _ in range(FUZZ_PROGRAMS)]
        for program in programs:
            for tid, body in enumerate(program.threads):
                results, _ = thread_graphs(body, tid, program.candidate_values())
                reads = [tuple(lab.val for lab in r.labels if lab.kind == "r")
                         for r in results]
                assert all(a < b for a, b in zip(reads, reads[1:])), (program, tid)


class TestCandidates:
    def test_mp_weak_rf_forced(self, corpus, corpus_candidates):
        test = corpus["mp"]
        weak = [c for c in corpus_candidates["mp"] if assertion_holds(c, test)]
        assert len(weak) == 1
        g = weak[0].execution
        ix = {str(e): i for i, e in enumerate(g.events)}
        assert (ix["(0,1)"], ix["(1,0)"]) in g.rf.pairs  # a=1 reads the y-write
        assert (ix["init(0)"], ix["(1,1)"]) in g.rf.pairs  # b=0 reads the init

    def test_single_choice_program(self):
        t = parse_litmus(
            'prog "1W1R"\nlocations x\nvals 0..1\nthread 0:\n  w[rlx] x 1\n'
            "thread 1:\n  r[rlx] a x\n"
        )
        cands = list(candidate_executions(t.program))
        # a=0 (init) and a=1 (the write); one rf choice each; co forced
        assert len(cands) == 2

    def test_permutation_count_three_same_value_writes(self):
        t = parse_litmus(
            'prog "3W"\nlocations x\nvals 0..1\nthread 0:\n  w[rlx] x 1\n'
            "thread 1:\n  w[rlx] x 1\nthread 2:\n  w[rlx] x 1\n"
        )
        cands = list(candidate_executions(t.program))
        assert len(cands) == math.factorial(3)

    def test_closed_form_product(self):
        # 2 same-value writes to x and one read of 1: rf choices × co perms
        t = parse_litmus(
            'prog "P"\nlocations x\nvals 0..1\nthread 0:\n  w[rlx] x 1\n'
            "thread 1:\n  w[rlx] x 1\nthread 2:\n  r[rlx] a x\n"
        )
        cands = list(candidate_executions(t.program))
        with_one = [c for c in cands if c.final_regs[2]["a"] == 1]
        with_zero = [c for c in cands if c.final_regs[2]["a"] == 0]
        assert len(with_one) == 2 * 2  # 2 writers × 2 coherence orders
        assert len(with_zero) == 1 * 2  # init only × 2 coherence orders

    def test_register_a_branch_skips_is_zero(self, tmp_path, capsys):
        # the a=1 run jumps over the read into b, which keeps its initial 0
        src = ('prog "SKIP-READ"\nlocations x\nvals 0..1\nthread 0:\n'
               "  r[rlx] a x\n  if a != 0 goto 3\n  r[rlx] b x\n"
               "thread 1:\n  w[rlx] x 1\nassert allowed: a=1 /\\ b=0\n")
        t = parse_litmus(src)
        regs = [c.final_regs[0] for c in candidate_executions(t.program)]
        assert {"a": 1, "b": 0} in regs and all(r.keys() == {"a", "b"} for r in regs)
        path = tmp_path / "skip-read.litmus"
        path.write_text(src)
        assert main(["check", str(path), "--model", "imm", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "allowed"

    def test_registers_iterate_in_one_order_under_every_hash_seed(self):
        # the initial register map once followed a frozenset's order, which
        # moves with the hash seed
        src = ('prog "REGS"\nlocations x y\nthread 0:\n'
               "  r[rlx] a x\n  r[rlx] b y\n  r[rlx] c x\n  r[rlx] d y\n  e := 1\n  f := e\n")
        script = ("import sys\n"
                  "from immlab.enumeration import candidate_executions\n"
                  "from immlab.program import parse_litmus\n"
                  "cand = next(candidate_executions(parse_litmus(sys.argv[1]).program))\n"
                  "print(' '.join(cand.final_regs[0]))\n")
        orders = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
            done = subprocess.run([sys.executable, "-c", script, src], env=env,
                                  capture_output=True, text=True, check=True)
            orders.append(done.stdout.split())
        assert orders[0] == orders[1] == ["a", "b", "c", "d", "e", "f"]

    def test_a_computed_value_is_read_back(self, tmp_path, capsys):
        # reads once took only the literals and the fetch-add closure, and
        # check answered forbidden, complete
        path = tmp_path / "computed.litmus"
        path.write_text(COMPUTED)
        assert main(["check", str(path), "--model", "imm", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "allowed" and doc["complete"]

    def test_every_candidate_of_the_literal_rule_in_order(self, corpus, monkeypatch):
        # the declared domain holds every literal value, so its stream holds
        # the stream of the narrower rule as a subsequence
        programs = [test.program for test in corpus.values()]
        programs.append(parse_litmus(COMPUTED).program)
        for seed in (7, *FUZZ_SEEDS):
            rng = random.Random(seed)
            programs += [random_program(rng, FuzzConfig()) for _ in range(FUZZ_PROGRAMS)]
        compared = grew = 0
        for program in programs:
            new_report, old_report = EnumerationReport(), EnumerationReport()
            new = [(signature(c.execution), c.final_regs) for c in candidate_executions(
                program, max_candidates=FUZZ_CAP, report=new_report)]
            monkeypatch.setattr(program, "candidate_values",
                                functools.partial(literal_values, program))
            old = [(signature(c.execution), c.final_regs) for c in candidate_executions(
                program, max_candidates=FUZZ_CAP, report=old_report)]
            if not new_report.complete:
                continue
            rest = iter(new)
            assert all(cand in rest for cand in old), program
            compared += 1
            grew += len(new) > len(old)
        assert compared >= 3 * FUZZ_PROGRAMS and grew

    def test_every_candidate_wellformed_and_complete(self, corpus_candidates):
        for name, cands in corpus_candidates.items():
            for c in cands:
                g = c.execution
                assert g.wellformed() == [], name
                assert g.rf.codom() == g.R, name
                for loc in g.locations():
                    assert g.co.is_total_on(g.writes_to(loc)), name
                assert is_initialized(g), name

    def test_row_built_candidates_match_pair_built(self, corpus, corpus_candidates):
        # the rows filled per candidate against Execution.build over event pairs
        for name, test in corpus.items():
            built = [(g.to_json(), regs) for g, regs in pair_built_candidates(test.program)]
            rows = [(c.execution.to_json(), c.final_regs) for c in corpus_candidates[name]]
            assert rows == built, name

    def test_deterministic_order(self, corpus):
        a = [signature(c.execution) for c in candidate_executions(corpus["mp"].program)]
        b = [signature(c.execution) for c in candidate_executions(corpus["mp"].program)]
        assert a == b

    def test_max_candidates_flags_truncation(self, corpus):
        report = EnumerationReport()
        cands = list(
            candidate_executions(corpus["iriw-sc"].program, max_candidates=3, report=report)
        )
        assert len(cands) == 3
        assert report.truncated_candidates and not report.complete


@pytest.mark.parametrize("coherent", (False, True))
def test_final_memory_is_the_graph_outcome(corpus, coherent):
    # what `wanted` decides on before any graph is built: each location's
    # final value from the co choice, against the co-last write of the graph
    programs = [test.program for test in corpus.values()]
    for seed in (7, 11):
        rng = random.Random(seed)
        programs += [random_program(rng, FuzzConfig()) for _ in range(FUZZ_PROGRAMS)]
    ordered = 0  # candidates with a location of two or more non-init writes
    for i, program in enumerate(programs):
        locations = range(len(program.locations))
        for cand in candidate_executions(program, max_candidates=FUZZ_CAP,
                                         coherent=coherent):
            g = cand.execution
            assert ({loc: cand.final.get(loc, 0) for loc in locations}
                    == g.outcome(locations=locations)), i
            ordered += any(len(g.writes_to(loc)) > 2 for loc in g.locations())
    assert ordered


@pytest.fixture(scope="module")
def streams(corpus):
    """name -> (full stream, coherent stream, the coherent stream's report)
    for every corpus test and every uncapped seeded fuzz program."""
    programs = [(name, test.program) for name, test in corpus.items()]
    for seed in FUZZ_SEEDS:
        rng = random.Random(seed)
        programs += [(f"fuzz-{seed}-{i}", random_program(rng, FuzzConfig()))
                     for i in range(FUZZ_PROGRAMS)]
    out = {}
    for name, program in programs:
        full_report = EnumerationReport()
        full = list(candidate_executions(program, max_candidates=FUZZ_CAP,
                                         report=full_report))
        if not full_report.complete:
            continue
        report = EnumerationReport()
        coherent = list(candidate_executions(program, report=report, coherent=True))
        out[name] = (full, coherent, report)
    assert sum(name.startswith("fuzz") for name in out) >= FUZZ_PROGRAMS
    return out


def signatures(cands, check=None):
    return [signature(c.execution) for c in cands
            if check is None or check(c.execution).consistent]


class TestCoherentStream:
    @pytest.mark.parametrize("checker", sorted(CHECKERS))
    def test_same_consistent_candidates_as_the_full_stream(self, streams, checker):
        check = CHECKERS[checker]
        for name, (full, coherent, _) in streams.items():
            assert signatures(coherent, check) == signatures(full, check), name

    def test_is_the_full_stream_filtered_by_sc_per_location(self, streams):
        for name, (full, coherent, _) in streams.items():
            kept = [c for c in full if sc_per_location(c.execution)]
            assert signatures(coherent) == signatures(kept), name

    def test_pruned_counts_the_dropped_completions(self, streams):
        for name, (full, coherent, report) in streams.items():
            assert report.pruned == len(full) - len(coherent), name
            assert report.candidates == len(coherent) and report.complete, name
        corpus_pruned = sum(report.pruned for name, (_, _, report) in streams.items()
                            if not name.startswith("fuzz"))
        assert corpus_pruned == 247 - 120

    def test_full_stream_prunes_nothing(self, corpus):
        report = EnumerationReport()
        cands = list(candidate_executions(corpus["coh"].program, report=report))
        assert report.pruned == 0 and report.candidates == len(cands)

    def test_cap_counts_coherent_candidates(self, corpus, streams):
        _, coherent, _ = streams["coh"]
        report = EnumerationReport()
        capped = list(candidate_executions(corpus["coh"].program, max_candidates=2,
                                           report=report, coherent=True))
        assert signatures(capped) == signatures(coherent[:2])
        assert report.truncated_candidates and report.candidates == 2


class TestOutcomes:
    @staticmethod
    def outcomes(capsys, name, model):
        code = main(["outcomes", str(CORPUS_DIR / f"{name}.litmus"), "--model", model,
                     "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["complete"]
        return doc["outcomes"]

    def test_per_model_outcomes(self, capsys):
        imm = self.outcomes(capsys, "lb-data", "imm")
        rc11 = self.outcomes(capsys, "lb-data", "rc11")
        assert {"x": 1, "y": 1} in imm
        # the annotated execution is rc11-inconsistent but another run still
        # produces x=1: outcome sets coincide even though executions differ
        assert imm == rc11

    def test_mp_single_outcome(self, capsys):
        assert self.outcomes(capsys, "mp", "imm") == [{"x": 1, "y": 1}]
