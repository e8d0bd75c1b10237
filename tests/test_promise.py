import pytest

from immlab import promise
from immlab.consistency import check_imm
from immlab.enumeration import ThreadState, assertion_holds, candidate_executions
from immlab.program import parse_litmus
from immlab.promise import (
    MachineState,
    Message,
    PromiseError,
    PThreadState,
    SimulationError,
    UnsupportedFragment,
    certify,
    check_relaxed,
    initial_machine,
    machine_outcome,
    simulate_traversal,
    thread_machine_step,
    timestamp_map,
)
from immlab.traversal import Traversal

from conftest import SPIN_LITMUS
from oracles import sim_invariants_full


def annotated_graph(corpus, corpus_candidates, name):
    test = corpus[name]
    return next(
        c.execution
        for c in corpus_candidates[name]
        if assertion_holds(c, test) and check_imm(c.execution).consistent
    )


@pytest.fixture(scope="module")
def lb(corpus):
    return corpus["lb-data"]


def left_thread(lb):
    return PThreadState(ThreadState(list(lb.program.threads[0]), 0))


def right_thread(lb):
    return PThreadState(ThreadState(list(lb.program.threads[1]), 1))


def init_memory():
    return frozenset({Message(0, 0, 0), Message(1, 0, 0)})


class TestMachineSteps:
    def test_read_init_at_view_zero(self, lb):
        ts = left_thread(lb)
        ts2, mem = thread_machine_step(ts, init_memory(), ("read", 0, 0))
        assert ts2.v(0) == 0
        assert mem == init_memory()
        assert ts2.sigma.phi["a"] == 0

    def test_stale_read_rejected(self, lb):
        ts = left_thread(lb)
        ts.view[0] = 2
        with pytest.raises(PromiseError, match="stale"):
            thread_machine_step(ts, init_memory() | {Message(0, 1, 1)}, ("read", 0, 1))

    def test_promise_occupied_timestamp(self, lb):
        ts = left_thread(lb)
        mem = init_memory() | {Message(1, 1, 1)}
        with pytest.raises(PromiseError, match="occupied"):
            thread_machine_step(ts, mem, ("promise", Message(1, 2, 1)))

    def test_promise_then_fulfill(self, lb):
        ts = left_thread(lb)
        msg = Message(1, 1, 1)
        ts, mem = thread_machine_step(ts, init_memory(), ("promise", msg))
        assert msg in ts.promises and msg in mem
        ts, mem = thread_machine_step(ts, mem, ("read", 0, 0))
        ts, mem2 = thread_machine_step(ts, mem, ("write", 1, 1, 1))
        assert ts.promises == frozenset()
        assert mem2 == mem  # fulfilled, not re-added

    def test_write_below_view_rejected(self, lb):
        ts = left_thread(lb)
        ts.view[1] = 3
        ts, mem = thread_machine_step(ts, init_memory(), ("read", 0, 0))
        ts.view[1] = 3
        with pytest.raises(PromiseError, match="not above view"):
            thread_machine_step(ts, mem, ("write", 1, 1, 2))

    def test_read_of_another_location_rejected(self):
        # the load reads x; a read step at y once ran it with y's value and
        # raised the thread's view of y
        t = parse_litmus('prog "R"\nlocations x y\nthread 0:\n  r[rlx] a x\n  w[rlx] y 1\n')
        ts = PThreadState(ThreadState(list(t.program.threads[0]), 0))
        mem = init_memory() | {Message(1, 2, 1)}
        with pytest.raises(SimulationError, match="load read 0, wanted 1"):
            thread_machine_step(ts, mem, ("read", 1, 1))
        assert ts.v(1) == 0 and ts.sigma.events == []

    def test_unsupported_fragment(self, corpus):
        with pytest.raises(UnsupportedFragment):
            check_relaxed(corpus["mp"].program)
        check_relaxed(corpus["lb-data"].program)


class TestCertify:
    def test_left_thread_promise_certifiable(self, lb):
        ts = left_thread(lb)
        ts, mem = thread_machine_step(ts, init_memory(), ("promise", Message(1, 1, 1)))
        assert certify(ts, mem) is True

    def test_right_thread_cannot_promise_first(self, lb):
        # its write depends on the read of y, which can only return 0 alone
        ts = right_thread(lb)
        ts, mem = thread_machine_step(ts, init_memory(), ("promise", Message(0, 1, 1)))
        assert certify(ts, mem) is False

    def test_fulfilled_promises_certify_immediately(self, lb):
        ts = left_thread(lb)
        assert certify(ts, init_memory()) is True

    def test_certification_can_squeeze_timestamps(self):
        # the thread must write below an existing message to read past its own
        src = """
prog "SQUEEZE"
locations x y
vals 0..2
thread 0:
  w[rlx] x 2
thread 1:
  w[rlx] x 1
  r[rlx] a x
  w[rlx] y a
"""
        test = parse_litmus(src)
        ts = PThreadState(ThreadState(list(test.program.threads[1]), 1))
        mem = frozenset({Message(0, 0, 0), Message(1, 0, 0), Message(0, 2, 2)})
        ts, mem = thread_machine_step(ts, mem, ("promise", Message(1, 2, 1)))
        assert certify(ts, mem) is True

    def test_silent_loop_is_cut_by_the_step_budget(self):
        # reading x=0 sends the thread into a loop without memory steps
        test = parse_litmus(
            'prog "LOOP"\nlocations x y\nthread 0:\n  r[rlx] a x\n'
            "  if a == 1 goto 3\n  if 1 goto 2\n  w[rlx] y 1\n"
        )
        mem = frozenset({Message(0, 0, 0), Message(1, 0, 0)})
        ts = PThreadState(ThreadState(list(test.program.threads[0]), 0))
        ts, mem = thread_machine_step(ts, mem, ("promise", Message(1, 1, 1)))
        assert certify(ts, mem) == "inconclusive"
        assert certify(ts, mem | {Message(0, 1, 1)}) is True


class TestTimestampMap:
    def test_init_zero_and_ranks(self, corpus, corpus_candidates):
        g = annotated_graph(corpus, corpus_candidates, "lb-data")
        t = timestamp_map(g)
        for i in g.init_events:
            assert t[i] == 0
        per_loc = {}
        for w in g.W:
            per_loc.setdefault(g.loc_of[w], []).append(t[w])
        for loc, ts in per_loc.items():
            assert sorted(ts) == list(range(len(ts)))

    def test_monotone_on_corpus(self, corpus_candidates):
        for c in corpus_candidates["detour"][:8]:
            g = c.execution
            t = timestamp_map(g)
            for a, b in g.co.pairs:
                assert t[a] < t[b]


class TestOutcome:
    def test_initial_memory_zeroes(self, lb):
        ms = initial_machine(lb.program, [0, 1])
        assert machine_outcome(ms) == {0: 0, 1: 0}

    def test_unfulfilled_promise_rejected(self, lb):
        ms = initial_machine(lb.program, [0, 1])
        ts = ms.threads[0]
        ts2, mem = thread_machine_step(ts, ms.memory, ("promise", Message(1, 1, 1)))
        ms.threads[0] = ts2
        ms.memory = mem
        with pytest.raises(PromiseError, match="unfulfilled"):
            machine_outcome(ms)

    def test_max_timestamp_scan(self, lb):
        ms = initial_machine(lb.program, [0, 1])
        ms.memory = ms.memory | {Message(0, 1, 1), Message(0, 2, 2), Message(1, 2, 1)}
        out = machine_outcome(ms)
        assert out == {0: 2, 1: 2}


class TestSimulation:
    def test_lb_data_reproduces_annotated_outcome(self, corpus, corpus_candidates, lb):
        g = annotated_graph(corpus, corpus_candidates, "lb-data")
        steps = Traversal(g).traverse()
        trace, outcome = simulate_traversal(g, steps, lb.program)
        assert outcome == g.outcome()
        promises = [t for t in trace if t["machine"] == "promise"]
        assert promises[0] == {
            "step": 0, "machine": "promise", "tid": 0,
            "message": "⟨1:1@1⟩", "certified": True,
        }

    def test_every_relaxed_corpus_graph_simulates(self, corpus, corpus_candidates):
        ran = 0
        for name, test in corpus.items():
            if not test.program.is_relaxed_only():
                continue
            for c in corpus_candidates[name]:
                g = c.execution
                if not check_imm(g).consistent:
                    continue
                steps = Traversal(g).traverse()
                _, outcome = simulate_traversal(g, steps, test.program)
                assert outcome == g.outcome(), name
                ran += 1
        assert ran >= 10

    def test_write_only_program(self):
        test = parse_litmus(
            'prog "W2"\nlocations x\nvals 0..2\nthread 0:\n  w[rlx] x 1\n'
            "thread 1:\n  w[rlx] x 2\n"
        )
        for c in candidate_executions(test.program):
            g = c.execution
            if not check_imm(g).consistent:
                continue
            steps = Traversal(g).traverse()
            trace, outcome = simulate_traversal(g, steps, test.program)
            assert outcome == g.outcome()
            kinds = [t["machine"] for t in trace]
            assert kinds.count("promise") == 2 and kinds.count("write") == 2

    def test_long_loop_replays_within_the_enumeration_budget(self):
        test = parse_litmus(SPIN_LITMUS)
        graphs = [c.execution for c in candidate_executions(test.program, unroll=101)
                  if check_imm(c.execution).consistent]
        assert len(graphs) == 2
        for g in graphs:
            steps = Traversal(g).traverse()
            _, outcome = simulate_traversal(g, steps, test.program, unroll=101)
            assert outcome == g.outcome()

    def test_rejects_non_relaxed(self, corpus, corpus_candidates):
        g = next(c.execution for c in corpus_candidates["mp"]
                 if check_imm(c.execution).consistent)
        with pytest.raises(UnsupportedFragment):
            simulate_traversal(g, [], corpus["mp"].program)

    @pytest.mark.parametrize("change, problem", [
        (lambda ts: ts.view.__setitem__(0, 7), "view of thread 0 at 0: 7 != 0"),
        (lambda ts: setattr(ts, "promises", frozenset()),
         "uncovered issued (0,1) not promised"),
    ])
    def test_state_changed_in_place_between_steps(self, corpus, corpus_candidates, lb,
                                                  monkeypatch, change, problem):
        # lb-data's traversal issues (0,1), then steps thread 1; thread 0 is
        # changed in place after the first step's check
        g = annotated_graph(corpus, corpus_candidates, "lb-data")
        steps = Traversal(g).traverse()
        assert [(str(g.events[s.event]), s.kind) for s in steps[:2]] == [
            ("(0,1)", "issue"), ("(1,0)", "cover")]
        machines = []

        def initial(*args):
            machines.append(initial_machine(*args))
            return machines[-1]

        def tampering():
            yield steps[0]
            change(machines[0].threads[0])
            yield from steps[1:]

        monkeypatch.setattr(promise, "initial_machine", initial)
        with pytest.raises(SimulationError) as err:
            simulate_traversal(g, tampering(), lb.program)
        assert str(err.value) == (
            f"simulation invariant broken after step 1 (cover (1,0)): [{problem!r}]"
        )


class TestSimInvariants:
    """_SimCheck on a machine tampered after the first promise of the
    lb-data traversal."""

    @pytest.fixture
    def promised(self, corpus, corpus_candidates, lb):
        g = annotated_graph(corpus, corpus_candidates, "lb-data")
        tmap = timestamp_map(g)
        step = Traversal(g).traverse()[0]
        assert step.kind == "issue"
        w = step.event
        tid = g.tid_of(w)
        ms = initial_machine(lb.program, g.locations())
        msg = Message(g.loc_of[w], g.val_of[w], tmap[w])
        ms.threads[tid], ms.memory = thread_machine_step(
            ms.threads[tid], ms.memory, ("promise", msg))
        inits = frozenset(g.init_events)
        check = lambda: promise._SimCheck(g, tmap, 8).problems(  # noqa: E731
            inits, inits | {w}, ms)
        assert check() == []
        return g, w, tid, msg, ms, check

    def test_removed_promise(self, promised):
        g, w, tid, msg, ms, check = promised
        ms.threads[tid].promises = frozenset()
        assert check() == [f"uncovered issued {g.events[w]} not promised"]

    def test_promise_without_issued_event(self, promised):
        g, w, tid, msg, ms, check = promised
        stray = Message(msg.loc, msg.val + 1, msg.t)
        ms.threads[tid].promises |= {stray}
        assert check() == [f"promise {stray} has no issued uncovered event"]

    def test_shifted_view(self, promised):
        g, w, tid, msg, ms, check = promised
        ms.threads[tid].view[msg.loc] = 5
        assert check() == [f"view of thread {tid} at {msg.loc}: 5 != 0"]

    def test_stray_message(self, promised):
        g, w, tid, msg, ms, check = promised
        stray = Message(msg.loc, msg.val, msg.t + 1)
        ms.memory |= {stray}
        assert check() == [f"message {stray} has no issued counterpart"]

    def test_issued_write_missing_from_memory(self, promised):
        g, w, tid, msg, ms, check = promised
        ms.memory -= {msg}
        assert check() == [f"issued {g.events[w]} missing from memory"]

    def test_init_timestamp_not_0(self, promised):
        g, w, tid, msg, ms, check = promised
        tmap = timestamp_map(g)
        init = min(g.init_events)
        tmap[init] = 1
        ms.memory = ms.memory - {Message(g.loc_of[init], 0, 0)} | {
            Message(g.loc_of[init], 0, 1)}
        inits = frozenset(g.init_events)
        assert promise._SimCheck(g, tmap, 8).problems(inits, inits | {w}, ms) == [
            "init timestamp not 0"]

    def test_t_disagrees_with_co(self, promised):
        # the promise is stamped below the init write it follows in co
        g, w, tid, msg, ms, check = promised
        tmap = timestamp_map(g)
        tmap[w] = -1
        early = Message(msg.loc, msg.val, -1)
        ms.memory = ms.memory - {msg} | {early}
        ms.threads[tid].promises = frozenset({early})
        init = next(i for i in g.init_events if g.loc_of[i] == msg.loc)
        inits = frozenset(g.init_events)
        assert promise._SimCheck(g, tmap, 8).problems(inits, inits | {w}, ms) == [
            f"T disagrees with co on ({init},{w})"]

    def test_state_does_not_match_covered_events(self, promised):
        # the thread has read x, but its read is not covered
        g, w, tid, msg, ms, check = promised
        ms.threads[tid], ms.memory = thread_machine_step(
            ms.threads[tid], ms.memory, ("read", 0, 0))
        assert check() == [f"thread {tid} state does not match covered events"]

    def test_cannot_reach_full_graph(self, promised):
        g, w, tid, msg, ms, check = promised
        other = 1 - tid
        sigma = ms.threads[other].sigma
        sigma.pc = len(sigma.sprog)
        assert check() == [f"thread {other} cannot reach its full graph"]


def _relaxed_sources(corpus, corpus_candidates, replay_workload_graphs):
    """(graph, program) for every IMM-consistent candidate of a relaxed corpus
    program, and for every graph of the replay workload at seed 3."""
    for name, test in corpus.items():
        if test.program.is_relaxed_only():
            for c in corpus_candidates[name]:
                if check_imm(c.execution).consistent:
                    yield c.execution, test.program
    yield from replay_workload_graphs


def _tampered(ms):
    """Copies of ms, each changed in one place: per thread its view, its
    promises, its events or its pc; memory with a stray message, and memory
    without its newest message."""
    def copy_with(change, tid=None):
        bad = MachineState({t: ts.copy() for t, ts in ms.threads.items()}, ms.memory)
        change(bad.threads[tid] if tid is not None else bad)
        return bad

    top = max(ms.memory, key=lambda m: (m.t, m.loc, m.val))
    for tid, ts in ms.threads.items():
        yield copy_with(lambda t: t.view.__setitem__(top.loc, t.v(top.loc) + 1), tid)
        yield copy_with(lambda t: setattr(t, "promises", t.promises ^ {top}), tid)
        if ts.sigma.events:
            yield copy_with(lambda t: t.sigma.events.pop(), tid)
        yield copy_with(lambda t: setattr(t.sigma, "pc", len(t.sigma.sprog)), tid)
    yield copy_with(lambda m: setattr(m, "memory", m.memory | {
        Message(top.loc, top.val, top.t + 9)}))
    if top.t:
        yield copy_with(lambda m: setattr(m, "memory", m.memory - {top}))


class TestDeltaChecks:
    """The simulation invariants, a thread's clauses skipped while its inputs
    are unchanged, against every clause of every thread, at every step of
    the traversal of every graph."""

    def test_problem_lists_match_the_full_check(self, corpus, corpus_candidates,
                                                replay_workload_graphs, monkeypatch):
        lists = []
        checked = promise._SimCheck.problems

        def both(self, covered, issued, ms):
            for bad in _tampered(ms):
                got = checked(self, covered, issued, bad)
                want = sim_invariants_full(self.g, self.tmap, covered, issued, bad,
                                           self.unroll)
                assert got == want
                lists.append(got)
            got = checked(self, covered, issued, ms)
            assert got == sim_invariants_full(self.g, self.tmap, covered, issued, ms,
                                              self.unroll)
            return got

        monkeypatch.setattr(promise._SimCheck, "problems", both)
        for g, program in _relaxed_sources(corpus, corpus_candidates,
                                           replay_workload_graphs):
            simulate_traversal(g, Traversal(g).traverse(), program)
        assert sum(1 for found in lists if found) > 10000

    def test_trace_and_outcome_match_the_full_check(self, corpus, corpus_candidates,
                                                    replay_workload_graphs,
                                                    monkeypatch):
        runs = [(g, program, Traversal(g).traverse()) for g, program in
                _relaxed_sources(corpus, corpus_candidates, replay_workload_graphs)]
        by_deltas = [simulate_traversal(g, steps, program) for g, program, steps in runs]
        monkeypatch.setattr(
            promise._SimCheck, "problems",
            lambda self, covered, issued, ms: sim_invariants_full(
                self.g, self.tmap, covered, issued, ms, self.unroll))
        assert by_deltas == [simulate_traversal(g, steps, program)
                             for g, program, steps in runs]
