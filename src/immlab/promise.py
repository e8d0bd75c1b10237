"""The relaxed-fragment promise machine and the traversal-driven simulation.

Messages carry natural timestamps (coherence ranks). Threads promise future
writes, every promise must be certifiable by running the thread in isolation,
and the machine reproduces each consistent graph outcome by following a
traversal: issue = promise, cover = execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .enumeration import UNROLL, ThreadState, pinned_run, step_budget, thread_step
from .program import Load, MemoryInst, Store, eval_expr, is_relaxed


class PromiseError(RuntimeError):
    pass


class UnsupportedFragment(PromiseError):
    pass


class SimulationError(PromiseError):
    pass


@dataclass(frozen=True)
class Message:
    loc: int
    val: int
    t: int

    def __str__(self):
        return f"⟨{self.loc}:{self.val}@{self.t}⟩"


@dataclass
class PThreadState:
    sigma: ThreadState
    view: dict = field(default_factory=dict)  # loc -> timestamp, default 0
    promises: frozenset = frozenset()

    def v(self, loc):
        return self.view.get(loc, 0)

    def copy(self):
        return PThreadState(self.sigma.copy(), dict(self.view), self.promises)


@dataclass
class MachineState:
    threads: dict  # tid -> PThreadState
    memory: frozenset  # of Message


def check_relaxed(program):
    for body in program.threads:
        for inst in body:
            if not is_relaxed(inst):
                raise UnsupportedFragment(f"unsupported fragment: {inst}")


def initial_machine(program, locations):
    threads = {
        tid: PThreadState(ThreadState(list(body), tid))
        for tid, body in enumerate(program.threads)
    }
    memory = frozenset(Message(loc, 0, 0) for loc in locations)
    return MachineState(threads, memory)


def _silent_next(sigma):
    return not sigma.terminal and not isinstance(sigma.sprog[sigma.pc], MemoryInst)


def advance_silent(sigma, budget=None):
    """Run assign/if-goto steps up to the next memory instruction, or until
    the thread has taken budget steps in all when a budget is given."""
    while _silent_next(sigma) and (budget is None or sigma.steps < budget):
        thread_step(sigma)
    return sigma


def thread_machine_step(ts, memory, action):
    """One machine step of a single thread; returns (ts', memory').

    Actions: ("promise", Message), ("read", loc, t), ("write", loc, val, t).
    """
    kind = action[0]
    if kind == "promise":
        msg = action[1]
        if msg.t == 0:
            raise PromiseError("timestamp 0 is reserved for initialization")
        if any(m.loc == msg.loc and m.t == msg.t for m in memory):
            raise PromiseError(f"occupied timestamp for {msg}")
        ts2 = ts.copy()
        ts2.promises = ts.promises | {msg}
        return ts2, memory | {msg}

    if kind == "read":
        _, loc, t = action
        msg = next((m for m in memory if m.loc == loc and m.t == t), None)
        if msg is None:
            raise PromiseError(f"no message at {loc}@{t}")
        if t < ts.v(loc):
            raise PromiseError(f"stale read: {msg} below view {ts.v(loc)}")
        ts2 = ts.copy()
        advance_silent(ts2.sigma)
        if ts2.sigma.terminal or not isinstance(ts2.sigma.sprog[ts2.sigma.pc], Load):
            raise SimulationError("next instruction is not a load")
        thread_step(ts2.sigma, read_value=msg.val)
        emitted = ts2.sigma.events[-1].label
        if emitted.loc != loc:
            raise SimulationError(f"load read {emitted.loc}, wanted {loc}")
        ts2.view[loc] = t
        return ts2, memory

    if kind == "write":
        _, loc, val, t = action
        if t <= ts.v(loc):
            raise PromiseError(f"timestamp {t} not above view {ts.v(loc)} at {loc}")
        ts2 = ts.copy()
        advance_silent(ts2.sigma)
        if ts2.sigma.terminal or not isinstance(ts2.sigma.sprog[ts2.sigma.pc], Store):
            raise SimulationError("next instruction is not a store")
        thread_step(ts2.sigma)
        emitted = ts2.sigma.events[-1].label
        if emitted.loc != loc or emitted.val != val:
            raise SimulationError(
                f"store produced ({emitted.loc},{emitted.val}), wanted ({loc},{val})"
            )
        msg = Message(loc, val, t)
        if msg in ts.promises:
            ts2.promises = ts.promises - {msg}  # fulfill
        else:
            if any(m.loc == loc and m.t == t for m in memory):
                raise PromiseError(f"occupied timestamp for {msg}")
            memory = memory | {msg}
        ts2.view[loc] = t
        return ts2, memory

    raise ValueError(action)


def certify(ts, memory, unroll=UNROLL):
    """Can the thread, running alone, fulfill all its promises?

    Bounded DFS over thread steps; new messages take any unused timestamp
    above the view at their location (up to one past the current maximum).
    A branch ends when it has taken as many memory steps as the budget
    allows, or when the thread has taken as many steps in all (a silent
    loop). Returns True/False, or "inconclusive" when the budget pruned a
    branch.
    """
    budget = step_budget(ts.sigma.sprog, unroll)
    seen = set()
    pruned = [False]

    def key(ts2, memory2):
        return (
            ts2.sigma.pc,
            tuple(sorted(ts2.sigma.phi.items())),
            tuple(sorted(ts2.view.items())),
            frozenset(ts2.promises),
            memory2,
            len(ts2.sigma.events),
        )

    def go(ts2, memory2, depth):
        if not ts2.promises:
            return True
        sigma = ts2.sigma
        advance_silent(sigma, budget)
        if sigma.terminal:
            return False
        if depth <= 0 or _silent_next(sigma):
            pruned[0] = True
            return False
        k = key(ts2, memory2)
        if k in seen:
            return False
        seen.add(k)
        inst = sigma.sprog[sigma.pc]
        if isinstance(inst, Load):
            loc = eval_expr(inst.loc, sigma.phi)
            for msg in sorted(memory2, key=lambda m: m.t):
                if msg.loc != loc or msg.t < ts2.v(loc):
                    continue
                nts, nmem = thread_machine_step(ts2, memory2, ("read", loc, msg.t))
                if go(nts, nmem, depth - 1):
                    return True
            return False
        if isinstance(inst, Store):
            loc = eval_expr(inst.loc, sigma.phi)
            val = eval_expr(inst.value, sigma.phi)
            used = {m.t for m in memory2 if m.loc == loc}
            top = max(used, default=0) + 1
            for t in range(ts2.v(loc) + 1, top + 1):
                if t in used and Message(loc, val, t) not in ts2.promises:
                    continue
                nts, nmem = thread_machine_step(ts2, memory2, ("write", loc, val, t))
                if go(nts, nmem, depth - 1):
                    return True
            return False
        raise UnsupportedFragment(f"unsupported fragment: {inst}")

    ok = go(ts.copy(), memory, budget)
    if not ok and pruned[0]:
        return "inconclusive"
    return ok


def timestamp_map(g):
    """Coherence ranks as timestamps; initialization writes get 0."""
    t = {}
    for loc in g.locations():
        order = g.co_order(loc)
        if order is None:
            raise ValueError(f"co not total on location {loc}")
        rank = 0
        for w in order:
            if g.events[w].is_init:
                t[w] = 0
            else:
                rank += 1
                t[w] = rank
    return t


def machine_outcome(ms):
    """Per location, the value of the maximal-timestamp message."""
    for tid, ts in ms.threads.items():
        if ts.promises:
            raise PromiseError(f"thread {tid} has unfulfilled promises")
    out = {}
    for msg in ms.memory:
        cur = out.get(msg.loc)
        if cur is None or msg.t > cur[0]:
            out[msg.loc] = (msg.t, msg.val)
    return {loc: val for loc, (_, val) in out.items()}


class _SimCheck:
    """The simulation invariants over the states of one machine run.

    Every check asserts the clauses over timestamps, issued writes and
    memory. A thread's own clauses are skipped when its inputs (its state,
    and its events covered and issued) equal by value those of its last
    passing check.
    """

    def __init__(self, g, tmap, unroll):
        self.g = g
        self.tmap = tmap
        self.unroll = unroll
        self.vf = g.derive().vf_rlx
        self.message = {}  # issued write -> its message
        self.passed = {}  # tid -> (state, covered, issued) of its last pass

    def problems(self, covered, issued, ms):
        g = self.g
        message = self.message
        for w in issued:
            if w not in message:
                message[w] = Message(g.loc_of[w], g.val_of[w], self.tmap[w])
        problems = self._global(issued, ms.memory)
        for tid, ts in ms.threads.items():
            ethread = g.thread_events(tid)
            inputs = (ts, ethread & covered, ethread & issued)
            if self.passed.get(tid) == inputs:
                continue
            found = self._thread(tid, ts, covered, issued)
            if not found:
                self.passed[tid] = (ts.copy(), *inputs[1:])
            problems += found
        return problems

    def _global(self, issued, memory):
        """The clauses over timestamps, issued writes and memory."""
        g, tmap, message = self.g, self.tmap, self.message
        problems = []
        for w in g.init_events:
            if tmap.get(w, 0) != 0:
                problems.append("init timestamp not 0")
        for w, w2 in g.co.restrict(issued, issued):
            if tmap[w] > tmap[w2]:
                problems.append(f"T disagrees with co on ({w},{w2})")
        stamps = {(message[w].loc, message[w].t) for w in issued}
        for m in memory:
            if m.t != 0 and (m.loc, m.t) not in stamps:
                problems.append(f"message {m} has no issued counterpart")
        for w in issued:
            if message[w] not in memory:
                problems.append(f"issued {g.events[w]} missing from memory")
        return problems

    def _thread(self, tid, ts, covered, issued):
        """The clauses of one thread: whether they hold depends on ts and on
        covered and issued within the thread's events alone."""
        g, tmap, message = self.g, self.tmap, self.message
        problems = []
        ethread = g.thread_events(tid)
        outstanding = ethread & issued - covered
        promised = {message[w] for w in outstanding}
        for m in ts.promises:
            if m not in promised:
                problems.append(f"promise {m} has no issued uncovered event")
        for w in outstanding:
            if message[w] not in ts.promises:
                problems.append(f"uncovered issued {g.events[w]} not promised")
        covered_here = ethread & covered
        seen = self.vf.preimage(covered_here)
        for loc in g.locations():
            expect = max((tmap[w] for w in g.writes_to(loc) & seen), default=0)
            if ts.v(loc) != expect:
                problems.append(
                    f"view of thread {tid} at {loc}: {ts.v(loc)} != {expect}"
                )
        emitted = ts.sigma.events
        targets = sorted(covered_here, key=lambda i: g.events[i].sn)
        if len(emitted) != len(targets) or any(
            emitted[k].label != g.labels[e] for k, e in enumerate(targets)
        ):
            problems.append(f"thread {tid} state does not match covered events")
        if not _can_reach(g, tid, ts.sigma, self.unroll):
            problems.append(f"thread {tid} cannot reach its full graph")
        return problems


def _can_reach(g, tid, sigma, unroll):
    """Replaying the remaining instructions with graph-pinned reads must
    reproduce the thread's restriction of g, and then end, within the step
    budget that enumeration gave the thread."""
    targets = sorted(g.thread_events(tid), key=lambda i: g.events[i].sn)
    probe = sigma.copy()
    budget = step_budget(probe.sprog, unroll)
    for k, rec in pinned_run(probe, len(targets), lambda k: g.labels[targets[k]].val, budget):
        if k >= len(targets) or rec.label != g.labels[targets[k]]:
            return False
    advance_silent(probe, budget)
    return probe.terminal and len(probe.events) == len(targets)


def simulate_traversal(g, steps, program, unroll=UNROLL):
    """Drive the machine along a traversal; returns (trace, outcome).

    issue ↦ promise (certified at once); cover of a read ↦ read from the
    issued source's message; cover of an issued write ↦ fulfill. The
    simulation invariants are checked at the start and after every step,
    each thread within the step budget of unroll passes over its program.

    One `_SimCheck` makes the checks. Each runs the clauses over timestamps,
    issued writes and memory. A step changes one thread's state and adds at
    most one event to covered or issued, so a thread's own clauses,
    `_can_reach` among them, are skipped when its state (compared as a
    value: pc, registers, step count, events, view and promises), its
    covered events and its issued events equal those of its last passing
    check. Those clauses read nothing else
    that changes in a run, and `_can_reach` is a function of the state, so a
    skipped thread's result is the same empty list. A state changed in place
    differs from the copy kept at its last pass, and is checked.
    The diagnostics, and their order, are those of a check of every clause
    over every thread (the `sim_invariants_full` oracle of the tests).
    """
    check_relaxed(program)
    tmap = timestamp_map(g)
    ms = initial_machine(program, g.locations())
    rf_src = {r: w for w, r in g.rf}
    covered = set(g.init_events)
    issued = set(g.init_events)
    trace = []
    invariants = _SimCheck(g, tmap, unroll)

    def run_invariants(where):
        problems = invariants.problems(frozenset(covered), frozenset(issued), ms)
        if problems:
            raise SimulationError(f"simulation invariant broken after {where}: {problems}")

    run_invariants("init")
    for idx, step in enumerate(steps):
        e = step.event
        tid = g.events[e].tid
        ts = ms.threads[tid]
        if step.kind == "issue":
            msg = Message(g.loc_of[e], g.val_of[e], tmap[e])
            ts2, mem2 = thread_machine_step(ts, ms.memory, ("promise", msg))
            ms.threads[tid] = ts2
            ms.memory = mem2
            issued.add(e)
            cert = certify(ts2, ms.memory, unroll=unroll)
            if cert is not True:
                raise SimulationError(f"promise {msg} not certifiable ({cert})")
            trace.append({"step": idx, "machine": "promise", "tid": tid,
                          "message": str(msg), "certified": True})
        elif step.kind == "cover":
            if e in g.R:
                src = rf_src[e]
                act = ("read", g.loc_of[e], tmap[src])
            elif e in g.W:
                act = ("write", g.loc_of[e], g.val_of[e], tmap[e])
                if Message(g.loc_of[e], g.val_of[e], tmap[e]) not in ts.promises:
                    raise SimulationError(f"covering {g.events[e]} without a promise")
            else:
                raise UnsupportedFragment("fences are outside the relaxed fragment")
            ts2, mem2 = thread_machine_step(ts, ms.memory, act)
            ms.threads[tid] = ts2
            ms.memory = mem2
            covered.add(e)
            trace.append({"step": idx, "machine": act[0], "tid": tid,
                          "event": str(g.events[e])})
        else:
            raise UnsupportedFragment(f"{step.kind} is outside the relaxed fragment")
        run_invariants(f"step {idx} ({step.kind} {g.events[e]})")

    for tid, ts in ms.threads.items():
        advance_silent(ts.sigma)
        if not ts.sigma.terminal:
            raise SimulationError(f"thread {tid} did not finish")
        if ts.promises:
            raise SimulationError(f"thread {tid} still has promises")
    outcome = machine_outcome(ms)
    return trace, outcome
