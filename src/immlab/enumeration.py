"""From programs to candidate executions.

Thread-local graphs come from an operational semantics that records, per
event, which reads fed its value (data), its address (addr), the current
control set (ctrl), and CAS-expectation reads (casdep). Candidates are the
cartesian product of terminal thread graphs completed with every reads-from
choice and every per-location coherence order. The full stream filters
nothing; the coherent stream (`candidate_executions(..., coherent=True)`)
drops the completions that break SC-per-location, which every model decided
here rejects, before any graph is built, and no other consistency axiom is
checked here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .execgraph import Event, Execution, Fence, Read, Write
from .program import (
    Assign,
    Cas,
    Fadd,
    FenceInst,
    IfGoto,
    Load,
    Store,
    eval_expr,
    expr_regs,
)
from .relalg import Rel


@dataclass(frozen=True)
class EventRec:
    label: object
    rmw_from: int | None  # local index of the exclusive read, for RMW writes
    data: frozenset
    addr: frozenset
    ctrl: frozenset
    casdep: frozenset


@dataclass
class ThreadState:
    """One thread's state: ⟨sprog, pc, Φ, G, Ψ, S⟩ plus a step budget."""

    sprog: list
    tid: int
    pc: int = 0
    phi: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    psi: dict = field(default_factory=dict)
    ctrl_set: frozenset = frozenset()
    steps: int = 0
    choices: tuple = ()  # read values chosen so far, for deterministic ordering

    def copy(self):
        return ThreadState(
            self.sprog, self.tid, self.pc, dict(self.phi), list(self.events),
            dict(self.psi), self.ctrl_set, self.steps, self.choices,
        )

    @property
    def terminal(self):
        return not (0 <= self.pc < len(self.sprog))

    def _phi(self, expr):
        # the initial register map is λr.0; fill on demand
        for reg in expr_regs(expr):
            self.phi.setdefault(reg, 0)
        return eval_expr(expr, self.phi)

    def _psi(self, expr):
        out = frozenset()
        for reg in expr_regs(expr):
            out |= self.psi.get(reg, frozenset())
        return out

    def _append(self, label, rmw_from=None, data=frozenset(), addr=frozenset(),
                casdep=frozenset()):
        self.events.append(
            EventRec(label, rmw_from, frozenset(data), frozenset(addr),
                     self.ctrl_set, frozenset(casdep))
        )
        return len(self.events) - 1

    def needs_value(self):
        """Does the next instruction read memory (and hence branch on a value)?"""
        return not self.terminal and isinstance(self.sprog[self.pc], (Load, Fadd, Cas))


def thread_step(state, read_value=None):
    """One instruction step; mutates and returns the state.

    read_value supplies the value for load/fadd/cas instructions.
    """
    inst = state.sprog[state.pc]
    state.steps += 1
    if isinstance(inst, Assign):
        state.phi[inst.reg] = state._phi(inst.expr)
        state.psi[inst.reg] = state._psi(inst.expr)
        state.pc += 1
    elif isinstance(inst, IfGoto):
        taken = state._phi(inst.expr) != 0
        state.ctrl_set = state.ctrl_set | state._psi(inst.expr)
        state.pc = inst.target if taken else state.pc + 1
    elif isinstance(inst, Store):
        state._append(
            Write(inst.mode, state._phi(inst.loc), state._phi(inst.value), "normal"),
            data=state._psi(inst.value),
            addr=state._psi(inst.loc),
        )
        state.pc += 1
    elif isinstance(inst, Load):
        assert read_value is not None
        idx = state._append(
            Read(inst.mode, state._phi(inst.loc), read_value, ex=False),
            addr=state._psi(inst.loc),
        )
        state.phi[inst.reg] = read_value
        state.psi[inst.reg] = frozenset((idx,))
        state.choices += (read_value,)
        state.pc += 1
    elif isinstance(inst, Fadd):
        assert read_value is not None
        loc = state._phi(inst.loc)
        addr = state._psi(inst.loc)
        ridx = state._append(Read(inst.read_mode, loc, read_value, ex=True), addr=addr)
        state._append(
            Write(inst.write_mode, loc, read_value + state._phi(inst.addend),
                  inst.rmw_mode),
            rmw_from=ridx,
            data=frozenset((ridx,)) | state._psi(inst.addend),
            addr=addr,
        )
        state.phi[inst.reg] = read_value
        state.psi[inst.reg] = frozenset((ridx,))
        state.choices += (read_value,)
        state.pc += 1
    elif isinstance(inst, Cas):
        assert read_value is not None
        loc = state._phi(inst.loc)
        addr = state._psi(inst.loc)
        ridx = state._append(
            Read(inst.read_mode, loc, read_value, ex=True),
            addr=addr,
            casdep=state._psi(inst.expected),
        )
        if read_value == state._phi(inst.expected):
            state._append(
                Write(inst.write_mode, loc, state._phi(inst.new), inst.rmw_mode),
                rmw_from=ridx,
                data=state._psi(inst.new),
                addr=addr,
            )
        state.phi[inst.reg] = read_value
        state.psi[inst.reg] = frozenset((ridx,))
        state.choices += (read_value,)
        state.pc += 1
    elif isinstance(inst, FenceInst):
        state._append(Fence(inst.mode))
        state.pc += 1
    else:
        raise TypeError(inst)
    return state


@dataclass
class ThreadResult:
    tid: int
    events: list  # EventRecs
    phi: dict
    choices: tuple
    terminal: bool

    @functools.cached_property
    def event_ids(self):
        """The Event of each of the run's events, shared by every skeleton
        the run is part of."""
        return [Event(self.tid, idx) for idx in range(len(self.events))]

    @functools.cached_property
    def po_loc_pairs(self):
        """(a, b, b is a write) for each two events of the run at one
        location with none there between them, as indices into events."""
        pairs = []
        last = {}
        for idx, rec in enumerate(self.events):
            loc = rec.label.loc
            if loc is not None:
                if loc in last:
                    pairs.append((last[loc], idx, rec.label.kind == "w"))
                last[loc] = idx
        return pairs


def step_budget(sprog, unroll):
    """How many instruction steps one run of thread program sprog may take:
    unroll passes over it, at least one step. A run that needs more is
    truncated in enumeration, and replay and certification stop there too."""
    return max(1, unroll * max(1, len(sprog)))


def thread_graphs(sprog, tid, values, unroll=8):
    """All thread-local graphs reachable within the step budget.

    Returns (results, truncated_count); results hold terminal runs only,
    sorted by their read-value choice sequence.
    """
    budget = step_budget(sprog, unroll)
    results = []
    truncated = 0
    stack = [ThreadState(list(sprog), tid)]
    while stack:
        st = stack.pop()
        while not st.terminal and not st.needs_value():
            if st.steps >= budget:
                break
            thread_step(st)
        if st.terminal:
            results.append(ThreadResult(tid, st.events, st.phi, st.choices, True))
            continue
        if st.steps >= budget:
            truncated += 1
            continue
        for v in reversed(values):
            branch = st.copy()
            thread_step(branch, read_value=v)
            stack.append(branch)
    results.sort(key=lambda r: r.choices)
    return results, truncated


@dataclass
class Candidate:
    execution: Execution
    final_regs: dict  # tid -> register map


@dataclass
class EnumerationReport:
    truncated_threads: int = 0
    truncated_candidates: bool = False
    candidates: int = 0
    pruned: int = 0  # incoherent completions the coherent stream dropped

    @property
    def complete(self):
        return self.truncated_threads == 0 and not self.truncated_candidates


def _skeleton(combo):
    """The locations of one tuple of terminal thread runs, given in tid
    order, and the labels of its events in canonical order: one init write
    per location first, by location, then each thread's events in order."""
    locs = sorted({rec.label.loc for res in combo for rec in res.events
                   if rec.label.loc is not None})
    labels = [Write("rlx", loc, 0, "normal") for loc in locs]
    for res in combo:
        labels += [rec.label for rec in res.events]
    return locs, tuple(labels)


def _events(combo, locs):
    """The events that _skeleton labels."""
    events = [Event.init(loc) for loc in locs]
    for res in combo:
        events += res.event_ids
    return tuple(events)


def _dependencies(combo, n, base):
    """The rmw, data, addr, ctrl and casdep relations that every completion
    of the skeleton of combo shares, over its n events, of which the first
    base are init events."""
    rows = {name: [0] * n for name in ("rmw", "data", "addr", "ctrl", "casdep")}
    for res in combo:
        for idx, rec in enumerate(res.events):
            bit = 1 << (base + idx)
            if rec.rmw_from is not None:
                rows["rmw"][base + rec.rmw_from] |= bit
            for name in ("data", "addr", "ctrl", "casdep"):
                for src in getattr(rec, name):
                    rows[name][base + src] |= bit
        base += len(res.events)
    # ctrl is forward-closed by construction: the control set only grows
    return {name: Rel.from_rows(n, r) for name, r in rows.items()}


def candidate_executions(program, unroll=8, max_candidates=None, report=None,
                         coherent=False):
    """Stream candidate full executions in deterministic lexicographic order,
    at most max_candidates of them (at least 1) when a cap is given.

    With coherent=True only the completions that satisfy SC-per-location
    are made (see _complete); they come in the same relative order as in
    the full stream, the cap counts them alone, and report.pruned counts
    the completions dropped."""
    if max_candidates is not None and max_candidates < 1:
        raise ValueError(f"max_candidates must be at least 1, got {max_candidates}")
    values = program.candidate_values()
    if report is None:
        report = EnumerationReport()
    per_thread = []
    for tid, body in enumerate(program.threads):
        results, truncated = thread_graphs(body, tid, values, unroll)
        report.truncated_threads += truncated
        per_thread.append(results)

    emitted = 0
    for combo in itertools.product(*per_thread):
        for cand in _complete(combo, report=report if coherent else None):
            yield cand
            emitted += 1
            report.candidates = emitted
            if max_candidates is not None and emitted >= max_candidates:
                report.truncated_candidates = True
                return


def _coherent_orders(pairs, slots, reads, parts):
    """For one location, the function from an rf choice to those of its co
    orders (`parts`, in co_parts form) that keep po_loc ∪ rf ∪ co ∪ fr
    acyclic there, memoized on the location's own rf sub-choice (the
    writers at `slots`). `pairs` holds each (a, b, b is a write) with a
    and b po-consecutive events of one thread at the location.

    Let pos(e) be e for a write and its rf source for a read. Every rf, co
    and fr edge keeps pos co-non-decreasing, and co and fr raise it. Hence
    the location is acyclic exactly when, along each pair (a, b), pos(a) is
    co-before pos(b), or pos(a) = pos(b) with b a read: a cycle could then
    hold only rf edges and po edges into reads, and those never close a
    cycle; conversely a pair that fails closes one with co, fr, rf, co;rf
    or fr;rf from b back to a. An rf choice under which some pair has
    pos(a) = pos(b) for a write b (b feeds a po-earlier read: a po_loc ∪ rf
    cycle) keeps no order at all."""
    ranks = [{w: i for i, (w, _) in enumerate(part)} for part in parts]
    loc_reads = [reads[s] for s in slots]
    memo = {}

    def survivors(rf_combo):
        key = tuple(rf_combo[s] for s in slots)
        kept = memo.get(key)
        if kept is None:
            src = dict(zip(loc_reads, key))
            before = set()
            for a, b, to_write in pairs:
                sa, sb = src.get(a, a), src.get(b, b)
                if sa != sb:
                    before.add((sa, sb))
                elif to_write:
                    before = None
                    break
            kept = [] if before is None else [
                part for part, rank in zip(parts, ranks)
                if all(rank[x] < rank[y] for x, y in before)]
            memo[key] = kept
        return kept

    return survivors


def _complete(combo, report=None):
    """Enumerate rf and co completions over the event skeleton of combo:
    every read takes each same-location, same-value write in event order,
    and for each such choice every location's non-init writes take each
    permutation after its init write. The events and the relations every
    completion shares are built when the first completion is made.

    Given a report, only the completions that satisfy SC-per-location,
    acyclic(po_loc ∪ rf ∪ fr ∪ co), are made, and report.pruned counts the
    rest; nothing is built for them. Every edge of that union joins events
    of one location, so the check splits into one per location that reads
    only that location's rf and co choices (_coherent_orders), and the
    survivors are the product of each location's surviving orders, taken
    in the order of the full product. Dropping them loses no consistent
    candidate of any model decided here:

    - imm, imms, c11, rc11: their coherence axiom is irreflexive(hb;eco?)
      with hb either the IMM hb or hb_rc11, and po ⊆ hb in both. Every
      completion has functional, total rf and a strict total co per
      location, so eco is rf ∪ co;rf? ∪ fr;rf?. A po_loc ∪ rf ∪ fr ∪ co
      cycle contains a po_loc pair (a, b) that _coherent_orders rejects,
      and every rejected pair has eco(b, a): co, fr, rf, co;rf or fr;rf
      from b to a. With po(a, b) ⊆ hb, hb;eco? is reflexive at a. This is
      the coherence theorem of Lahav et al., Repairing Sequential
      Consistency in C/C++11 (PLDI 2017).
    - power (with or without the at-order axiom, POWER or ARMv7 dependency
      order) and arm: their first row is sc-per-loc, the same acyclicity,
      on the image of the graph. split_release, to_power and to_arm only
      insert fences and relabel modes, so they keep every memory event
      with its location, and keep po between memory events, rf and co;
      fr = rf⁻¹;co follows. A source cycle is thus an image cycle.
    """
    locs, labels = _skeleton(combo)
    n = len(labels)
    reads = [i for i, lab in enumerate(labels) if lab.kind == "r"]
    writes = [i for i, lab in enumerate(labels) if lab.kind == "w"]

    writers_of = []
    for r in reads:
        lab = labels[r]
        cands = [w for w in writes if labels[w].loc == lab.loc and labels[w].val == lab.val]
        if not cands:
            return
        writers_of.append(cands)

    by_loc = {}
    for w in writes:
        by_loc.setdefault(labels[w].loc, []).append(w)
    co_parts = []  # per location, per order: (write, writes it precedes) pairs
    for k, loc in enumerate(locs):
        # by_loc[loc] is the init write k, then the location's other writes
        orders = [[k, *perm] for perm in itertools.permutations(by_loc[loc][1:])]
        co_parts.append([
            [(w, sum(1 << v for v in order[i + 1:])) for i, w in enumerate(order)]
            for order in orders
        ])

    # (position in co_parts, its filter) for each location where some thread
    # has two events; at any other location every order is coherent
    filters = []
    if report is not None:
        pairs = {}
        base = len(locs)  # the init events, one per location, come first
        for res in combo:
            for a, b, to_write in res.po_loc_pairs:
                pairs.setdefault(labels[base + b].loc, []).append(
                    (base + a, base + b, to_write))
            base += len(res.events)
        for k, loc in enumerate(locs):
            if loc in pairs:
                slots = [s for s, r in enumerate(reads) if labels[r].loc == loc]
                filters.append((k, _coherent_orders(pairs[loc], slots, reads,
                                                    co_parts[k])))
    if filters:
        full = math.prod(len(parts) for parts in co_parts)

    final_regs = {res.tid: dict(res.phi) for res in combo}
    events = shared = None

    for rf_combo in itertools.product(*writers_of):
        co_choices = co_parts
        if filters:
            co_choices = list(co_parts)
            for k, survivors in filters:
                co_choices[k] = survivors(rf_combo)
            kept = math.prod(len(parts) for parts in co_choices)
            report.pruned += full - kept
            if not kept:
                continue
        rf = [0] * n
        for w, r in zip(rf_combo, reads):
            rf[w] |= 1 << r
        rf = Rel.from_rows(n, rf)
        if events is None:
            events = _events(combo, locs)
            shared = _dependencies(combo, n, len(locs))
        for co_combo in itertools.product(*co_choices):
            co = [0] * n
            for order in co_combo:
                for w, later in order:
                    co[w] = later
            execution = Execution(events, labels, rf=rf, co=Rel.from_rows(n, co), **shared)
            yield Candidate(execution=execution, final_regs=final_regs)


def assertion_values(candidate, program):
    """Name → value environment for assertion checking."""
    env = {}
    out = candidate.execution.outcome(locations=range(len(program.locations)))
    for i, name in enumerate(program.locations):
        env[name] = out.get(i, 0)
    for regs in candidate.final_regs.values():
        for reg, val in regs.items():
            env.setdefault(reg, val)
    return env


def assertion_holds(candidate, test):
    env = assertion_values(candidate, test.program)
    return all(env.get(name) == value for name, value in test.assertion)

