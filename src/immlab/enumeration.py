"""From programs to candidate executions.

Thread-local graphs come from an operational semantics that records, per
event, which reads fed its value (data), its address (addr), the current
control set (ctrl), and CAS-expectation reads (casdep). Candidates are the
cartesian product of terminal thread graphs completed with every reads-from
choice and every per-location coherence order; consistency is not filtered
here.
"""

from __future__ import annotations

import itertools
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

    @property
    def complete(self):
        return self.truncated_threads == 0 and not self.truncated_candidates


def _assemble(combo):
    """The skeleton of one tuple of terminal thread runs, given in tid order:
    its events in canonical order (init events first by location, then each
    thread's events in order), their labels, and the rmw, data, addr, ctrl
    and casdep relations every completion of it shares."""
    locs = sorted({rec.label.loc for res in combo for rec in res.events
                   if rec.label.loc is not None})
    events = [Event.init(loc) for loc in locs]
    labels = [Write("rlx", loc, 0, "normal") for loc in locs]
    n = len(locs) + sum(len(res.events) for res in combo)
    rows = {name: [0] * n for name in ("rmw", "data", "addr", "ctrl", "casdep")}
    for res in combo:
        base = len(events)
        for idx, rec in enumerate(res.events):
            bit = 1 << len(events)
            events.append(Event(res.tid, idx))
            labels.append(rec.label)
            if rec.rmw_from is not None:
                rows["rmw"][base + rec.rmw_from] |= bit
            for name in ("data", "addr", "ctrl", "casdep"):
                for src in getattr(rec, name):
                    rows[name][base + src] |= bit
    # ctrl is forward-closed by construction: the control set only grows
    shared = {name: Rel.from_rows(n, r) for name, r in rows.items()}
    return tuple(events), tuple(labels), shared


def candidate_executions(program, unroll=8, max_candidates=None, report=None):
    """Stream candidate full executions in deterministic lexicographic order,
    at most max_candidates of them (at least 1) when a cap is given."""
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
        for cand in _complete(combo, *_assemble(combo)):
            yield cand
            emitted += 1
            report.candidates = emitted
            if max_candidates is not None and emitted >= max_candidates:
                report.truncated_candidates = True
                return


def _complete(combo, events, labels, shared):
    """Enumerate rf and co completions over a fixed event skeleton: every
    read takes each same-location, same-value write in event order, and
    for each such choice every location's non-init writes take each
    permutation after its init write."""
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
    for loc in sorted(by_loc):
        inits = [w for w in by_loc[loc] if events[w].is_init]
        rest = [w for w in by_loc[loc] if not events[w].is_init]
        orders = [inits + list(perm) for perm in itertools.permutations(rest)]
        co_parts.append([
            [(w, sum(1 << v for v in order[i + 1:])) for i, w in enumerate(order)]
            for order in orders
        ])

    final_regs = {res.tid: dict(res.phi) for res in combo}

    for rf_combo in itertools.product(*writers_of):
        rf = [0] * n
        for w, r in zip(rf_combo, reads):
            rf[w] |= 1 << r
        rf = Rel.from_rows(n, rf)
        for co_combo in itertools.product(*co_parts):
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

