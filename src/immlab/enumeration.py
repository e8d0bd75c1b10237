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

import itertools
import math
from dataclasses import dataclass, field

from .execgraph import Event, Execution, Fence, Read, Shape, Write
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
    registers,
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


UNROLL = 8  # the default per-thread loop unroll bound


@dataclass
class ThreadState:
    """One thread's state: ⟨sprog, pc, Φ, G, Ψ, S⟩ plus a step budget. A
    state made without phi starts from λr.0 over sprog's registers, by
    name, so a run's registers iterate in the same order in every process."""

    sprog: list
    tid: int
    pc: int = 0
    phi: dict | None = None
    events: list = field(default_factory=list)
    psi: dict = field(default_factory=dict)
    ctrl_set: frozenset = frozenset()
    steps: int = 0

    def __post_init__(self):
        if self.phi is None:
            self.phi = dict.fromkeys(sorted(registers(self.sprog)), 0)

    def copy(self):
        return ThreadState(
            self.sprog, self.tid, self.pc, dict(self.phi), list(self.events),
            dict(self.psi), self.ctrl_set, self.steps,
        )

    @property
    def terminal(self):
        return not (0 <= self.pc < len(self.sprog))

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

    read_value is the value of the read step of load, fadd and cas: the
    read takes it into the destination register, then fadd always makes its
    write and cas makes its write when the value is the expected one.
    """
    inst = state.sprog[state.pc]
    phi = state.phi
    state.steps += 1
    if isinstance(inst, IfGoto):
        state.ctrl_set = state.ctrl_set | state._psi(inst.expr)
        state.pc = inst.target if eval_expr(inst.expr, phi) else state.pc + 1
        return state
    if isinstance(inst, Assign):
        phi[inst.reg] = eval_expr(inst.expr, phi)
        state.psi[inst.reg] = state._psi(inst.expr)
    elif isinstance(inst, Store):
        state._append(
            Write(inst.mode, eval_expr(inst.loc, phi), eval_expr(inst.value, phi), "normal"),
            data=state._psi(inst.value),
            addr=state._psi(inst.loc),
        )
    elif isinstance(inst, FenceInst):
        state._append(Fence(inst.mode))
    elif isinstance(inst, (Load, Fadd, Cas)):
        assert read_value is not None
        loc = eval_expr(inst.loc, phi)
        addr = state._psi(inst.loc)
        ex = not isinstance(inst, Load)
        casdep = state._psi(inst.expected) if isinstance(inst, Cas) else frozenset()
        ridx = state._append(Read(inst.read_mode if ex else inst.mode, loc, read_value, ex=ex),
                             addr=addr, casdep=casdep)
        if isinstance(inst, Fadd):
            state._append(
                Write(inst.write_mode, loc, read_value + eval_expr(inst.addend, phi),
                      inst.rmw_mode),
                rmw_from=ridx,
                data=frozenset((ridx,)) | state._psi(inst.addend),
                addr=addr,
            )
        elif isinstance(inst, Cas) and read_value == eval_expr(inst.expected, phi):
            state._append(
                Write(inst.write_mode, loc, eval_expr(inst.new, phi), inst.rmw_mode),
                rmw_from=ridx,
                data=state._psi(inst.new),
                addr=addr,
            )
        phi[inst.reg] = read_value
        state.psi[inst.reg] = frozenset((ridx,))
    else:
        raise TypeError(inst)
    state.pc += 1
    return state


def pinned_run(state, count, value_at, budget):
    """Run state on until it has made count events, has ended, or has taken
    budget steps in all; the read that makes event k takes value_at(k).
    Yields (k, record) for each event made, in order; a step may make one
    event more than count asks for (a fetch-add's write)."""
    events = state.events
    while len(events) < count and not state.terminal and state.steps < budget:
        k = len(events)
        thread_step(state, value_at(k) if state.needs_value() else None)
        for k in range(k, len(events)):
            yield k, events[k]


@dataclass
class ThreadResult:
    """One ended run of a thread: its events (EventRecs) and final
    registers, and what every search reads of it, made with it: its labels,
    the values of its writes and of its reads, in order, and its shape key
    (its events without their values, with their dependencies: runs of one
    thread with equal keys give skeletons one shape)."""

    tid: int
    events: list
    phi: dict
    labels: tuple = field(init=False)
    write_values: tuple = field(init=False)
    read_values: tuple = field(init=False)
    shape_key: tuple = field(init=False)

    def __post_init__(self):
        self.labels = labels = tuple([rec.label for rec in self.events])
        self.write_values = tuple([lab.val for lab in labels if lab.kind == "w"])
        self.read_values = tuple([lab.val for lab in labels if lab.kind == "r"])
        self.shape_key = tuple([(rec.label.slot, rec.rmw_from, rec.data, rec.addr, rec.ctrl,
                                 rec.casdep) for rec in self.events])


def step_budget(sprog, unroll):
    """How many instruction steps one run of thread program sprog may take:
    unroll passes over it, at least one step. A run that needs more is
    truncated in enumeration, and replay and certification stop there too."""
    return max(1, unroll * max(1, len(sprog)))


def thread_graphs(sprog, tid, values, unroll=UNROLL):
    """All thread-local graphs reachable within the step budget, each read
    taking every value of values (ascending).

    Returns (results, truncated_count); results hold the runs that ended,
    in lexicographic order of their read values. The order comes by
    construction: the depth-first search takes the smallest value first,
    and no ended run's read values extend another's, since a thread given
    the same values makes the same steps and so ends at the same point.
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
            results.append(ThreadResult(tid, st.events, st.phi))
            continue
        if st.steps >= budget:
            truncated += 1
            continue
        for v in reversed(values):
            branch = st.copy()
            thread_step(branch, read_value=v)
            stack.append(branch)
    return results, truncated


class _Runs:
    """One thread combination's runs (`runs`) and what its candidates read
    of them alone: the labels of their graphs (`labels`: the init writes',
    then each run's) and their final registers (`final_regs`: tid →
    register map), each built by the first candidate that reads it and
    shared by the others."""

    __slots__ = ("runs", "labels", "final_regs")

    def __init__(self, runs):
        self.runs = runs
        self.labels = self.final_regs = None


class Candidate:
    """One completion of the stream: its final memory (`final`: each
    location the skeleton accesses → the value of its co-last write), its
    final registers (`final_regs`: tid → register map) and its graph, all
    read from the thread runs and the rf/co choice. The registers and the
    graph (`execution`) are built when they are first read, so a
    completion decided on its final values, as `wanted` decides it, costs
    no graph, and one decided on its final memory alone no register map.
    Candidates share their final memory and register maps with other
    candidates of the stream: read them, do not modify them."""

    __slots__ = ("final", "_completions", "_runs", "_rf", "_co", "_execution")

    def __init__(self, completions, runs, rf, co, final):
        self.final = final
        self._completions, self._runs, self._rf, self._co = completions, runs, rf, co
        self._execution = None

    @property
    def final_regs(self):
        runs = self._runs
        if runs.final_regs is None:
            runs.final_regs = {res.tid: res.phi for res in runs.runs}
        return runs.final_regs

    @property
    def execution(self):
        """The completion's Execution, built on the first read: its labels
        are the init writes' then each run's, and rf and co are relalg ints
        over the shape's events."""
        if self._execution is None:
            shape, runs = self._completions.shape, self._runs
            if runs.labels is None:
                labels = self._completions.init_labels
                for res in runs.runs:
                    labels += res.labels
                runs.labels = labels
            self._execution = Execution.on(shape, runs.labels,
                                           rf=Rel.from_bits(shape.n, self._rf),
                                           co=Rel.from_bits(shape.n, self._co))
        return self._execution


@dataclass
class EnumerationReport:
    truncated_threads: int = 0
    truncated_candidates: bool = False
    candidates: int = 0  # completions made: built and yielded
    skipped: int = 0  # completions reached but not made: `wanted` refused them
    pruned: int = 0  # incoherent completions the coherent stream dropped
    shapes: int = 0  # distinct shapes of the completions reached

    @property
    def complete(self):
        return self.truncated_threads == 0 and not self.truncated_candidates


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


class SearchSpace:
    """What every stream over one program's candidates shares, made once
    per (program, unroll): each thread's ended runs (thread_graphs over the
    program's value domain, `runs`), the number of runs the step budget cut
    (`truncated_threads`), an id of each run's shape key per thread
    (`key_ids`), an id of each run's write values per thread (`value_ids`:
    within one shape, the ids of a thread combination name its write-value
    class), and one _Completions per shape (`shapes`, keyed by the key
    ids of a thread combination), made when a stream first reaches the
    shape and kept as long as the space. The runs, shapes and
    completions do not depend on the model, which only decides which
    completions are consistent; so one space serves a stream per model, and
    the streams share each shape's memos of static relations and hardware
    layouts. A space holds no state of any stream."""

    def __init__(self, program, unroll=UNROLL):
        self.program, self.unroll = program, unroll
        values = program.candidate_values()
        self.runs = []
        self.key_ids = []
        self.value_ids = []
        self.truncated_threads = 0
        for tid, body in enumerate(program.threads):
            results, truncated = thread_graphs(body, tid, values, unroll)
            self.truncated_threads += truncated
            keys, vals = {}, {}
            self.key_ids.append([keys.setdefault(res.shape_key, len(keys)) for res in results])
            self.value_ids.append([vals.setdefault(res.write_values, len(vals))
                                   for res in results])
            self.runs.append(results)
        self.shapes = {}


def candidate_executions(program, unroll=UNROLL, max_candidates=None, report=None,
                         coherent=False, wanted=None, space=None):
    """Stream candidate full executions in deterministic lexicographic order.
    A register that a run never sets is 0 in its final registers (λr.0).

    The stream draws on space, the program's SearchSpace at this unroll
    bound, and makes its own when none is given. What the space holds (the
    thread runs, the truncated-run count, the shapes and their
    _Completions) is shared by every stream over it; what a stream counts
    (the completions reached, the shapes they have, the cap and report) is
    its own. Each stream adds the space's truncated-run count to its
    report.truncated_threads.

    With coherent=True only the completions that satisfy SC-per-location
    are reached (see _Completions.complete); they come in the same relative
    order as in the full stream, and report.pruned counts the completions
    dropped under the rf choices whose orders were all examined.

    Given wanted, a predicate on a candidate, the stream asks it of each
    completion when it reaches it, after the consumer is done with the
    candidates before: one it refuses is not yielded and counts in
    report.skipped, one it accepts is made and counts in report.candidates.
    Each candidate carries its final memory, which the stream reads from
    the write-value class and the co choice; its registers and its graph
    are built only when they are first read, so a wanted that decides on
    the final values alone builds no graph for a completion it refuses.

    A cap of max_candidates (at least 1) bounds the completions reached,
    made or skipped; the search reads as cut only when a further one
    exists. Thread combinations whose runs agree on everything but values
    share one shape (execgraph.Shape) and one _Completions, and
    report.shapes counts the distinct shapes of the completions reached."""
    if max_candidates is not None and max_candidates < 1:
        raise ValueError(f"max_candidates must be at least 1, got {max_candidates}")
    if space is None:
        space = SearchSpace(program, unroll)
    elif space.program is not program or space.unroll != unroll:
        raise ValueError("the search space is of another program or unroll bound")
    if report is None:
        report = EnumerationReport()
    report.truncated_threads += space.truncated_threads

    reached = set()  # the key ids of the shapes of the completions reached
    count = 0
    indexes = [range(len(runs)) for runs in space.runs]
    for key, values, index, combo in zip(
            itertools.product(*space.key_ids), itertools.product(*space.value_ids),
            itertools.product(*indexes), itertools.product(*space.runs)):
        completions = space.shapes.get(key)
        if completions is None:
            completions = space.shapes[key] = _Completions(combo)
        for cand in completions.complete(combo, index, values, report if coherent else None):
            if count == max_candidates:  # and one more completion exists
                report.truncated_candidates = True
                return
            count += 1
            reached.add(key)
            report.shapes = len(reached)
            if wanted is None or wanted(cand):
                report.candidates += 1
                yield cand
            else:
                report.skipped += 1


class _Completions:
    """What every skeleton of one shape shares, built from the first thread
    combination seen with it: the shape, each thread's reads and writes, the
    co rows every order shares and the writes left to order, and each
    thread's po-consecutive pairs that the coherent stream constrains. A
    skeleton's events are one init write per location first, by location,
    then each thread's events in order.

    It also keeps the rf tables of one write-value class (the values of
    each thread's writes), the last class that a stream reached: each
    (location, value)'s writes, and per thread and run the run's rf options
    (_use, _options). A combination of runs reads only the writes' values,
    so every combination of one class resolves its reads from these tables,
    and a stream that moves to another class drops them."""

    def __init__(self, combo):
        self.locs = locs = sorted({rec.label.loc for res in combo for rec in res.events
                                   if rec.label.loc is not None})
        self.init_labels = tuple(Write("rlx", loc, 0, "normal") for loc in locs)
        slots = [lab.slot for lab in self.init_labels]
        events = [Event.init(loc) for loc in locs]
        for res in combo:
            slots += [rec.label.slot for rec in res.events]
            events += [Event(res.tid, idx) for idx in range(len(res.events))]
        self.shape = shape = Shape(events, slots,
                                   **_dependencies(combo, len(slots), len(locs)))
        # per thread, (event, location) of its reads and of its writes, in order
        self.reads, self.writes = [], []
        thread_of = [None] * len(locs)
        for t, res in enumerate(combo):
            reads, writes = [], []
            for e in range(len(thread_of), len(thread_of) + len(res.events)):
                slot = slots[e]
                if slot.kind == "r":
                    reads.append((e, slot.loc))
                elif slot.kind == "w":
                    writes.append((e, slot.loc))
            self.reads.append(reads)
            self.writes.append(writes)
            thread_of += [t] * len(res.events)
        self.read_events = [[r for r, _ in reads] for reads in self.reads]

        # the init write k of each location is co-first, so its row is known;
        # so is the row of a location's only other write, and the location's
        # co-last write (`lasts`) is that write, or k if there is none. The
        # writes of the other locations (`groups`: all of the location's
        # writes as a mask, its non-init writes ascending, the location) are
        # ordered per completion; `lasts` holds k for them until then.
        self.co_base = 0
        self.groups = []
        self.lasts = {}
        self.full = 1
        for k, loc in enumerate(locs):
            rest = sorted(shape.writes_to(loc) - {k})
            mask = (1 << k) + sum(1 << w for w in rest)
            self.co_base |= (mask - (1 << k)) << k * shape.n
            self.lasts[loc] = rest[0] if len(rest) == 1 else k
            if len(rest) > 1:
                self.groups.append((mask, tuple(rest), loc))
                self.full *= math.factorial(len(rest))
        self.inits = (1 << len(locs)) - 1
        self.no_need = [0] * shape.n
        # per thread, (a, b, b is a write) for each two po-consecutive events
        # of the thread at one location
        self.pairs = [[] for _ in combo]
        for a, b in shape.po_loc.immediate():
            if a >= len(locs):
                self.pairs[thread_of[a]].append((a, b, slots[b].kind == "w"))
        self.checked = any(self.pairs)
        # the threads whose runs have rf options to choose or needs to add
        self.tabled = [t for t in range(len(combo)) if self.reads[t] or self.pairs[t]]
        self.values = None  # the write-value class of the tables

    def _use(self, combo, values):
        """Make values, the write-value class of combo, the class of the
        tables: each (location, value)'s writes in event order (`sources`),
        each write's value (`val`), the final value of each location whose
        co-last write is fixed (`fixed`), and an empty rf table per thread.
        Each is a new object, so a stream that has read the old ones keeps
        them."""
        sources = {(loc, 0): [k] for k, loc in enumerate(self.locs)}
        val = [0] * self.shape.n
        for writes, res in zip(self.writes, combo):
            for (w, loc), v in zip(writes, res.write_values):
                sources.setdefault((loc, v), []).append(w)
                val[w] = v
        self.values, self.sources, self.val = values, sources, val
        self.fixed = {loc: val[w] for loc, w in self.lasts.items()}
        self.tables = [{} for _ in combo]

    def _options(self, t, res):
        """The rf options of run res of thread t under the tables' class,
        in the order of the product of its reads' same-location, same-value
        writes, read by read: per option, its rf bits and the co
        predecessors SC-per-location needs inside the thread (_needs). A run
        with a read that no write matches has none. The options are kept
        as a list when there is one, or no more of them than entries in
        their reads' lists of writers, which is what the read-by-read
        product holds; otherwise they are a _Walk, made anew on each pass,
        so that a run of many reads with several writers each takes no more
        room than those lists."""
        sources = self.sources
        choices = []
        for (r, loc), v in zip(self.reads[t], res.read_values):
            writes = sources.get((loc, v))
            if writes is None:
                return ()
            choices.append(writes)
        if math.prod(map(len, choices)) > max(1, sum(map(len, choices))):
            return _Walk(self._walk, t, choices)
        return list(self._walk(t, choices))

    def _walk(self, t, choices):
        """Yield the rf options of thread t whose reads take a write of
        their lists in choices, as _options orders them."""
        n = self.shape.n
        reads, pairs = self.read_events[t], self.pairs[t]
        for pick in itertools.product(*choices):
            rf = 0
            for w, r in zip(pick, reads):
                rf |= 1 << w * n + r
            yield rf, (self._needs(pairs, dict(zip(reads, pick))) if pairs else ())

    def _co_orders(self, need):
        """The co of each completion, as relalg's int (bit w*n + v for the
        pair (w, v)): every location's non-init writes take each order after
        its init write in which every write w comes after the writes of the
        mask need[w], in the order of the product over locations of
        itertools.permutations of its writes. Orders are built depth-first,
        each next write the lowest-index unplaced one whose required
        predecessors are placed, so none is made that is not yielded."""
        n = self.shape.n
        groups = self.groups

        def place(g, left, placed, co):
            if not left:
                g += 1
                if g == len(groups):
                    yield co
                    return
                left = groups[g][1]
            mask = groups[g][0]
            for i, w in enumerate(left):
                if need[w] & ~placed == 0:
                    now = placed | 1 << w
                    yield from place(g, left[:i] + left[i + 1:], now,
                                     co | (mask & ~now) << w * n)

        return place(-1, (), self.inits, self.co_base)

    def _needs(self, pairs, src):
        """The (write, mask) pairs by which co must put the writes of mask
        before write for a thread whose reads take their values from src
        (read → write) to satisfy SC-per-location along its po-consecutive
        pairs, or None if no co does.

        Let pos(e) be e for a write and its rf source for a read. Every rf,
        co and fr edge keeps pos co-non-decreasing, and co and fr raise it.
        Hence a location is acyclic exactly when, along each po-consecutive
        pair (a, b) there, pos(a) is co-before pos(b), or pos(a) = pos(b)
        with b a read: a cycle could then hold only rf edges and po edges
        into reads, and those never close a cycle; conversely a pair that
        fails closes one with co, fr, rf, co;rf or fr;rf from b back to a.
        An rf choice under which some pair has pos(a) = pos(b) for a write b
        (b feeds a po-earlier read: a po_loc ∪ rf cycle), or pos(b) is an
        init write, keeps no order at all. Each pair lies in one thread, so
        a completion's needs are the union of its threads'."""
        need = []
        for a, b, to_write in pairs:
            sa, sb = src.get(a, a), src.get(b, b)
            if sa != sb:
                if self.inits >> sb & 1:
                    return None
                need.append((sb, 1 << sa))
            elif to_write:
                return None
        return tuple(need)

    def complete(self, combo, index, values, report=None):
        """Enumerate rf and co completions of the skeleton of combo, which
        has this shape, whose runs are at index in their threads' runs and
        whose write-value class is values: every read takes each
        same-location, same-value write in event order, and for each such
        choice every location's non-init writes take each permutation after
        its init write.

        The rf choices are made per thread, from the tables of the class
        (_options): a completion's rf is the union of one option of each
        thread that reads or has a po-consecutive pair at one location, and
        the completions come in the order of the product over those threads,
        in thread order, of each thread's options.
        That is the order of the product over every read, in event order, of
        its writes: the reads in event order are the first thread's, then the
        second's, and so on (init events do not read), and a lexicographic
        product over a sequence of factors is the same sequence when runs of
        consecutive factors are grouped into one factor each, here each
        thread's options, themselves the product of its reads' writes in
        order. A thread without reads has one option, with no rf. A run
        whose read no write matches has no option, and then the combination
        has no completion. The product is itertools.product unless a
        thread's options are a _Walk, and then _product, in the same order.

        Given a report, only the completions that satisfy SC-per-location,
        acyclic(po_loc ∪ rf ∪ fr ∪ co), are made, and report.pruned counts,
        per rf choice whose orders were all made, the orders not made;
        nothing is built for them. Every edge of that union joins events of
        one location, so the check splits into one per location that reads
        only that location's rf and co choices, and it bounds which orders
        are made (_needs, _co_orders); the survivors come in the order of the
        full product. Dropping them loses no consistent candidate of any
        model decided here:

        - imm, imms, c11, rc11: their coherence axiom is irreflexive(hb;eco?)
          with hb either the IMM hb or hb_rc11, and po ⊆ hb in both. Every
          completion has functional, total rf and a strict total co per
          location, so eco is rf ∪ co;rf? ∪ fr;rf?. A po_loc ∪ rf ∪ fr ∪ co
          cycle contains a po_loc pair (a, b) that _needs rejects, and every
          rejected pair has eco(b, a): co, fr, rf, co;rf or fr;rf from b to
          a. With po(a, b) ⊆ hb, hb;eco? is reflexive at a. This is the
          coherence theorem of Lahav et al., Repairing Sequential
          Consistency in C/C++11 (PLDI 2017).
        - power (with or without the at-order axiom, POWER or ARMv7
          dependency order) and arm: their first row is sc-per-loc, the
          same acyclicity, on the image of the graph. split_release,
          to_power and to_arm only insert fences and relabel modes, so they
          keep every memory event with its location, and keep po between
          memory events, rf and co; fr = rf⁻¹;co follows. A source cycle is
          thus an image cycle.
        """
        if values != self.values:
            self._use(combo, values)
        tables = self.tables
        parts = []
        walks = False
        for t in self.tabled:
            options = tables[t].get(index[t])
            if options is None:
                options = tables[t][index[t]] = self._options(t, combo[t])
            if not options:
                return
            walks = walks or type(options) is _Walk
            parts.append(options)

        runs = _Runs(combo)
        groups, co_base, n = self.groups, self.co_base, self.shape.n
        fixed, val = self.fixed, self.val
        check = report is not None and self.checked
        need = self.no_need
        for choice in _product(parts) if walks else itertools.product(*parts):
            rf = 0
            for bits, _ in choice:
                rf |= bits
            if check:
                needs = [part for _, part in choice]
                if None in needs:
                    report.pruned += self.full
                    continue
                if groups:
                    need = [0] * n
                    for part in needs:
                        for w, mask in part:
                            need[w] |= mask
            if not groups:  # one order: co_base
                yield Candidate(self, runs, rf, co_base, fixed)
                continue
            made = 0
            for co in self._co_orders(need):
                # a group's co-last write is the one co puts before none
                final = dict(fixed)
                for mask, rest, loc in groups:
                    final[loc] = val[next(w for w in rest if not co >> w * n & mask)]
                yield Candidate(self, runs, rf, co, final)
                made += 1
            if report is not None:
                report.pruned += self.full - made


class _Walk:
    """A re-iterable sequence of rf options: each pass calls walk(*args)."""

    __slots__ = ("walk", "args")

    def __init__(self, walk, *args):
        self.walk, self.args = walk, args

    def __iter__(self):
        return self.walk(*self.args)


def _product(parts):
    """itertools.product(*parts), in its order, but iterating each part
    anew for every prefix instead of holding it as a tuple, so a part may
    be a _Walk."""
    if not parts:
        yield ()
        return
    for head in parts[0]:
        for tail in _product(parts[1:]):
            yield (head, *tail)


def assertion_values(candidate, program):
    """Name → value environment for assertion checking, read from the
    candidate's final memory and registers: each declared location's final
    value (0 where nothing is written), then each thread's registers in
    thread order."""
    final = candidate.final
    env = {name: final.get(i, 0) for i, name in enumerate(program.locations)}
    for regs in candidate.final_regs.values():
        for reg, val in regs.items():
            env.setdefault(reg, val)
    return env


def assertion_holds(candidate, test):
    env = assertion_values(candidate, test.program)
    return all(env.get(name) == value for name, value in test.assertion)


def assertion_test(test):
    """assertion_holds compiled once for test: a predicate on its
    candidates. A location's condition reads the candidate's final memory;
    a register's reads the final registers of the first thread, in thread
    order, whose program has it, as assertion_values decides (every run of
    a thread starts from λr.0 over its program's registers). A name that is
    neither is met by no candidate, and an empty assertion by every one."""
    program = test.program
    locs = {name: i for i, name in enumerate(program.locations)}
    owners = {}
    for tid, body in enumerate(program.threads):
        for reg in registers(body):
            owners.setdefault(reg, tid)
    at_loc = [(locs[name], value) for name, value in test.assertion if name in locs]
    at_reg = [(owners.get(name), name, value) for name, value in test.assertion
              if name not in locs]

    def holds(candidate):
        final = candidate.final
        for loc, value in at_loc:
            if final.get(loc, 0) != value:
                return False
        if not at_reg:
            return True
        regs = candidate.final_regs
        return all(tid is not None and regs[tid][name] == value for tid, name, value in at_reg)

    return holds
