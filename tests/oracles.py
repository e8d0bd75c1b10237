"""Independent oracles: matrix algebra via numpy, naive set saturation, DFS,
PairRel, a relation stored as a frozenset of pairs, pair_built_candidates,
the candidate stream built from event pairs through Execution.build from
co orders tabulated up front (on the coherent stream filtered per rf choice
by rank), sc_per_location, SC-per-location decided over event pairs, and
cert_co_pairs/cert_rf_pairs, the certification coherence and reads-from
built by loops over event pairs, coverable_preimage/issuable_preimage/
check_config_preimage, the traversal side conditions as preimage inclusions
per event, sim_invariants_full, every simulation-invariant clause of every
thread with nothing carried between checks, imms_sc_axioms, the two
s-model conditions on a given SC-fence order as the paper states them,
sc_fence_order_by_search, the s-model's SC-fence order sought over every
permutation of the fences (fence_orders),
entries_by_candidate, every model's verdict and outcome set with every
coherent candidate checked, literal_values, the narrower read-value rule
that the declared domain replaced, and event_key, the canonical event
order stated by fields rather than by Event's tuple order.

It also keeps the graph helpers that only tests call: restrict_thread,
is_initialized and signature.

The relation oracles deliberately avoid immlab.relalg so each check has two
routes.
"""

import itertools
import math

import numpy as np

from immlab.certification import CertificationError
from immlab.enumeration import UNROLL, EnumerationReport, candidate_executions, thread_graphs
from immlab.execgraph import Event, Execution, Write
from immlab.program import BinOp, Fadd, Lit, _inst_exprs, registers
from immlab.promise import Message, _can_reach
from immlab.relalg import Rel, remapping_onto


def matrix_of(pairs, n):
    m = np.zeros((n, n), dtype=bool)
    for a, b in pairs:
        m[a, b] = True
    return m


def pairs_of(m):
    return {(int(a), int(b)) for a, b in zip(*np.nonzero(m))}


def matrix_compose(a_pairs, b_pairs, n):
    return pairs_of(matrix_of(a_pairs, n) @ matrix_of(b_pairs, n))


def matrix_closure(pairs, n):
    """Transitive closure by repeated boolean squaring."""
    m = matrix_of(pairs, n)
    acc = m.copy()
    while True:
        nxt = acc | (acc @ acc)
        if (nxt == acc).all():
            return pairs_of(acc)
        acc = nxt


def dfs_has_cycle(pairs, n):
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * n

    def visit(u):
        color[u] = GRAY
        for v in adj.get(u, ()):
            if color[v] == GRAY:
                return True
            if color[v] == WHITE and visit(v):
                return True
        color[u] = BLACK
        return False

    return any(color[u] == WHITE and visit(u) for u in range(n))


def hasse_oracle(pairs, n):
    """Immediate edges of a strict partial order: drop pairs with a 2-step path."""
    closed = matrix_closure(pairs, n)
    return {
        (a, b)
        for a, b in pairs
        if not any((a, c) in closed and (c, b) in closed for c in range(n))
    }


def _compose(a, b):
    by_src = {}
    for x, y in b:
        by_src.setdefault(x, set()).add(y)
    return {(x, z) for x, y in a for z in by_src.get(y, ())}


def power_fixpoint_oracle(seeds, armv7=False):
    """Naive rule-at-a-time saturation of the ii/ic/ci/cc table.

    seeds: dict with addr, data, rdw, rfi, ctrl_isync, detour, ctrl,
    addr_po_opt, po_loc (sets of pairs).
    """
    ii = set(seeds["addr"]) | set(seeds["data"]) | set(seeds["rdw"]) | set(seeds["rfi"])
    ic, ci, cc = set(), set(), set()
    ci |= set(seeds["ctrl_isync"]) | set(seeds["detour"])
    cc |= set(seeds["data"]) | set(seeds["ctrl"]) | set(seeds["addr_po_opt"])
    if not armv7:
        cc |= set(seeds["po_loc"])
    changed = True
    while changed:
        changed = False
        rules = [
            (ii, ci), (ii, _compose(ic, ci)), (ii, _compose(ii, ii)),
            (ic, ii), (ic, cc), (ic, _compose(ic, cc)), (ic, _compose(ii, ic)),
            (ci, _compose(ci, ii)), (ci, _compose(cc, ci)),
            (cc, ci), (cc, _compose(ci, ic)), (cc, _compose(cc, cc)),
        ]
        for target, extra in rules:
            before = len(target)
            target |= extra
            if len(target) != before:
                changed = True
    return ii, ic, ci, cc


class PairRel:
    """The reference for immlab.relalg.Rel: the same interface over a
    frozenset of pairs, with composition, closure and cycle detection done by
    the set and matrix oracles above instead of the bitset kernels."""

    def __init__(self, n, pairs=()):
        self.n = n
        self.pairs = frozenset(pairs)
        for x, y in self.pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x},{y}) outside universe of size {n}")

    @staticmethod
    def identity(n, members=None):
        if members is None:
            members = range(n)
        return PairRel(n, ((x, x) for x in members))

    @staticmethod
    def product(n, a, b):
        return PairRel(n, ((x, y) for x in a for y in b if 0 <= x < n and 0 <= y < n))

    @staticmethod
    def from_rows(n, rows):
        return PairRel(n, ((i, j) for i in range(n) for j in range(n) if rows[i] >> j & 1))

    def rows(self):
        rows = [0] * self.n
        for x, y in self.pairs:
            rows[x] |= 1 << y
        return rows

    def __or__(self, other):
        return PairRel(self.n, self.pairs | other.pairs)

    def __and__(self, other):
        return PairRel(self.n, self.pairs & other.pairs)

    def __sub__(self, other):
        return PairRel(self.n, self.pairs - other.pairs)

    def __eq__(self, other):
        return isinstance(other, PairRel) and self.n == other.n and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __contains__(self, pair):
        return pair in self.pairs

    def __len__(self):
        return len(self.pairs)

    def __bool__(self):
        return bool(self.pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __repr__(self):
        return f"Rel({self.n}, {sorted(self.pairs)})"

    def inverse(self):
        return PairRel(self.n, ((y, x) for x, y in self.pairs))

    def dom(self):
        return frozenset(x for x, _ in self.pairs)

    def codom(self):
        return frozenset(y for _, y in self.pairs)

    def compose(self, other):
        return PairRel(self.n, _compose(self.pairs, other.pairs))

    def seq(self, *others):
        out = self
        for r in others:
            out = out.compose(r)
        return out

    def plus(self):
        return PairRel(self.n, matrix_closure(self.pairs, self.n))

    def opt(self):
        return self | PairRel.identity(self.n)

    def star(self):
        return self.plus() | PairRel.identity(self.n)

    def closures(self):
        return (self.opt(), self.plus(), self.star())

    def immediate(self):
        return self - self.compose(self)

    def is_irreflexive(self):
        return all(x != y for x, y in self.pairs)

    def is_acyclic(self):
        return not dfs_has_cycle(self.pairs, self.n)

    def is_transitive(self):
        return self.compose(self).pairs <= self.pairs

    def is_total_on(self, members):
        members = frozenset(members)
        restricted = self.restrict(members, members)
        if not restricted.is_irreflexive() or not restricted.is_transitive():
            return False
        for x in members:
            for y in members:
                if x < y and (x, y) not in restricted.pairs and (y, x) not in restricted.pairs:
                    return False
        return True

    def restrict(self, a, b):
        a = frozenset(a)
        b = frozenset(b)
        return PairRel(self.n, ((x, y) for x, y in self.pairs if x in a and y in b))

    def restrict_loc(self, locmap):
        return PairRel(self.n, ((x, y) for x, y in self.pairs
                                if locmap[x] is not None and locmap[x] == locmap[y]))

    def image(self, members):
        members = frozenset(members)
        return frozenset(y for x, y in self.pairs if x in members)

    def preimage(self, members):
        members = frozenset(members)
        return frozenset(x for x, y in self.pairs if y in members)

    def find_cycle(self):
        """A shortest cycle (event list, first repeated) or None. BFS per node."""
        if self.is_acyclic():
            return None
        adj = {}
        for x, y in self.pairs:
            adj.setdefault(x, []).append(y)
        for a in adj:
            adj[a].sort()
        best = None
        for start in sorted(adj):
            parent = {start: None}
            queue = [start]
            found = False
            while queue and not found:
                nxt = []
                for u in queue:
                    for v in adj.get(u, ()):
                        if v == start:
                            cycle = [start]
                            w = u
                            while w is not None:
                                cycle.append(w)
                                w = parent[w]
                            cycle.reverse()
                            if best is None or len(cycle) < len(best):
                                best = cycle
                            found = True
                            break
                        if v not in parent:
                            parent[v] = u
                            nxt.append(v)
                    if found:
                        break
                queue = nxt
        return best


def pair_union_all(n, rels):
    pairs = set()
    for r in rels:
        pairs |= r.pairs
    return PairRel(n, pairs)


def event_key(e):
    """The canonical order of events, spelt out field by field: init events
    first, by location, then each thread's events by serial number."""
    if e.is_init:
        return (0, e.init_loc, 0, 0)
    return (1, e.tid, e.whole, e.half)


def pair_built_candidates(program, unroll=UNROLL, coherent=False, report=None):
    """(execution, final registers) for every candidate, in the order of
    enumeration.candidate_executions, with each skeleton kept as (event,
    label) pairs and event-pair relations and each completion made by
    Execution.build; a register a run never sets is 0.

    Co orders are tabulated up front: every permutation of each location's
    non-init writes after its init write. With coherent=True each rf choice
    keeps the orders that rank pos(a) before pos(b) for each po-consecutive
    pair (a, b) at one location, where pos(e) is e for a write and its rf
    source for a read; a pair with pos(a) = pos(b) and b a write keeps none.
    report.pruned then counts, per rf choice, the orders not kept. A given
    report counts the thread runs cut by unroll in truncated_threads."""
    values = program.candidate_values()
    runs = [thread_graphs(body, tid, values, unroll) for tid, body in enumerate(program.threads)]
    per_thread = [results for results, _ in runs]
    if report is not None:
        report.truncated_threads += sum(truncated for _, truncated in runs)
    for combo in itertools.product(*per_thread):
        event_labels = []
        rels = {"rmw": [], "data": [], "addr": [], "ctrl": [], "casdep": []}
        pairs = []  # (a, b, b is a write), po-consecutive at one location
        for res in combo:
            last = {}
            for idx, rec in enumerate(res.events):
                ev = Event(res.tid, idx)
                event_labels.append((ev, rec.label))
                if rec.rmw_from is not None:
                    rels["rmw"].append((Event(res.tid, rec.rmw_from), ev))
                for name in ("data", "addr", "ctrl", "casdep"):
                    rels[name] += [(Event(res.tid, src), ev) for src in getattr(rec, name)]
                if rec.label.loc is not None:
                    if rec.label.loc in last:
                        pairs.append((last[rec.label.loc], ev, rec.label.kind == "w"))
                    last[rec.label.loc] = ev
        for loc in sorted({lab.loc for _, lab in event_labels if lab.loc is not None}):
            event_labels.append((Event.init(loc), Write("rlx", loc, 0, "normal")))
        label = dict(event_labels)
        reads = sorted((e for e in label if label[e].kind == "r"), key=event_key)
        writes = sorted((e for e in label if label[e].kind == "w"), key=event_key)
        writers = [[w for w in writes
                    if (label[w].loc, label[w].val) == (label[r].loc, label[r].val)]
                   for r in reads]
        co_orders = []
        for loc in sorted({label[w].loc for w in writes}):
            ws = [w for w in writes if label[w].loc == loc]
            rest = [w for w in ws if not w.is_init]
            co_orders.append([[w for w in ws if w.is_init] + list(perm)
                              for perm in itertools.permutations(rest)])
        regs = {res.tid: dict.fromkeys(registers(program.threads[res.tid]), 0) | res.phi
                for res in combo}
        for rf_choice in itertools.product(*writers):
            kept = co_orders
            if coherent:
                kept = _ranked_orders(co_orders, pairs, dict(zip(reads, rf_choice)))
                report.pruned += (math.prod(map(len, co_orders))
                                  - math.prod(map(len, kept)))
            for orders in itertools.product(*kept):
                co = [(a, b) for order in orders
                      for i, a in enumerate(order) for b in order[i + 1:]]
                g = Execution.build(event_labels, rf=list(zip(rf_choice, reads)), co=co,
                                    **rels)
                yield g, regs


def entries_by_candidate(test, checks, unroll=UNROLL, max_candidates=None):
    """{model: (verdict, outcome keys, complete, pruned, shapes)} for each
    (model, check) of checks, with every coherent candidate of test checked.

    Uncapped, the candidates are pair_built_candidates(coherent=True), the
    search is complete when no thread run was cut, and shapes counts the
    distinct events, value-free labels and dependencies among them. Capped,
    they are the first max_candidates of the coherent stream, which is the
    order the cap cuts, and that stream's report gives the counts. An
    outcome key is each declared location's co-last value, 0 where nothing
    is written, as sorted (location, value) pairs; the assertion reads
    locations first, then each thread's registers in thread order."""
    program = test.program
    report = EnumerationReport()
    if max_candidates is None:
        built = list(pair_built_candidates(program, unroll, coherent=True, report=report))
        report.shapes = len({(g.events, tuple(lab.slot for lab in g.labels),
                              *(getattr(g, name).pairs
                                for name in ("rmw", "data", "addr", "ctrl", "casdep")))
                             for g, _ in built})
    else:
        built = [(c.execution, c.final_regs) for c in candidate_executions(
            program, unroll, max_candidates, report, coherent=True)]
    marked = []  # (graph, outcome key, meets the assertion)
    for g, regs in built:
        last = {}
        for w, lab in enumerate(g.labels):
            if lab.kind == "w" and not any(a == w for a, _ in g.co.pairs):
                last[lab.loc] = lab.val
        key = tuple((loc, last.get(loc, 0)) for loc in range(len(program.locations)))
        env = {name: val for (_, val), name in zip(key, program.locations)}
        for tid in sorted(regs):
            for reg, val in regs[tid].items():
                env.setdefault(reg, val)
        marked.append((g, key, all(env.get(name) == val for name, val in test.assertion)))
    entries = {}
    for model, check in checks.items():
        consistent = [(key, meets) for g, key, meets in marked if check(g).consistent]
        verdict = ("allowed" if any(meets for _, meets in consistent)
                   else "forbidden" if report.complete else "unknown")
        entries[model] = (verdict, {key for key, _ in consistent}, report.complete,
                          report.pruned, report.shapes)
    return entries


def literal_values(program):
    """The read values of an earlier rule: 0, the program's literals and
    their closure under its fetch-add addends, up to max_val. It misses a
    value that only a computed write makes (`w[rlx] y a + 1`)."""
    def lits(expr):
        if isinstance(expr, Lit):
            return {expr.value}
        if isinstance(expr, BinOp):
            return lits(expr.left) | lits(expr.right)
        return set()

    found, addends = {0}, set()
    for body in program.threads:
        for inst in body:
            for expr in _inst_exprs(inst):
                found |= lits(expr)
            if isinstance(inst, Fadd):
                addends |= lits(inst.addend)
    vals = {v for v in found if v <= program.max_val}
    frontier = list(vals)
    while frontier:
        v = frontier.pop()
        for a in addends:
            if v + a <= program.max_val and v + a not in vals:
                vals.add(v + a)
                frontier.append(v + a)
    return tuple(sorted(vals))


def _ranked_orders(co_orders, pairs, src):
    """Per location, the orders of co_orders that rank pos(a) before pos(b)
    for each pair (a, b, b is a write) with pos(a) ≠ pos(b); none if some
    pair has pos(a) = pos(b) for a write b. src maps each read to its
    write."""
    before = []
    for a, b, to_write in pairs:
        sa, sb = src.get(a, a), src.get(b, b)
        if sa != sb:
            before.append((sa, sb))
        elif to_write:
            return [[] for _ in co_orders]
    kept = []
    for orders in co_orders:
        ranked = []
        for order in orders:
            rank = {w: i for i, w in enumerate(order)}
            if all(rank[x] < rank[y] for x, y in before if x in rank):
                ranked.append(order)
        kept.append(ranked)
    return kept


def sc_per_location(g):
    """acyclic(po_loc ∪ rf ∪ fr ∪ co) by DFS over event pairs, with po_loc
    from Event.precedes and the labels' locations, and fr = rf⁻¹;co."""
    loc = [lab.loc for lab in g.labels]
    po_loc = {(a, b) for a in range(g.n) for b in range(g.n)
              if loc[a] is not None and loc[a] == loc[b]
              and g.events[a].precedes(g.events[b])}
    fr = {(r, w) for w0, r in g.rf.pairs for w1, w in g.co.pairs if w1 == w0}
    return not dfs_has_cycle(po_loc | g.rf.pairs | fr | g.co.pairs, g.n)


def cert_co_pairs(g, tc, tid, keep):
    """certification.cert_co as a loop over event pairs, closed by
    matrix_closure and checked by PairRel."""
    issued = frozenset(tc.issued)
    local = frozenset(e for e in keep if g.tid_of(e) == tid)
    kept_issued = issued & keep
    seeds = {(a, b) for a, b in g.co.pairs
             if a in kept_issued and b in kept_issued | local or a in local and b in local}
    writes = sorted(w for w in keep if w in g.W)
    pairs = set(matrix_closure(seeds, g.n))
    for w in writes:
        for w2 in writes:
            if w == w2 or g.loc_of[w] != g.loc_of[w2]:
                continue
            if (w, w2) in pairs or (w2, w) in pairs:
                continue
            if w in issued and w2 in local and w2 not in issued:
                pairs.add((w, w2))
    co = PairRel(g.n, matrix_closure(pairs, g.n))
    for loc in sorted({g.loc_of[w] for w in writes}):
        if not co.is_total_on(w for w in writes if g.loc_of[w] == loc):
            raise CertificationError(f"certification co not total on location {loc}")
    return co


def cert_rf_pairs(g, tc, tid, keep, det, sc=None):
    """certification.cert_rf as a loop over the reads: each non-determined
    read takes the one visible write at its location that no other visible
    write follows in cert_co_pairs."""
    co_crt = cert_co_pairs(g, tc, tid, keep)
    bvf = g.bvf(det, sc=sc).pairs
    pairs = set()
    for w, r in sorted(g.rf.pairs):
        if r in det:
            if w not in keep:
                raise CertificationError(
                    f"determined read {g.events[r]} reads from dropped {g.events[w]}"
                )
            pairs.add((w, r))
    for r in sorted(g.R & keep - det):
        cands = [w for w in sorted(g.W) if g.loc_of[w] == g.loc_of[r] and (w, r) in bvf]
        if any(w not in keep for w in cands):
            raise CertificationError(
                f"visible write outside the certification graph for {g.events[r]}"
            )
        best = [w for w in cands
                if not any((w, w2) in co_crt and (w2, r) in bvf for w2 in cands)]
        if len(best) != 1:
            raise CertificationError(
                f"no unique visible write for read {g.events[r]} (got {len(best)})"
            )
        pairs.add((best[0], r))
    return PairRel(g.n, pairs), co_crt


def coverable_preimage(trav, covered, issued, e):
    """Traversal.coverable by preimage inclusions of the graph's relations."""
    g = trav.g
    if not g.po.preimage((e,)) <= covered:
        return False
    if e in g.W:
        return e in issued
    if e in g.R:
        src = trav.rf_src.get(e)
        return src is not None and src in issued
    if e in g.F:
        if g.labels[e].mode != "sc":
            return True
        return trav.sc.preimage((e,)) <= covered
    return False


def issuable_preimage(trav, covered, issued, w):
    """Traversal.issuable by preimage inclusions of the graph's relations."""
    if w not in trav.g.W:
        return False
    return (
        trav.req_fwbob.preimage((w,)) <= covered
        and trav.req_ppo.preimage((w,)) <= issued
        and trav.req_acq.preimage((w,)) <= issued
        and trav.req_strong.preimage((w,)) <= issued
    )


def check_config_preimage(trav, tc):
    """Traversal.check_config with the side conditions above."""
    g = trav.g
    out = []
    if not g.init_events <= tc.covered:
        out.append("init events not covered")
    if not tc.covered & g.W <= tc.issued:
        out.append("covered write not issued")
    for e in sorted(tc.covered):
        if not coverable_preimage(trav, tc.covered, tc.issued, e):
            out.append(f"covered event not coverable: {g.events[e]}")
    for w in sorted(tc.issued):
        if not issuable_preimage(trav, tc.covered, tc.issued, w):
            out.append(f"issued event not issuable: {g.events[w]}")
    if not tc.issued & g.W_rel <= tc.covered:
        out.append("issued release write not covered")
    if not g.rmw.restrict(tc.covered, range(g.n)).codom() <= tc.covered:
        out.append("rmw write of a covered read not covered")
    return out


def sim_invariants_full(g, tmap, covered, issued, ms, unroll):
    """The problems of promise._SimCheck, with every clause run over every
    thread and nothing skipped."""
    problems = []
    vf = g.derive().vf_rlx
    for w in g.init_events:
        if tmap.get(w, 0) != 0:
            problems.append("init timestamp not 0")
    for w, w2 in g.co.restrict(issued, issued):
        if tmap[w] > tmap[w2]:
            problems.append(f"T disagrees with co on ({w},{w2})")
    message = {w: Message(g.loc_of[w], g.val_of[w], tmap[w]) for w in issued}
    stamps = {(m.loc, m.t) for m in message.values()}
    for m in ms.memory:
        if m.t != 0 and (m.loc, m.t) not in stamps:
            problems.append(f"message {m} has no issued counterpart")
    for w in issued:
        if message[w] not in ms.memory:
            problems.append(f"issued {g.events[w]} missing from memory")
    for tid, ts in ms.threads.items():
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
        seen = vf.preimage(covered_here)
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
        if not _can_reach(g, tid, ts.sigma, unroll):
            problems.append(f"thread {tid} cannot reach its full graph")
    return problems


def imms_sc_axioms(g, d, sc):
    """Both SC-order conditions of the s-model, stated as the paper states
    them, for a fixed total order sc on the SC fences."""
    cond1 = sc.seq(d.hb_rc11, (d.eco.compose(d.hb_rc11)).opt())
    if not cond1.is_irreflexive():
        return False
    return (d.ar_base | sc).is_acyclic()


def fence_orders(g):
    """Every strict total order of g's SC fences, permutation by permutation
    of the sorted fences."""
    for perm in itertools.permutations(sorted(g.F_sc)):
        yield Rel(g.n, ((perm[i], perm[j])
                        for i in range(len(perm))
                        for j in range(i + 1, len(perm))))


def sc_fence_order_by_search(g, d):
    """consistency._sc_fence_order on a graph with SC fences and no sc, with
    the order sought, not built: the first permutation of the sorted fences
    whose total order passes imms_sc_axioms."""
    for sc in fence_orders(g):
        if imms_sc_axioms(g, d, sc):
            return [], tuple(sc)
    return [("s-no-thin-air", "no total SC-fence order satisfies the axioms")], None


def restrict_thread(g, tid):
    """Thread-local restriction of g: events of one thread, rf = co = ∅."""
    keep = sorted(g.thread_events(tid))
    m = remapping_onto(keep, g.n)
    return Execution(
        [g.events[i] for i in keep], [g.labels[i] for i in keep],
        rmw=m(g.rmw), data=m(g.data), addr=m(g.addr),
        ctrl=m(g.ctrl), casdep=m(g.casdep), model=g.model,
    )


def is_initialized(g):
    """Every location a label names has an initialization event."""
    used = {lab.loc for lab in g.labels if lab.loc is not None}
    have = {g.events[i].init_loc for i in g.init_events}
    return used <= have


def signature(g):
    """Structure of g modulo event ids: labels plus relations as event pairs."""
    ev = g.events

    def sig(rel):
        return tuple(
            sorted(
                ((ev[a], ev[b]) for a, b in rel),
                key=lambda p: (event_key(p[0]), event_key(p[1])),
            )
        )

    return (
        tuple((e, lab) for e, lab in zip(ev, g.labels)),
        sig(g.rmw), sig(g.data), sig(g.addr), sig(g.ctrl),
        sig(g.casdep), sig(g.rf), sig(g.co),
    )
