"""Certification graphs: the modified prefix on which one thread can run in
isolation and fulfill its outstanding writes.

Construction: keep covered/issued events and the certified thread's prefix up
to its issued writes, push the thread's non-issued writes as late as possible
in coherence, re-source non-determined reads from the latest visible write,
and re-run the thread's program with those read values pinned to recompute
dependent labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import UNROLL, ThreadState, pinned_run, step_budget
from .execgraph import Execution
from .relalg import Rel, remapping, remapping_onto
from .traversal import Traversal, TraversalConfig


class CertificationError(RuntimeError):
    pass


class ShapeChangeError(CertificationError):
    """Re-execution with pinned reads changed the event shape (e.g. a CAS
    flipped its success); reported, never patched silently."""


def determined(g, covered, issued):
    """The supplementary determined set: C ∪ dom(detour^?;(deps ∪ rfi)*;[I])."""
    d = g.derive()
    chain = d.detour.opt().compose((d.deps | d.rfi).star())
    return frozenset(covered) | chain.preimage(issued)


def cert_events(g, tc, tid):
    """Events of the certification graph, as source-graph ids."""
    thread_issued = tc.issued & g.thread_events(tid)
    keep = set(tc.covered) | set(tc.issued) | g.po.preimage(thread_issued)
    other_issued = tc.issued - g.thread_events(tid) - g.init_events
    rmw_reads = g.rmw.restrict(range(g.n), other_issued).dom()
    # init sources are always kept, so only genuine program writes count
    # as "local non-RMW" sources that force the read part out
    non_rmw_writes = g.W - g.rmw.codom() - g.init_events
    local_from_plain = g.derive().rfi.restrict(non_rmw_writes, range(g.n)).codom()
    keep |= rmw_reads - local_from_plain
    return frozenset(keep)


def cert_determined(g, tc, tid, keep):
    """The determined set used by the construction (with the acquire extension)."""
    d = g.derive()
    base = (
        set(tc.covered)
        | set(tc.issued)
        | {e for e in keep if g.tid_of(e) != tid}
        | d.rfi.opt().compose(d.ppo).preimage(tc.issued)
        | d.rfe.restrict(range(g.n), g.R_acq).codom()
    )
    return frozenset(base) & keep


def cert_co(g, tc, tid, keep):
    """Coherence of the certification graph: non-issued writes of the
    certified thread go as late as possible. The kept co paths
    (co;[I∩K] from I∩K, and co among the thread's events L) order what they
    reach; every issued write also precedes each non-issued write of L at
    its location that the paths leave unordered."""
    issued = tc.issued & keep
    local = keep & g.thread_events(tid)
    paths = (g.co.restrict(issued, issued | local) | g.co.restrict(local, local)).plus()
    pushed = Rel.product(g.n, issued & g.W, (local - tc.issued) & g.W).restrict_loc(g.loc_of)
    co = (paths | (pushed - paths - paths.inverse())).plus()
    for loc in sorted({g.loc_of[w] for w in keep & g.W}):
        if not co.is_total_on(g.writes_to(loc) & keep):
            raise CertificationError(f"certification co not total on location {loc}")
    return co


def visible_max(g, bvf, co, reads):
    """vis = (bvf ∩ same location);[reads] from the writes, and its co-maximal
    part vis − co;vis: for each read, the writes visible to it and the latest
    of them."""
    vis = bvf.restrict(g.W, reads).restrict_loc(g.loc_of)
    return vis, vis - co.compose(vis)


def cert_rf(g, tc, tid, keep, det, sc=None):
    """rf of the certification graph, rf;[D] ∪ (vis − co_crt;vis): determined
    edges kept, other reads re-sourced from the co-maximal visible write.
    The reads are walked in order only to name the first that has no unique
    one."""
    co_crt = cert_co(g, tc, tid, keep)
    dropped = next(iter(g.rf.restrict(frozenset(range(g.n)) - keep, det)), None)
    if dropped is not None:
        w, r = dropped
        raise CertificationError(
            f"determined read {g.events[r]} reads from dropped {g.events[w]}"
        )
    reads = g.R & keep - det
    vis, best = visible_max(g, g.bvf(det, sc=sc), co_crt, reads)
    outside = (vis - vis.restrict(keep, reads)).codom()
    if outside or best.codom() != reads or len(best) != len(reads):
        for r in sorted(reads):
            if r in outside:
                raise CertificationError(
                    f"visible write outside the certification graph for {g.events[r]}"
                )
            got = len(best.preimage((r,)))
            if got != 1:
                raise CertificationError(
                    f"no unique visible write for read {g.events[r]} (got {got})"
                )
    return g.rf.restrict(range(g.n), det) | best, co_crt


def reexecute_labels(g, tid, keep, rf_crt, sprog, unroll=UNROLL):
    """Re-run one thread with pinned read values; returns {source id: label}.

    Reads take the (recomputed) value of their certification rf source, in
    program order; dependent labels are recomputed. Any divergence from the
    kept events' shape raises ShapeChangeError.
    """
    target = sorted(
        (e for e in keep if g.tid_of(e) == tid),
        key=lambda i: g.events[i].sn,
    )
    sources = {r: w for w, r in rf_crt}
    new_labels = {}

    def value_at(k):
        src_id = target[k]
        if src_id not in g.R:
            raise ShapeChangeError(f"expected {g.events[src_id]} to be a read at position {k}")
        src = sources.get(src_id)
        if src is None:
            raise CertificationError(f"no rf source for {g.events[src_id]}")
        return new_labels[src].val if src in new_labels else g.labels[src].val

    st = ThreadState(list(sprog), tid)
    for k, rec in pinned_run(st, len(target), value_at, step_budget(sprog, unroll)):
        if k >= len(target):
            raise ShapeChangeError(f"thread {tid} emitted extra events")
        sid = target[k]
        old = g.labels[sid]
        new = rec.label
        if (new.kind, new.ex, new.loc) != (old.kind, old.ex, old.loc):
            raise ShapeChangeError(
                f"event shape changed at {g.events[sid]}: {old} vs {new}"
            )
        if new.kind != "f" and new.mode != old.mode:
            raise ShapeChangeError(f"mode changed at {g.events[sid]}")
        new_labels[sid] = new
    if len(st.events) < len(target):
        if st.terminal:
            raise ShapeChangeError(f"thread {tid} terminated before event {len(st.events)}")
        raise ShapeChangeError(f"thread {tid} exceeded the step budget")
    return new_labels


@dataclass
class CertGraph:
    graph: Execution
    keep: tuple  # source ids, ascending; position = id in graph
    determined: frozenset  # source ids
    tc: TraversalConfig  # over graph ids
    source_tc: TraversalConfig
    tid: int
    source_sc: Rel | None = None


def build_cert_graph(g, tc, tid, sprog, sc=None, unroll=UNROLL):
    """Compose events, coherence, reads-from, and re-labeling (thread tid's
    program sprog re-run with pinned reads) into the certification graph and
    its traversal configuration."""
    keep = cert_events(g, tc, tid)
    det = cert_determined(g, tc, tid, keep)
    rf_crt, co_crt = cert_rf(g, tc, tid, keep, det, sc=sc)
    new_labels = reexecute_labels(g, tid, keep, rf_crt, sprog, unroll=unroll)
    for e in det:
        if e in new_labels and new_labels[e] != g.labels[e]:
            raise ShapeChangeError(f"determined event {g.events[e]} changed label")

    keep_sorted = tuple(sorted(keep))
    remap = {old: new for new, old in enumerate(keep_sorted)}
    m = remapping_onto(keep_sorted, g.n)

    rmw_crt = g.rmw.restrict(range(g.n), det)
    labels = [new_labels.get(e, g.labels[e]) for e in keep_sorted]
    graph = Execution(
        [g.events[e] for e in keep_sorted], labels,
        rmw=m(rmw_crt), data=m(g.data), addr=m(g.addr), ctrl=m(g.ctrl),
        casdep=m(g.casdep), rf=m(rf_crt), co=m(co_crt),
        sc=None if sc is None else m(sc),
    )
    covered = frozenset(
        remap[e] for e in keep_sorted if e in tc.covered or g.tid_of(e) != tid
    )
    issued = frozenset(remap[e] for e in keep_sorted if e in tc.issued)
    return CertGraph(
        graph=graph, keep=keep_sorted, determined=det,
        tc=TraversalConfig(covered, issued), source_tc=tc, tid=tid,
        source_sc=sc,
    )


def check_cert_compl(g, tc, cg, sprog, unroll=UNROLL):
    """The certification-completeness clauses, adapted to this construction
    (dependency clauses source-restricted; coherence preservation on issued
    determined writes; the visibility formula in place of the undefined
    current-release clause). Empty diagnostics means every clause holds."""
    out = []
    gp = cg.graph
    keep = cg.keep
    det = cg.determined
    remap = {old: new for new, old in enumerate(keep)}

    if not det <= set(keep):  # every other clause reads D among the kept events
        return ["determined events dropped"]
    for e in det:
        if gp.labels[remap[e]] != g.labels[e]:
            out.append(f"label changed on determined {g.events[e]}")

    det_local = frozenset(remap[e] for e in det)
    for i in sorted(frozenset(range(gp.n)) - gp.po.opt().preimage(det_local)):
        out.append(f"event {gp.events[i]} has no po path to a determined event")

    m = remapping_onto(keep, g.n)
    lift = remapping(keep, g.n)  # graph ids back to source ids
    if gp.ctrl != m(g.ctrl):
        out.append("ctrl is not the source restriction")
    for name, rel, crt in (("addr", g.addr, gp.addr), ("data", g.data, gp.data)):
        want = m(rel).restrict(range(gp.n), det_local)
        got = crt.restrict(range(gp.n), det_local)
        if want != got:
            out.append(f"{name};[D] differs from the source")

    issued_det = det_local & frozenset(remap[e] for e in cg.source_tc.issued if e in remap)
    if gp.co.restrict(issued_det, issued_det) != m(g.co).restrict(issued_det, issued_det):
        out.append("co changed on determined issued writes")

    src_rf_d = m(g.rf).restrict(range(gp.n), det_local)
    if gp.rf.restrict(range(gp.n), det_local) != src_rf_d:
        out.append("rf changed on determined reads")

    if gp.rmw != m(g.rmw.restrict(range(g.n), det)):
        out.append("rmw is not rmw;[D]")

    # non-determined writes sit co-last or immediately before a same-thread write
    placed = (gp.co.immediate() & gp.po).restrict(range(gp.n), gp.W).dom()
    for w in sorted((gp.W - det_local) & gp.co.preimage(det_local) - placed):
        out.append(f"non-determined write {gp.events[w]} badly placed in co")

    # non-determined reads take the co-maximal visible write, and only it
    reads = frozenset(keep[r] for r in gp.R - det_local)
    _, best = visible_max(g, g.bvf(det, sc=cg.source_sc), lift(gp.co), reads)
    rf = lift(gp.rf).restrict(range(g.n), reads)
    for r in sorted((reads - (best & rf).codom()) | (best - rf).codom()):
        out.append(f"read {g.events[r]} not sourced from the visible maximum")

    # a strong write whose read part was carved out keeps its (pinned) label
    # but loses its rmw edge; that dangling strongness only strengthens ar
    dangling = {
        remap[w]
        for r, w in g.rmw
        if w in remap and r not in remap
    }
    wf = [
        d for d in gp.wellformed()
        if not any(d == f"strong write outside codom(rmw): {w}" for w in dangling)
    ]
    if wf:
        out.append(f"certification graph ill-formed: {wf}")

    try:
        relabeled = reexecute_labels(g, cg.tid, set(keep), lift(gp.rf),
                                     sprog, unroll=unroll)
    except CertificationError as err:
        out.append(f"thread {cg.tid} does not re-execute: {err}")
    else:
        for e, lab in relabeled.items():
            if gp.labels[remap[e]] != lab:
                out.append(f"re-executed label mismatch at {g.events[e]}")
    for e in keep:
        if g.tid_of(e) not in (cg.tid, -1) and e not in det:
            out.append(f"other-thread event {g.events[e]} is not determined")
    return out


def certification_traversal(cg):
    """Traverse the certification graph from its configuration; all steps must
    belong to the certified thread."""
    trav = Traversal(cg.graph, sc=cg.graph.sc)
    steps = trav.traverse(start=cg.tc)
    foreign = [s for s in steps if cg.graph.events[s.event].tid != cg.tid]
    if foreign:
        raise CertificationError(f"certification made foreign steps: {foreign}")
    return steps
