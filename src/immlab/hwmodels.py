"""Hardware-side picture: release splitting, the POWER/ARM graph mappings,
the POWER and ARMv8 models as axiom tables (decided by
consistency.evaluate), and the correspondence check between a source graph
and its POWER or ARM image.

Mappings are graph-level: each source event keeps its identity, inserted
barriers take half-step serial numbers, and the mapped graph is the minimal
one satisfying the correspondence conditions (correspondence_check accepts
non-minimal targets too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .consistency import Verdict, atomicity, check_imm, checker_for, evaluate
from .enumeration import candidate_executions
from .execgraph import Event, Execution, Fence, Read, Write
from .relalg import Rel, union_all


class MappingError(ValueError):
    pass


def _renumber_whole(g):
    """Order-preserving renumbering so every serial number is whole."""
    if all(e.is_init or e.half == 0 for e in g.events):
        return g
    counters = {}
    new_events = []
    for e in g.events:
        if e.is_init:
            new_events.append(e)
            continue
        k = counters.get(e.tid, 0)
        counters[e.tid] = k + 1
        new_events.append(Event(e.tid, k))
    return Execution(
        new_events, g.labels, rmw=g.rmw, data=g.data, addr=g.addr, ctrl=g.ctrl,
        casdep=g.casdep, rf=g.rf, co=g.co, sc=g.sc, model=g.model,
    )


def _forward_close_ctrl(ctrl_pairs, po):
    ctrl = Rel(po.n, ctrl_pairs)
    return ctrl | ctrl.compose(po)


def split_release(g):
    """Insert a release fence before each uncovered release write and weaken
    all release writes to relaxed; the identity when no release writes exist."""
    if not g.W_rel:
        return g
    po = g.po
    fences_rel = g.fences_geq("rel")
    rmw_inv = {w: r for r, w in g.rmw.pairs}

    new_events = []
    for w in sorted(g.W_rel):
        pre = po.preimage((w,))
        covered = False
        for f in fences_rel:
            if (f, w) not in po.pairs:
                continue
            shield = po.preimage((f,)) | {f}
            if all(e in shield or (e, w) in g.rmw.pairs for e in pre):
                covered = True
                break
        if covered:
            continue
        anchor = rmw_inv.get(w, w)
        ev = g.events[anchor]
        if ev.half != 0:
            raise MappingError("split_release expects whole serial numbers")
        new_events.append(Event(ev.tid, ev.whole - 1, 1))

    event_labels = []
    for e, lab in zip(g.events, g.labels):
        if isinstance(lab, Write) and lab.mode == "rel":
            lab = Write("rlx", lab.loc, lab.val, lab.rmw_mode)
        event_labels.append((e, lab))
    for e in new_events:
        event_labels.append((e, Fence("rel")))

    def pairs(rel):
        return [(g.events[a], g.events[b]) for a, b in rel.pairs]

    out = Execution.build(
        event_labels, rmw=pairs(g.rmw), data=pairs(g.data), addr=pairs(g.addr),
        ctrl=pairs(g.ctrl), casdep=pairs(g.casdep), rf=pairs(g.rf),
        co=pairs(g.co), sc=None if g.sc is None else pairs(g.sc),
    )
    closed = _forward_close_ctrl(out.ctrl.pairs, out.po)
    return Execution(
        out.events, out.labels, rmw=out.rmw, data=out.data, addr=out.addr,
        ctrl=closed, casdep=out.casdep, rf=out.rf, co=out.co, sc=out.sc,
    )


_POWER_FENCE = {"acq": "lwsync", "rel": "lwsync", "acqrel": "lwsync", "sc": "sync"}


def to_power(g):
    """Canonical POWER image of a release-free execution."""
    if g.W_rel:
        raise MappingError("release writes present; run split_release first")
    g = _renumber_whole(g)
    po = g.po
    rmw_pairs = g.rmw.pairs

    isync_after = set()
    acq_rmw_reads = {r for r, w in rmw_pairs if r in g.R_acq}
    for r in g.R_acq - g.rmw.dom():
        isync_after.add(r)
    for r, w in rmw_pairs:
        if r in acq_rmw_reads:
            isync_after.add(w)

    event_labels = []
    inserted = {}
    for i, (e, lab) in enumerate(zip(g.events, g.labels)):
        if isinstance(lab, Read):
            plab = Read(None, lab.loc, lab.val, lab.ex)
        elif isinstance(lab, Write):
            plab = Write(None, lab.loc, lab.val, None) if not e.is_init else lab
        else:
            plab = Fence(_POWER_FENCE[lab.mode])
        event_labels.append((e, plab))
        if i in isync_after:
            f = Event(e.tid, e.whole, 1)
            inserted[i] = f
            event_labels.append((f, Fence("isync")))

    def ev(i):
        return g.events[i]

    def pairs(rel):
        return [(ev(a), ev(b)) for a, b in rel.pairs]

    out = Execution.build(
        event_labels, rmw=pairs(g.rmw), data=pairs(g.data), addr=pairs(g.addr),
        ctrl=pairs(g.ctrl), rf=pairs(g.rf), co=pairs(g.co), model="power",
    )
    # ctrl extensions range over the target's po so inserted isyncs are covered
    tpo = out.po
    tix = {e: i for i, e in enumerate(out.events)}
    ctrl = set(out.ctrl.pairs)
    t_rmw = out.rmw.pairs
    t_data = out.data.pairs
    # every acquire read controls all later events (ld;cmp;bc;isync)
    for r in g.R_acq:
        tr = tix[ev(r)]
        for b in tpo.image((tr,)):
            if (tr, b) not in t_rmw:
                ctrl.add((tr, b))
    # exclusive reads control later events, except a fadd's own write
    for r in g.R_ex:
        tr = tix[ev(r)]
        for b in tpo.image((tr,)):
            if (tr, b) in t_rmw and (tr, b) in t_data:
                continue
            ctrl.add((tr, b))
    # data into an exclusive write controls everything after that write
    for x, w in g.data.pairs:
        if w in g.rmw.codom():
            tx, tw = tix[ev(x)], tix[ev(w)]
            for b in tpo.image((tw,)):
                ctrl.add((tx, b))
    # CAS dependency controls everything after the exclusive read
    for x, r in g.casdep.pairs:
        tx, tr = tix[ev(x)], tix[ev(r)]
        for b in tpo.image((tr,)):
            ctrl.add((tx, b))
    closed = _forward_close_ctrl(ctrl, tpo)
    return Execution(
        out.events, out.labels, rmw=out.rmw, data=out.data, addr=out.addr,
        ctrl=closed, rf=out.rf, co=out.co, model="power",
    )


_ARM_READ = {"rlx": "rlx", "acq": "Q"}
_ARM_WRITE = {"rlx": "rlx", "rel": "L"}
_ARM_FENCE = {"acq": "ld", "rel": "sy", "acqrel": "sy", "sc": "sy"}


def to_arm(g):
    """Canonical ARMv8 image; a dmb.ld is placed after each strong RMW write."""
    g = _renumber_whole(g)
    po = g.po
    rmw_pairs = g.rmw.pairs

    event_labels = []
    for i, (e, lab) in enumerate(zip(g.events, g.labels)):
        if isinstance(lab, Read):
            alab = Read(_ARM_READ[lab.mode], lab.loc, lab.val, lab.ex)
        elif isinstance(lab, Write):
            alab = Write(_ARM_WRITE[lab.mode], lab.loc, lab.val, None) if not e.is_init else lab
        else:
            alab = Fence(_ARM_FENCE[lab.mode])
        event_labels.append((e, alab))
        if i in g.W_strong:
            event_labels.append((Event(e.tid, e.whole, 1), Fence("ld")))

    def ev(i):
        return g.events[i]

    def pairs(rel):
        return [(ev(a), ev(b)) for a, b in rel.pairs]

    out = Execution.build(
        event_labels, rmw=pairs(g.rmw), data=pairs(g.data), addr=pairs(g.addr),
        ctrl=pairs(g.ctrl), rf=pairs(g.rf), co=pairs(g.co), model="arm",
    )
    tpo = out.po
    tix = {e: i for i, e in enumerate(out.events)}
    ctrl = set(out.ctrl.pairs)
    t_rmw = out.rmw.pairs
    t_data = out.data.pairs
    for r in g.R_ex:
        tr = tix[ev(r)]
        for b in tpo.image((tr,)):
            if (tr, b) in t_rmw and (tr, b) in t_data:
                continue
            ctrl.add((tr, b))
    for x, r in g.casdep.pairs:
        tx, tr = tix[ev(x)], tix[ev(r)]
        for b in tpo.image((tr,)):
            ctrl.add((tx, b))
    closed = _forward_close_ctrl(ctrl, tpo)
    return Execution(
        out.events, out.labels, rmw=out.rmw, data=out.data, addr=out.addr,
        ctrl=closed, rf=out.rf, co=out.co, model="arm",
    )


# -- POWER consistency --------------------------------------------------------------


@dataclass
class PowerRels:
    fr: Rel
    fre: Rel
    coe: Rel
    sync: Rel
    lwsync: Rel
    fence: Rel
    ctrl_isync: Rel
    rdw: Rel
    detour: Rel
    ii: Rel
    ic: Rel
    ci: Rel
    cc: Rel
    ppo: Rel
    hb: Rel
    prop1: Rel
    prop2: Rel
    prop: Rel


def power_ppo_fixpoint(gp, armv7=False):
    """Least simultaneous fixpoint of the ii/ic/ci/cc rule table, and the
    relations the POWER axioms are stated over."""
    po = gp.po
    rf, co = gp.rf, gp.co
    rfi = rf & po
    rfe = rf - po
    coe = co - po
    fr = rf.inverse().compose(co)
    fre = fr - po
    id_RW = gp.ident(gp.RW)
    id_R, id_W = gp.ident(gp.R), gp.ident(gp.W)

    def fence_order(mode):
        return id_RW.seq(po, gp.ident(gp.fences_with_mode(mode)), po, id_RW)

    sync = fence_order("sync")
    lwsync = fence_order("lwsync") - Rel(
        gp.n, ((a, b) for a in gp.W for b in gp.R)
    )
    fence = sync | lwsync
    ctrl_isync = id_R.seq(gp.ctrl, gp.ident(gp.fences_with_mode("isync")), po)
    rdw = fre.compose(rfe) & po
    detour = coe.compose(rfe) & po

    ii = gp.addr | gp.data | rdw | rfi
    ic = Rel(gp.n)
    ci = ctrl_isync | detour
    cc = gp.data | gp.ctrl | gp.addr.compose(po.opt())
    if not armv7:
        cc = cc | gp.po_loc

    while True:
        ii2 = ii | ci | ic.compose(ci) | ii.compose(ii)
        ic2 = ic | ii2 | cc | ic.compose(cc) | ii2.compose(ic)
        ci2 = ci | ci.compose(ii2) | cc.compose(ci)
        cc2 = cc | ci2 | ci2.compose(ic2) | cc.compose(cc)
        if (ii2, ic2, ci2, cc2) == (ii, ic, ci, cc):
            break
        ii, ic, ci, cc = ii2, ic2, ci2, cc2

    ppo = id_R.seq(ii, id_R) | id_R.seq(ic, id_W)
    hb = ppo | fence | rfe
    prop1 = id_W.seq(rfe.opt(), fence, hb.star(), id_W)
    prop2 = (coe | fre).opt().seq(
        rfe.opt(), fence.compose(hb.star()).opt(), sync, hb.star()
    )
    return PowerRels(
        fr=fr, fre=fre, coe=coe,
        sync=sync, lwsync=lwsync, fence=fence, ctrl_isync=ctrl_isync, rdw=rdw,
        detour=detour, ii=ii, ic=ic, ci=ci, cc=cc, ppo=ppo, hb=hb,
        prop1=prop1, prop2=prop2, prop=prop1 | prop2,
    )


def _at_order(gp, rels):
    at = gp.ident(gp.rmw.dom() | gp.rmw.codom())
    return gp.co | at.seq(gp.po, at)


_SC_PER_LOC = (
    "sc-per-loc", "acyclic", lambda g, r: union_all(g.n, [g.po_loc, g.rf, r.fr, g.co])
)
POWER = (
    _SC_PER_LOC,
    ("observation", "irreflexive", lambda g, r: r.fre.seq(r.prop, r.hb.star())),
    ("propagation", "acyclic", lambda g, r: g.co | r.prop),
    ("atomicity", "empty", atomicity),
    ("power-no-thin-air", "acyclic", lambda g, r: r.hb),
)
AT_ORDER = ("at-order", "acyclic", _at_order)  # co ∪ [At];po;[At], off by default


def check_power(gp, at_axiom=False, armv7=False):
    table = POWER + (AT_ORDER,) if at_axiom else POWER
    return Verdict("power", evaluate(table, gp, power_ppo_fixpoint(gp, armv7=armv7)))


# -- ARM consistency ----------------------------------------------------------------


@dataclass
class ArmRels:
    fr: Rel
    fre: Rel
    coe: Rel
    obs: Rel
    dob: Rel
    aob: Rel
    bob: Rel


def arm_relations(ga):
    """The relations the ARMv8 axioms are stated over."""
    po = ga.po
    rf, co = ga.rf, ga.co
    rfi, rfe = rf & po, rf - po
    coi, coe = co & po, co - po
    fr = rf.inverse().compose(co)
    fre = fr - po
    id_W = ga.ident(ga.W)
    w_ex = ga.rmw.codom()
    r_q = frozenset(i for i in ga.R if ga.labels[i].mode == "Q")
    w_l = frozenset(i for i in ga.W if ga.labels[i].mode == "L")
    return ArmRels(
        fr=fr, fre=fre, coe=coe,
        obs=rfe | fre | coe,
        dob=(
            (ga.addr | ga.data).compose(rfi.opt())
            | (ga.ctrl | ga.data).seq(id_W, coi.opt())
            | ga.addr.seq(po, id_W)
        ),
        aob=ga.rmw | ga.ident(w_ex).seq(rfi, ga.ident(r_q)),
        bob=(
            po.seq(ga.ident(ga.fences_with_mode("sy")), po)
            | ga.ident(ga.R).seq(po, ga.ident(ga.fences_with_mode("ld")), po)
            | ga.ident(r_q).compose(po)
            | po.seq(ga.ident(w_l), coi.opt())
        ),
    )


ARM = (
    _SC_PER_LOC,
    ("external", "acyclic", lambda g, r: union_all(g.n, [r.obs, r.dob, r.aob, r.bob])),
    ("atomicity", "empty", atomicity),
)


def check_arm(ga):
    return Verdict("arm", evaluate(ARM, ga, arm_relations(ga)))


# -- the correspondence check ---------------------------------------------------------
#
# The conditions are stated over the source graph alone, apart from to_power
# and to_arm, so that they check those mappings.


def _isync_points(g):
    """An isync follows each acquire read outside an rmw, and the write of
    each rmw whose read is an acquire."""
    return (g.R_acq - g.rmw.dom()) | {w for r, w in g.rmw.pairs if r in g.R_acq}


def _acquire_read_ctrl(g):
    """ld;cmp;bc;isync: an acquire read controls every later event but its
    own rmw write."""
    return {(r, b) for r in g.R_acq for b in g.po.image((r,)) if (r, b) not in g.rmw}


def _exclusive_read_ctrl(g):
    """An exclusive read controls every later event but a fadd's own write."""
    return {(r, b) for r in g.R_ex for b in g.po.image((r,))
            if (r, b) not in g.rmw or (r, b) not in g.data}


def _data_to_exclusive_ctrl(g):
    """Data into an exclusive write controls every event after that write."""
    ex = g.rmw.codom()
    return {(x, b) for x, w in g.data.pairs if w in ex for b in g.po.image((w,))}


def _casdep_ctrl(g):
    """A CAS dependency controls every event after the exclusive read."""
    return {(x, b) for x, r in g.casdep.pairs for b in g.po.image((r,))}


class _Target(NamedTuple):
    modes: dict  # label kind -> {source mode: target mode}
    fence_after: Callable  # source graph -> events an inserted fence follows
    fence: str  # the inserted fence's mode
    ctrl: tuple  # (name, source graph -> pairs the target's ctrl must contain)


_TARGETS = {
    "power": _Target(
        {"r": {"rlx": None, "acq": None}, "w": {"rlx": None}, "f": _POWER_FENCE},
        _isync_points, "isync",
        (("acquire-read", _acquire_read_ctrl), ("exclusive-read", _exclusive_read_ctrl),
         ("data-to-exclusive", _data_to_exclusive_ctrl), ("casdep", _casdep_ctrl)),
    ),
    "arm": _Target(
        {"r": _ARM_READ, "w": _ARM_WRITE, "f": _ARM_FENCE},
        lambda g: g.W_strong, "ld",
        (("exclusive-read", _exclusive_read_ctrl), ("casdep", _casdep_ctrl)),
    ),
}


def correspondence_check(src, target):
    """Def-4.2-style conditions between a source graph and an arbitrary
    candidate target of the kind target.model names (a POWER source must be
    release-free); diagnostics, not exceptions."""
    if target.model not in _TARGETS:
        raise ValueError(f"no correspondence conditions for {target.model!r} graphs")
    spec = _TARGETS[target.model]
    g = _renumber_whole(src)
    inserted = sorted((Event(g.events[i].tid, g.events[i].whole, 1)
                       for i in spec.fence_after(g)), key=Event.key)
    if set(target.events) != set(g.events) | set(inserted):
        return ["event set mismatch"]

    out = []
    for e, lab in zip(g.events, g.labels):
        tlab = target.labels[target.index_of(e)]
        modes = spec.modes[lab.kind]
        ok = (tlab.kind, tlab.loc, getattr(tlab, "val", None)) == \
            (lab.kind, lab.loc, getattr(lab, "val", None))
        if not e.is_init:
            ok = ok and lab.mode in modes and tlab.mode == modes[lab.mode]
        if not ok:
            out.append(f"label mismatch at {e}")
    for e in inserted:
        tlab = target.labels[target.index_of(e)]
        if tlab.kind != "f" or tlab.mode != spec.fence:
            out.append(f"inserted event {e} is not an f[{spec.fence}]")

    def lift(gr, rel):
        return {(gr.events[a], gr.events[b]) for a, b in rel.pairs}

    for name in ("rmw", "data", "addr", "rf", "co"):
        if lift(g, getattr(g, name)) != lift(target, getattr(target, name)):
            out.append(f"{name} changed")
    ctrl = lift(target, target.ctrl)
    if not lift(g, g.ctrl) <= ctrl:
        out.append("source ctrl dropped")
    for name, obligation in spec.ctrl:
        for x, b in sorted(obligation(g)):
            if (g.events[x], g.events[b]) not in ctrl:
                out.append(f"{name} ctrl missing: ({g.events[x]},{g.events[b]})")
    return out


# -- composed model checkers and the empirical theorems -------------------------------


def check_imm_via_power(g, at_axiom=False, armv7=False):
    return check_power(to_power(split_release(g)), at_axiom=at_axiom, armv7=armv7)


def check_imm_via_arm(g):
    return check_arm(to_arm(g))


def empirical_mapping_theorem(program, target, unroll=8, max_candidates=None):
    """Hardware-consistency of the mapped graph must imply IMM-consistency.

    Returns a report dict; any counterexample is a bug in the mapping or the
    checkers, not expected behavior.
    """
    if target not in _TARGETS:
        raise ValueError(target)
    check = checker_for(target)
    checked = 0
    counterexamples = []
    for cand in candidate_executions(program, unroll=unroll, max_candidates=max_candidates):
        g = cand.execution
        checked += 1
        if check(g).consistent:
            iv = check_imm(g)
            if not iv.consistent:
                counterexamples.append({
                    "graph": g.to_json(),
                    "imm_violations": iv.axioms(),
                })
    return {"target": target, "checked": checked, "counterexamples": counterexamples}
