"""Hardware-side picture: release splitting, the POWER/ARM graph mappings,
the POWER and ARMv8 models, and the correspondence check between a source
graph and its POWER or ARM image.

Each model is three tables: its static relations (POWER_STATIC, ARM_STATIC),
which read only a graph's shape and are built in full once per shape; its
rf/co relations (POWER_RELS, ARM_RELS), which extend execgraph.BASE_RELS and
are read through an execgraph.namespace whose store, fresh per check, starts
as a copy of the static ones, so a check builds only the rf/co relations its
rows reach; and its axioms, decided by consistency.evaluate. POWER's
ii/ic/ci/cc are the four blocks of one transitive closure over two copies of
the events (see power_ppo_fixpoint), which stores them in the namespace it
returns.

Mappings are graph-level: each source event keeps its identity, inserted
barriers take half-step serial numbers, and the mapped graph is the minimal
one satisfying the correspondence conditions (correspondence_check accepts
non-minimal targets too). Where fences go, how modes change and which ctrl
edges the target gains depend on the source's shape alone, so split_release,
to_power and to_arm each compute a layout once per source shape (one
fence-insertion routine, `_layout`): the image's shape, with its relations
carried along the monotone index map (relalg.remapping) and ctrl extended
over the new program order, and which image labels copy, relabel or ignore
the source's. Each graph's image then only takes its values and carries its
rf, co and sc rows (`_image`). One table, `_TARGETS`, gives each target in
one row: its label tables, where its fence goes and which, and its ctrl
rules, each as the relation the mapping adds and the pairs the
correspondence check requires.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .consistency import Verdict, atomicity, evaluate
from .execgraph import (
    BASE_RELS, BASE_STATIC, Event, Execution, Shape, Slot, namespace, program_order,
    static_relations,
)
from .kernels import narrow, widen
from .relalg import Rel, remapping, union_all


class MappingError(ValueError):
    pass


def _renumber_whole(g):
    """g's events renumbered, in order, so every serial number is whole (a
    thread's events are contiguous); g's relations are index-based and hold
    for them unchanged."""
    if all(e.half == 0 for e in g.events):
        return g.events
    first = {}
    return tuple(e if e.is_init else Event(e.tid, i - first.setdefault(e.tid, i))
                 for i, e in enumerate(g.events))


class _Layout(NamedTuple):
    """What a mapping does to every execution over one source shape."""

    shape: Shape  # the image's
    carry: Callable  # a source relation -> the image's
    fixed: tuple  # image labels, None where a source label is copied or valued
    copied: tuple  # (new, old): the image takes the source's label unchanged
    valued: tuple  # (new, old, memo): the image's slot with the source's value


def _layout(src, names, inserts, reslot, model, ctrl_rules=()):
    """The layout of shape src, its events named names, with each (position,
    event, fence slot) of inserts placed before the old event at that
    position (src.n for the end), every non-init slot passed through reslot,
    and every relation carried along the monotone old→new index map. Each
    ctrl rule maps src to source relations (A, X): the new ctrl gains A;po
    minus X, over the new po, and is forward-closed. casdep exists only in
    imm graphs."""
    inserts = sorted(inserts, key=lambda ins: ins[0])
    events, slots, index = [], [], []
    k = 0
    for i in range(src.n + 1):
        while k < len(inserts) and inserts[k][0] == i:
            events.append(inserts[k][1])
            slots.append(inserts[k][2])
            k += 1
        if i < src.n:
            index.append(len(events))
            events.append(names[i])
            slots.append(src.labels[i] if names[i].is_init else reslot(src.labels[i]))
    n = len(events)
    carry = remapping(index, n)
    po = program_order(events)
    ctrl = union_all(n, [carry(src.ctrl)] + [carry(a).compose(po) - carry(x)
                                             for a, x in (rule(src) for rule in ctrl_rules)])
    shape = Shape(
        events, slots, rmw=carry(src.rmw), data=carry(src.data), addr=carry(src.addr),
        ctrl=ctrl | ctrl.compose(po),
        casdep=carry(src.casdep) if model == "imm" else None, model=model,
    )
    fixed = [slot.valued(None) if slot.kind == "f" else None for slot in slots]
    copied, valued = [], []
    for old, new in enumerate(index):
        if slots[new] == src.labels[old]:
            fixed[new] = None
            copied.append((new, old))
        elif slots[new].kind != "f":
            valued.append((new, old, {}))
    return _Layout(shape, carry, tuple(fixed), tuple(copied), tuple(valued))


def _image(layout, g):
    """The image of g under the layout of g's shape: the source's labels
    relabelled, and rf, co and (into imm) sc carried."""
    labels = list(layout.fixed)
    source = g.labels
    for new, old in layout.copied:
        labels[new] = source[old]
    slots = layout.shape.labels
    for new, old, memo in layout.valued:
        val = source[old].val
        lab = memo.get(val)
        if lab is None:
            lab = memo[val] = slots[new].valued(val)
        labels[new] = lab
    carry = layout.carry
    sc = g.sc if layout.shape.model == "imm" else None
    return Execution.on(layout.shape, tuple(labels), rf=carry(g.rf), co=carry(g.co),
                        sc=None if sc is None else carry(sc))


def _release_layout(src):
    """The layout of split_release over shape src."""
    po = src.po
    fences_rel = src.fences_geq("rel")
    rmw_inv = {w: r for r, w in src.rmw}

    inserts = []
    for w in sorted(src.W_rel):
        pre = po.preimage((w,))
        covered = False
        for f in fences_rel:
            if (f, w) not in po:
                continue
            shield = po.preimage((f,)) | {f}
            if all(e in shield or (e, w) in src.rmw for e in pre):
                covered = True
                break
        if covered:
            continue
        anchor = rmw_inv.get(w, w)
        ev = src.events[anchor]
        if ev.half != 0:
            raise MappingError("split_release expects whole serial numbers")
        inserts.append((anchor, Event(ev.tid, ev.whole - 1, 1), Slot("f", "rel")))

    def reslot(slot):
        if slot.kind == "w" and slot.mode == "rel":
            return slot._replace(mode="rlx")
        return slot

    return _layout(src, src.events, inserts, reslot, "imm")


def split_release(g):
    """Insert a release fence before each uncovered release write and weaken
    all release writes to relaxed; the identity when no release writes exist."""
    if not g.W_rel:
        return g
    return _image(g.shape.memo("split_release", _release_layout), g)


# The mapping and the correspondence check read one row of _TARGETS per
# target, its label tables being the compilation scheme itself. Each ctrl
# rule is deliberately stated twice, as relation algebra that the mapping
# applies and as a pair set that the check tests, so that the check does not
# only replay the mapping.


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
    return {(x, b) for x, w in g.data if w in ex for b in g.po.image((w,))}


def _casdep_ctrl(g):
    """A CAS dependency controls every event after the exclusive read."""
    return {(x, b) for x, r in g.casdep for b in g.po.image((r,))}


class _Target(NamedTuple):
    modes: dict  # label kind -> {source mode: target mode}
    fence_after: Callable  # source graph -> events an inserted fence follows
    fence: str  # the inserted fence's mode
    # (name, rule, obligation): rule maps a source graph to (A, X), and the
    # image's ctrl gains A;po minus X; obligation gives the pairs it must hold
    ctrl: tuple


_RMW_CTRL = (
    ("exclusive-read", lambda g: (g.ident(g.R_ex), g.rmw & g.data), _exclusive_read_ctrl),
    ("casdep", lambda g: (g.casdep, Rel(g.n)), _casdep_ctrl),
)
_TARGETS = {
    # an isync after each acquire read outside an rmw and after the write of
    # each acquire rmw
    "power": _Target(
        {"r": {"rlx": None, "acq": None},
         "w": {"rlx": None},
         "f": {"acq": "lwsync", "rel": "lwsync", "acqrel": "lwsync", "sc": "sync"}},
        lambda g: (g.R_acq - g.rmw.dom()) | g.rmw.image(g.R_acq), "isync",
        (("acquire-read", lambda g: (g.ident(g.R_acq), g.rmw), _acquire_read_ctrl),
         ("data-to-exclusive", lambda g: (g.data.compose(g.ident(g.rmw.codom())), Rel(g.n)),
          _data_to_exclusive_ctrl)) + _RMW_CTRL,
    ),
    # a dmb.ld after each strong rmw write
    "arm": _Target(
        {"r": {"rlx": "rlx", "acq": "Q"},
         "w": {"rlx": "rlx", "rel": "L"},
         "f": {"acq": "ld", "rel": "sy", "acqrel": "sy", "sc": "sy"}},
        lambda g: g.W_strong, "ld", _RMW_CTRL,
    ),
}


def _target_layout(src, model):
    spec = _TARGETS[model]
    events = _renumber_whole(src)
    inserts = [(i + 1, Event(events[i].tid, events[i].whole, 1), Slot("f", spec.fence))
               for i in spec.fence_after(src)]
    read, write, fence = spec.modes["r"], spec.modes["w"], spec.modes["f"]

    def reslot(slot):
        if slot.kind == "r":
            return Slot("r", read[slot.mode], slot.loc, slot.ex)
        if slot.kind == "w":
            return Slot("w", write[slot.mode], slot.loc)
        return Slot("f", fence[slot.mode])

    return _layout(src, events, inserts, reslot, model,
                   [rule for _, rule, _ in spec.ctrl])


def to_power(g):
    """Canonical POWER image of a release-free execution."""
    if g.W_rel:
        raise MappingError("release writes present; run split_release first")
    return _image(g.shape.memo("power", lambda src: _target_layout(src, "power")), g)


def to_arm(g):
    """Canonical ARMv8 image; a dmb.ld is placed after each strong RMW write."""
    return _image(g.shape.memo("arm", lambda src: _target_layout(src, "arm")), g)


# -- POWER consistency --------------------------------------------------------------


def _fence_order(g, mode):
    """[RW];po;[F^mode];po;[RW]"""
    id_rw = g.ident(g.RW)
    return id_rw.seq(g.po, g.ident(g.fences_with_mode(mode)), g.po, id_rw)


def _lwsync(order, g):
    """An lwsync orders every pair but a write before a later read."""
    return order - order.restrict(g.W, g.R)


def _with_mode(g, members, mode):
    """The identity on the members labelled with mode."""
    return g.ident(i for i in members if g.labels[i].mode == mode)


POWER_STATIC = BASE_STATIC | {
    "sync": lambda g, r: _fence_order(g, "sync"),
    "lwsync": lambda g, r: _lwsync(_fence_order(g, "lwsync"), g),
    "fence": lambda g, r: r.sync | r.lwsync,
    "ctrl_isync": lambda g, r: g.ident(g.R).seq(
        g.ctrl, g.ident(g.fences_with_mode("isync")), g.po),
    # the shape's parts of the ii and cc seeds of power_ppo_fixpoint
    "ii_static": lambda g, r: g.addr | g.data,
    "cc_static_armv7": lambda g, r: g.data | g.ctrl | g.addr.compose(g.po.opt()),
    "cc_static": lambda g, r: r.cc_static_armv7 | g.po_loc,
    # [R];X;[R] is X ∩ (R × R)
    "R_R": lambda g, r: Rel.product(g.n, g.R, g.R),
}
# ii/ic/ci/cc are not entries: power_ppo_fixpoint computes them together
POWER_RELS = BASE_RELS | {
    "rdw": lambda g, r: r.fre.compose(r.rfe) & g.po,
    # [R];ii;[R] ∪ [R];ic;[W]
    "ppo": lambda g, r: r.ii & r.R_R | r.ic & r.R_W,
    "hb": lambda g, r: r.ppo | r.fence | r.rfe,
    "hb_star": lambda g, r: r.hb.star(),
    # [W];rfe?;fence;hb*;[W], empty when fence is; seq composes left to right,
    # so the branch saves building rfe? and composing it after [W]
    "prop1": lambda g, r: (
        g.ident(g.W).seq(r.rfe.opt(), r.fence, r.hb_star, g.ident(g.W)) if r.fence else r.fence
    ),
    # (coe ∪ fre)?;rfe?;(fence;hb*)?;sync;hb*, empty when sync is; the branch
    # saves the three compositions before sync
    "prop2": lambda g, r: (
        (r.coe | r.fre).opt().seq(r.rfe.opt(), r.fence.compose(r.hb_star).opt(), r.sync,
                                  r.hb_star) if r.sync else r.sync
    ),
    "prop": lambda g, r: r.prop1 | r.prop2,
}
_POWER = namespace(POWER_RELS)


def power_ppo_fixpoint(gp, armv7=False):
    """The POWER relations of gp (POWER_STATIC and POWER_RELS) in a fresh
    store, with ii/ic/ci/cc stored: the least fixpoint of their rule table,
    as one transitive closure.

    Node x stands for event x in state i and node n+x for x in state c, so
    that (x, y) ∈ st is an edge from x in state s to y in state t. Every rule
    of the table composes xy;yz ⊆ xz, and the inclusions ci ⊆ ii ⊆ ic and
    ci ⊆ cc ⊆ ic each take a free ε-step from i to c, at the start or at the
    end. The least fixpoint is therefore (ε?;B;ε?)⁺, where B holds the seeds
    ii₀, ci₀ and cc₀ (ic₀ is empty) as blocks: row x is ii₀|ci₀ in the low
    half and ii₀|ci₀|cc₀ in the high half, row n+x is ci₀ in the low half
    and ci₀|cc₀ in the high half. ii, ic, ci and cc are the four n×n blocks
    of the closure. armv7 drops po_loc from the cc seed.

    The seed and the blocks are made on the relations' ints: in the 2n-node
    int, the rows of a block lie 2n bits apart (kernels.widen), the high
    half's rows n bits above the low half's, and rows n..2n-1 2n·n bits
    above rows 0..n-1."""
    r = _POWER(gp, dict(static_relations(gp.shape, POWER_STATIC)))
    n = gp.n
    half = 2 * n * n
    ii0 = r.ii_static | r.rdw | r.rfi
    ci0 = r.ctrl_isync | r.detour
    cc0 = r.cc_static_armv7 if armv7 else r.cc_static
    a, b, c = (widen(rel.bits, n) for rel in (ii0 | ci0, ci0, cc0))
    seed = a | (a | c) << n | (b | (b | c) << n) << half
    closed = Rel.from_bits(2 * n, seed).plus().bits
    r.ii, r.ic, r.ci, r.cc = (Rel.from_bits(n, narrow(closed >> shift, n))
                              for shift in (0, n, half, half + n))
    return r


def _at_order(gp, rels):
    at = gp.ident(gp.rmw.dom() | gp.rmw.codom())
    return gp.co | at.seq(gp.po, at)


_SC_PER_LOC = (
    "sc-per-loc", "acyclic", lambda g, r: union_all(g.n, [g.po_loc, g.rf, r.fr, g.co])
)
POWER = (
    _SC_PER_LOC,
    ("observation", "irreflexive", lambda g, r: r.fre.seq(r.prop, r.hb_star)),
    ("propagation", "acyclic", lambda g, r: g.co | r.prop),
    ("atomicity", "empty", atomicity),
    ("power-no-thin-air", "acyclic", lambda g, r: r.hb),
)
AT_ORDER = ("at-order", "acyclic", _at_order)  # co ∪ [At];po;[At], off by default


def check_power(gp, at_axiom=False, armv7=False):
    table = POWER + (AT_ORDER,) if at_axiom else POWER
    return Verdict("power", evaluate(table, gp, power_ppo_fixpoint(gp, armv7=armv7)))


# -- ARM consistency ----------------------------------------------------------------


ARM_STATIC = {
    # the static factors of dob's three terms
    "addr_po_w": lambda g, r: g.addr.seq(g.po, g.ident(g.W)),
    "addr_data": lambda g, r: g.addr | g.data,
    "ctrl_data_w": lambda g, r: (g.ctrl | g.data).compose(g.ident(g.W)),
    "po_rel": lambda g, r: g.po.compose(_with_mode(g, g.W, "L")),
    # bob but for its po;[L];coi edges
    "bob_static": lambda g, r: (
        g.po.seq(g.ident(g.fences_with_mode("sy")), g.po)
        | g.ident(g.R).seq(g.po, g.ident(g.fences_with_mode("ld")), g.po)
        | _with_mode(g, g.R, "Q").compose(g.po)
        | r.po_rel
    ),
}
ARM_RELS = BASE_RELS | {
    "obs": lambda g, r: r.rfe | r.fre | r.coe,
    # addr;po;[W] ∪ (addr ∪ data);rfi? ∪ (ctrl ∪ data);[W];coi?
    "dob": lambda g, r: (
        r.addr_po_w | r.addr_data.compose(r.rfi.opt()) | r.ctrl_data_w.compose(r.coi.opt())
    ),
    "aob": lambda g, r: g.rmw | g.ident(g.rmw.codom()).seq(r.rfi, _with_mode(g, g.R, "Q")),
    # po;[L];coi? ∪ the fence and acquire edges; bob_static holds po;[L]
    "bob": lambda g, r: r.bob_static | r.po_rel.compose(r.coi),
}
_ARM = namespace(ARM_RELS)


ARM = (
    _SC_PER_LOC,
    ("external", "acyclic", lambda g, r: union_all(g.n, [r.obs, r.dob, r.aob, r.bob])),
    ("atomicity", "empty", atomicity),
)


def arm_relations(ga):
    """The ARM relations of ga (ARM_STATIC and ARM_RELS) in a fresh store."""
    return _ARM(ga, dict(static_relations(ga.shape, ARM_STATIC)))


def check_arm(ga):
    return Verdict("arm", evaluate(ARM, ga, arm_relations(ga)))


# -- the correspondence check ---------------------------------------------------------
#
# The conditions are stated over the source graph alone, apart from to_power
# and to_arm, so that they check those mappings.


def correspondence_check(src, target):
    """Def-4.2-style conditions between a source graph and an arbitrary
    candidate target of the kind target.model names (a POWER source must be
    release-free); diagnostics, not exceptions."""
    if target.model not in _TARGETS:
        raise ValueError(f"no correspondence conditions for {target.model!r} graphs")
    spec = _TARGETS[target.model]
    events = _renumber_whole(src)
    inserted = sorted(Event(events[i].tid, events[i].whole, 1) for i in spec.fence_after(src))
    if set(target.events) != set(events) | set(inserted):
        return ["event set mismatch"]

    out = []
    for e, lab in zip(events, src.labels):
        tlab = target.labels[target.index_of(e)]
        modes = spec.modes[lab.kind]
        ok = (tlab.kind, tlab.loc, tlab.val) == (lab.kind, lab.loc, lab.val)
        if not e.is_init:
            ok = ok and lab.mode in modes and tlab.mode == modes[lab.mode]
        if not ok:
            out.append(f"label mismatch at {e}")
    for e in inserted:
        tlab = target.labels[target.index_of(e)]
        if tlab.kind != "f" or tlab.mode != spec.fence:
            out.append(f"inserted event {e} is not an f[{spec.fence}]")

    def lift(names, rel):
        return {(names[a], names[b]) for a, b in rel}

    for name in ("rmw", "data", "addr", "rf", "co"):
        if lift(events, getattr(src, name)) != lift(target.events, getattr(target, name)):
            out.append(f"{name} changed")
    ctrl = lift(target.events, target.ctrl)
    if not lift(events, src.ctrl) <= ctrl:
        out.append("source ctrl dropped")
    for name, _, obligation in spec.ctrl:
        for x, b in sorted(obligation(src)):
            if (events[x], events[b]) not in ctrl:
                out.append(f"{name} ctrl missing: ({events[x]},{events[b]})")
    return out


# -- composed model checkers -----------------------------------------------------------


def check_imm_via_power(g, at_axiom=False, armv7=False):
    return check_power(to_power(split_release(g)), at_axiom=at_axiom, armv7=armv7)


def check_imm_via_arm(g):
    return check_arm(to_arm(g))

