"""Execution graphs and their derived relations.

An execution is a finite event set with labels and primitive relations
(rmw, data, addr, ctrl, casdep, rf, co, optional sc). An `Event` is its
identity as a tuple, and tuple order is the canonical event order:
initialization events first, by location, then each thread's events by
serial number. Program order is derived from it: initialization events
precede everything, events of one thread are ordered by serial number.
Each event has one `Label`, R^mode(loc, val), W^mode(loc, val) or F^mode,
told apart by its kind; `Read`, `Write` and `Fence` construct them.
Executions are immutable after construction.

An execution is split in two, as herd's pre-execution and execution witness
are (Alglave, Maranget and Tautschnig, Herding Cats, TOPLAS 2014). Its
`Shape` holds the events, each label without its value (a `Slot`: a label
is its slot plus its value, `Label.slot` and `Slot.valued` convert), rmw,
data, addr, ctrl and casdep, and every view computed from them alone, once,
when the shape is made: po, po_loc, the event sets, the writes per
location, the per-thread and per-location indexes. `Execution` extends
`Shape` with the valued labels, rf, co and sc: `Execution.on` starts from a
copy of its shape's attributes, so every completion of one shape holds the
same view objects, and a view is computed once per shape.

Derived relations are stated once each, as rows of a definition table
(name -> (g, rels) -> Rel, the shape of the axiom rows in `consistency`).
The entries that read only a shape form static tables (`BASE_STATIC` and
`IMM_STATIC`, which extends it, here; `POWER_STATIC` and `ARM_STATIC` in
hwmodels): `static_relations` builds one in full, once per shape, on the
Shape itself, where an entry that reads rf, co, sc or a value raises
AttributeError. The rest read rf or co: `BASE_RELS`, extended by `IMM_RELS`
here and by the POWER and ARM tables in hwmodels. A namespace (an instance
of the `Derived` class that `namespace(table)` makes) starts its store as a
copy of the shape's static relations and computes an rf/co entry the first
time its name is read, so a model builds only the rf/co relations its rows
reach. `Rel.compose` returns at once when a factor is empty, so an entry
states its formula alone. It branches on an empty factor only where that
saves work the composition would still do: building what no row would
otherwise read (sw's rs and rf), a closure (hb is po when sw is empty), or
the compositions a sequence makes before its empty factor (hwmodels' prop1
and prop2). Each such entry says what it saves.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .program import FENCE_MODES, READ_MODES, WRITE_MODES, mode_leq
from .relalg import Rel

INIT_TID = -1

POWER_FENCE_MODES = ("isync", "lwsync", "sync")
ARM_READ_MODES = ("rlx", "Q")
ARM_WRITE_MODES = ("rlx", "L")
ARM_FENCE_MODES = ("ld", "sy")


class Event(NamedTuple):
    """An event's identity. Tuple order is the canonical order: init events
    (tid INIT_TID) come first, by location, then each thread's events by
    serial number (whole, half)."""

    tid: int  # INIT_TID for initialization events
    whole: int
    half: int = 0
    init_loc: int | None = None

    @staticmethod
    def init(loc):
        return Event(INIT_TID, 0, 0, loc)

    @property
    def is_init(self):
        return self.tid == INIT_TID

    @property
    def sn(self):
        return (self.whole, self.half)

    def precedes(self, other):
        """The sequenced-before order on event identities."""
        if self.is_init:
            return not other.is_init
        return (
            not other.is_init
            and self.tid == other.tid
            and self.sn < other.sn
        )

    def __str__(self):
        if self.is_init:
            return f"init({self.init_loc})"
        frac = ".5" if self.half else ""
        return f"({self.tid},{self.whole}{frac})"


class Slot(NamedTuple):
    """A label without its value: what a Shape knows of an event."""

    kind: str  # r, w or f
    mode: str | None
    loc: int | None = None
    ex: bool = False  # reads only
    rmw_mode: str | None = None  # writes only

    def valued(self, val):
        """The label of this slot that carries val (a fence carries none)."""
        return Label(*self, None if self.kind == "f" else val)


class Label(NamedTuple):
    """An event's label, R^mode(loc, val), W^mode(loc, val) or F^mode: its
    slot's fields and the value read or written, None for a fence."""

    kind: str
    mode: str | None
    loc: int | None
    ex: bool
    rmw_mode: str | None
    val: int | None

    @property
    def slot(self):
        return Slot(self.kind, self.mode, self.loc, self.ex, self.rmw_mode)


def Read(mode, loc, val, ex=False):
    return Label("r", mode, loc, ex, None, val)


def Write(mode, loc, val, rmw_mode="normal"):
    return Label("w", mode, loc, False, rmw_mode, val)


def Fence(mode):
    return Label("f", mode, None, False, None, None)


def program_order(events):
    """Event.precedes over events in canonical order, as bitset rows: the
    init events come first and precede every other event, and each thread's
    events are contiguous and in serial order."""
    n = len(events)
    rows = [0] * n
    start = 0
    while start < n and events[start].is_init:
        start += 1
    rest = (1 << n) - (1 << start)
    for i in range(start):
        rows[i] = rest
    while start < n:
        end = start
        while end < n and events[end].tid == events[start].tid:
            end += 1
        upto = 1 << end
        for i in range(start, end):
            rows[i] = upto - (2 << i)
        start = end
    return Rel.from_rows(n, rows)


class Derived:
    """The derived relations of one graph g, read as attributes; the classes
    `namespace` makes from tables add the attributes. Computed relations are
    kept in store (a fresh dict by default). The store holds relations only,
    so a graph can keep it to share its relations between namespaces without
    a reference cycle, which would leave every checked graph to the cyclic
    collector."""

    __slots__ = ("g", "__dict__")

    def __init__(self, g, store=None):
        self.g = g
        if store is not None:
            self.__dict__ = store


class _Entry:
    """A table entry as an attribute: computed from (g, rels) on the first
    read and stored under its name, which shadows the entry from then on."""

    __slots__ = ("name", "define")

    def __init__(self, name, define):
        self.name = name
        self.define = define

    def __get__(self, rels, owner=None):
        if rels is None:
            return self
        rel = rels.__dict__[self.name] = self.define(rels.g, rels)
        return rel


def namespace(table):
    """The Derived class whose attributes are the entries of table
    (name -> (g, rels) -> Rel); reading a name outside it raises
    AttributeError."""
    entries = {name: _Entry(name, define) for name, define in table.items()}
    return type("Derived", (Derived,), {"__slots__": (), **entries})


def static_relations(shape, table):
    """The relations of a static table on shape, evaluated once, in table
    order (an entry reads the shape and the entries above it), as a dict
    kept in the shape's memo under the table's entries."""

    def evaluate(shape):
        rels = Derived(shape)
        for name, define in table.items():
            rels.__dict__[name] = define(shape, rels)
        return rels.__dict__

    return shape.memo(tuple(table.items()), evaluate)


BASE_RELS = {
    "rfi": lambda g, r: g.rf & g.po,
    "rfe": lambda g, r: g.rf - g.po,
    "coi": lambda g, r: g.co & g.po,
    "coe": lambda g, r: g.co - g.po,
    "fr": lambda g, r: g.rf.inverse().compose(g.co),
    "fre": lambda g, r: r.fr - g.po,
    "detour": lambda g, r: r.coe.compose(r.rfe) & g.po,
}


def _eco(rf, co_fr):
    """rf ∪ co;rf? ∪ fr;rf?, given co ∪ fr: composition distributes over
    union, and X;rf? is X ∪ X;rf."""
    return rf | co_fr | co_fr.compose(rf)


# [R];X;[W] is X ∩ (R × W)
BASE_STATIC = {"R_W": lambda g, r: Rel.product(g.n, g.R, g.W)}
IMM_STATIC = BASE_STATIC | {
    "deps": lambda g, r: (
        g.data | g.ctrl | g.addr.compose(g.po.opt()) | g.casdep
        | g.ident(g.R_ex).compose(g.po)
    ),
    "bob": lambda g, r: (
        g.po.compose(g.ident(g.W_rel))
        | g.ident(g.R_acq).compose(g.po)
        | g.po.compose(g.ident(g.F))
        | g.ident(g.F).compose(g.po)
        | g.ident(g.W_rel).seq(g.po_loc, g.ident(g.W))
    ),
    "strong_po": lambda g, r: g.ident(g.W_strong).seq(g.po, g.ident(g.W)),
    # the brackets of sw and the first part of rs
    "sw_release": lambda g, r: g.ident(g.W_rel) | g.ident(g.fences_geq("rel")).compose(g.po),
    "sw_acquire": lambda g, r: g.ident(g.R_acq) | g.po.compose(g.ident(g.fences_geq("acq"))),
    "rs_static": lambda g, r: g.ident(g.W).seq(g.po_loc, g.ident(g.W)),
}
IMM_RELS = BASE_RELS | {
    "eco": lambda g, r: _eco(g.rf, g.co | r.fr),
    # [W];po_loc;[W] ∪ [W];(po_loc?;rf;rmw)*
    "rs": lambda g, r: (
        r.rs_static | g.ident(g.W).compose(g.po_loc.opt().seq(g.rf, g.rmw).star())
    ),
    # ([W^rel] ∪ [F^⊒rel];po);rs;(rfi ∪ po_loc?;rfe);([R^acq] ∪ po;[F^⊒acq]),
    # empty without a release or an acquire bracket: rs and rf are not built
    "sw": lambda g, r: (
        r.sw_release.seq(r.rs, r.rfi | g.po_loc.opt().compose(r.rfe), r.sw_acquire)
        if r.sw_release and r.sw_acquire else Rel(g.n)
    ),
    # (po ∪ sw)⁺, which is po when sw is empty (po is transitive): no closure
    "hb": lambda g, r: (g.po | r.sw).plus() if r.sw else g.po,
    # [R];(deps ∪ rfi)⁺;[W]
    "ppo": lambda g, r: (r.deps | r.rfi).plus() & r.R_W,
    # [F^sc];hb;eco;hb;[F^sc]
    "psc": lambda g, r: g.ident(g.F_sc).seq(r.hb, r.eco, r.hb, g.ident(g.F_sc)),
    "ar_base": lambda g, r: r.rfe | r.bob | r.ppo | r.detour | r.strong_po,
    "ar": lambda g, r: r.ar_base | r.psc,
    "rs_rc11": lambda g, r: (
        g.ident(g.W).seq(g.po_loc.opt(), g.ident(g.W)).compose(g.rf.compose(g.rmw).star())
    ),
    # release;rs_rc11;rf;acquire, with the brackets of sw and, as there, empty
    # without one: rs_rc11 is not built
    "sw_rc11": lambda g, r: (
        r.sw_release.seq(r.rs_rc11, g.rf, r.sw_acquire)
        if r.sw_release and r.sw_acquire else Rel(g.n)
    ),
    # (po ∪ sw_rc11)⁺, po when sw_rc11 is empty: no closure
    "hb_rc11": lambda g, r: (g.po | r.sw_rc11).plus() if r.sw_rc11 else g.po,
    "vf_rlx": lambda g, r: g.rf.opt().compose(g.po.opt()),
}
_IMM = namespace(IMM_RELS)


class Shape:
    """The value-free part of an execution: events in canonical order, their
    slots (labels without values), rmw, data, addr, ctrl and casdep, the
    model, and every view computed from them alone, each once, when the
    shape is made. It has no rf, co, sc or values, so what is computed here
    holds for every execution over it, and a computation that reads them
    raises AttributeError. It also keeps, per key, a value computed once
    from it (`memo`): its static relations and hwmodels' mapping layouts."""

    def __init__(self, events, labels, rmw=None, data=None, addr=None, ctrl=None,
                 casdep=None, model="imm"):
        self.events = events = tuple(events)
        n = self.n = len(events)
        if not all(a < b for a, b in zip(events, events[1:])):
            raise ValueError("events not in canonical order")
        self.labels = labels = tuple(labels)
        if len(labels) != n:
            raise ValueError("labels misaligned")
        empty = Rel(n)
        self.rmw = rmw if rmw is not None else empty
        self.data = data if data is not None else empty
        self.addr = addr if addr is not None else empty
        self.ctrl = ctrl if ctrl is not None else empty
        self.casdep = casdep if casdep is not None else empty
        self.model = model
        self.po = program_order(events)
        self.loc_of = [lab.loc for lab in labels]
        self.po_loc = self.po.restrict_loc(self.loc_of)
        self.R, self.W, self.F = (
            frozenset(i for i, lab in enumerate(labels) if lab.kind == kind)
            for kind in "rwf"
        )
        self.RW = self.R | self.W
        self.init_events = frozenset(i for i, e in enumerate(events) if e.is_init)
        self.R_ex = frozenset(i for i in self.R if labels[i].ex)
        self.W_strong = frozenset(i for i in self.W if labels[i].rmw_mode == "strong")
        self.W_rel = frozenset(i for i in self.W if labels[i].mode == "rel")
        self.R_acq = frozenset(i for i in self.R if labels[i].mode == "acq")
        self.F_sc = self.fences_with_mode("sc")
        by_loc = {}
        for i in self.W:
            by_loc.setdefault(labels[i].loc, set()).add(i)
        self.writes_by_loc = {loc: frozenset(ws) for loc, ws in by_loc.items()}
        by_thread = {}
        for i, e in enumerate(events):
            by_thread.setdefault(e.tid, set()).add(i)
        self._by_thread = {tid: frozenset(es) for tid, es in by_thread.items()}
        self._locations = tuple(sorted({loc for loc in self.loc_of if loc is not None}))
        self._index = None  # event -> position, made by the first index_of
        self._cache = {}

    def memo(self, key, make):
        """make(self), computed on the first call with key."""
        if key not in self._cache:
            self._cache[key] = make(self)
        return self._cache[key]

    def fences_with_mode(self, mode):
        return frozenset(i for i in self.F if self.labels[i].mode == mode)

    def fences_geq(self, mode):
        return frozenset(i for i in self.F if mode_leq(mode, self.labels[i].mode))

    def writes_to(self, loc):
        return self.writes_by_loc.get(loc, frozenset())

    def tid_of(self, i):
        return self.events[i].tid

    def thread_events(self, tid):
        return self._by_thread.get(tid, frozenset())

    def tids(self):
        return sorted({e.tid for e in self.events if not e.is_init})

    def locations(self):
        return list(self._locations)

    def ident(self, members):
        return Rel.identity(self.n, members)

    def index_of(self, event):
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.events)}
        return self._index[event]


class Execution(Shape):
    """A Shape plus valued labels and rf, co and the optional sc order;
    model ∈ imm|power|arm. An execution starts from a copy of its shape's
    attributes (`on`), so every execution over one shape holds the same view
    objects; `shape` is that shape, on which the static tables are
    evaluated. Its own memo keeps its values, co orders and IMM relations."""

    def __init__(self, events, labels, rmw=None, data=None, addr=None, ctrl=None,
                 casdep=None, rf=None, co=None, sc=None, model="imm"):
        labels = tuple(labels)
        shape = Shape(events, [lab.slot for lab in labels], rmw=rmw, data=data,
                      addr=addr, ctrl=ctrl, casdep=casdep, model=model)
        self._fill(shape, labels, rf, co, sc)

    @classmethod
    def on(cls, shape, labels, rf=None, co=None, sc=None):
        """The execution over shape with these labels, which must carry
        shape's slots in order (not checked), and rf, co and sc."""
        g = cls.__new__(cls)
        g._fill(shape, labels, rf, co, sc)
        return g

    def _fill(self, shape, labels, rf, co, sc):
        self.__dict__.update(shape.__dict__)
        self.shape = shape
        self.labels = labels
        self.rf = rf if rf is not None else Rel(shape.n)
        self.co = co if co is not None else Rel(shape.n)
        self.sc = sc
        self._cache = {"po": shape.po}

    @staticmethod
    def build(event_labels, rmw=(), data=(), addr=(), ctrl=(), casdep=(), rf=(),
              co=(), sc=None, model="imm"):
        """Construct from (event, label) pairs in any order and event-level
        relation pairs: the reference constructor for tests and fixtures,
        since enumeration and the mappings build their graphs on rows."""
        ordered = sorted(event_labels, key=lambda el: el[0])
        events = [e for e, _ in ordered]
        if len(set(events)) != len(events):
            raise ValueError("duplicate events")
        labels = [l for _, l in ordered]
        index = {e: i for i, e in enumerate(events)}
        n = len(events)

        def rel(pairs):
            return Rel(n, ((index[a], index[b]) for a, b in pairs))

        return Execution(
            events, labels,
            rmw=rel(rmw), data=rel(data), addr=rel(addr), ctrl=rel(ctrl),
            casdep=rel(casdep), rf=rel(rf), co=rel(co),
            sc=None if sc is None else rel(sc), model=model,
        )

    # -- basic views -------------------------------------------------------------

    @property
    def po(self):
        return self._cache["po"]

    @property
    def val_of(self):
        return self.memo("val_of", lambda g: [lab.val for lab in g.labels])

    # -- well-formedness -----------------------------------------------------------

    def wellformed(self):
        """Diagnostics for every violated clause; empty iff well-formed."""
        out = []
        po = self.po
        imm_po = po.immediate()
        labs = self.labels

        for i in self.init_events:
            lab = labs[i]
            if not (lab.kind == "w" and lab.mode in ("rlx", None)
                    and lab.val == 0 and lab.loc == self.events[i].init_loc
                    and lab.rmw_mode in ("normal", None)):
                out.append(f"init label: {self.events[i]} labeled {lab}")

        modes = {
            "imm": {"r": READ_MODES, "w": WRITE_MODES, "f": FENCE_MODES},
            "power": {"r": (None,), "w": (None,), "f": POWER_FENCE_MODES},
            "arm": {"r": ARM_READ_MODES, "w": ARM_WRITE_MODES, "f": ARM_FENCE_MODES},
        }[self.model]
        for i, lab in enumerate(labs):
            if lab.mode not in modes[lab.kind] and not (lab.kind == "w" and i in self.init_events):
                out.append(f"{_LABEL_KINDS[lab.kind][0]} mode: {lab}")

        for r, w in self.rmw:
            if r not in self.R_ex or w not in self.W:
                out.append(f"rmw shape: ({r},{w}) not R^ex × W")
            elif labs[r].loc != labs[w].loc:
                out.append(f"rmw location: ({r},{w})")
            elif (r, w) not in imm_po:
                out.append(f"rmw not imm(po): ({r},{w})")
        rmw_writes = self.rmw.codom()
        for w in self.W_strong:
            if w not in rmw_writes:
                out.append(f"strong write outside codom(rmw): {w}")

        def check_shape(rel, name, pre, post):
            for a, b in rel:
                if a not in pre or b not in post or (a, b) not in po:
                    out.append(f"{name} shape: ({a},{b})")

        check_shape(self.data, "data", self.R, self.W)
        check_shape(self.addr, "addr", self.R, self.RW)
        check_shape(self.ctrl, "ctrl", self.R, frozenset(range(self.n)))
        if self.ctrl.compose(po) - self.ctrl:
            out.append("ctrl;po ⊆ ctrl")
        check_shape(self.casdep, "casdep", self.R, self.R_ex)
        if self.model != "imm" and self.casdep:
            out.append(f"casdep present in {self.model} execution")

        seen = {}
        for w, r in self.rf:
            if w not in self.W or r not in self.R:
                out.append(f"rf shape: ({w},{r})")
                continue
            if labs[w].loc != labs[r].loc:
                out.append(f"rf loc: ({w},{r})")
            if labs[w].val != labs[r].val:
                out.append(f"rf value: ({w},{r})")
            if r in seen:
                out.append(f"rf functional: read {r}")
            seen[r] = w

        for a, b in self.co:
            if a not in self.W or b not in self.W or labs[a].loc != labs[b].loc:
                out.append(f"co loc: ({a},{b})")
        if not self.co.is_irreflexive() or not self.co.is_transitive():
            out.append("co order: not a strict partial order")

        if self.sc is not None:
            fsc = self.F_sc
            if not all(a in fsc and b in fsc for a, b in self.sc):
                out.append("sc shape: outside F^sc × F^sc")
        return out

    # -- derived relations ------------------------------------------------------------

    def derive(self):
        """The IMM and RC11 relations of this graph, each computed when first
        read through any namespace this returns."""
        if self.model != "imm":
            raise ValueError("derived relations are defined for imm executions")
        return _IMM(self, self.memo(
            "derived", lambda g: dict(static_relations(g.shape, IMM_STATIC))))

    def co_order(self, loc):
        """The writes to loc first to last in co, or None if co is not a
        strict total order on them."""
        return self.memo(("co_order", loc), lambda g: g.co.total_order(g.writes_to(loc)))

    def bvf(self, determined, sc=None):
        """Certification visibility into non-determined reads:
        (rf;[D])^? ; (hb;[F^sc])^? ; sc^? ; hb with the RC11 hb."""
        rf_d = self.rf.compose(self.ident(determined)).opt()
        hb = self.derive().hb_rc11
        sc_rel = sc if sc is not None else Rel(self.n)
        return rf_d.seq(
            hb.compose(self.ident(self.F_sc)).opt(), sc_rel.opt(), hb
        )

    def outcome(self, locations=None):
        """Value of the co-maximal write per location; 0 where nothing is written."""
        out = {}
        for loc in self.locations() if locations is None else locations:
            order = self.co_order(loc)
            if order is None:
                raise ValueError(f"co not total on writes to {loc}")
            out[loc] = self.labels[order[-1]].val if order else 0
        return out

    # -- serialization ------------------------------------------------------------------

    def to_json(self):
        evs = []
        for e, lab in zip(self.events, self.labels):
            if e.is_init:
                desc = {"init": e.init_loc}
            else:
                desc = {"tid": e.tid, "sn": [e.whole, e.half]}
            desc["label"] = _label_to_json(lab)
            evs.append(desc)
        doc = {"schema": 1, "model": self.model, "events": evs}
        for name in ("rmw", "data", "addr", "ctrl", "casdep", "rf", "co"):
            doc[name] = list(getattr(self, name))
        if self.sc is not None:
            doc["sc"] = list(self.sc)
        return doc

    def dumps(self):
        return json.dumps(self.to_json(), indent=1)

    @staticmethod
    def from_json(doc):
        events = []
        labels = []
        for desc in doc["events"]:
            if "init" in desc:
                events.append(Event.init(desc["init"]))
            else:
                whole, half = desc["sn"]
                events.append(Event(desc["tid"], whole, half))
            labels.append(_label_from_json(desc["label"]))
        n = len(events)

        def rel(name):
            return Rel(n, (tuple(p) for p in doc.get(name, ())))

        return Execution(
            events, labels,
            rmw=rel("rmw"), data=rel("data"), addr=rel("addr"), ctrl=rel("ctrl"),
            casdep=rel("casdep"), rf=rel("rf"), co=rel("co"),
            sc=rel("sc") if "sc" in doc else None,
            model=doc.get("model", "imm"),
        )

    @staticmethod
    def loads(text):
        return Execution.from_json(json.loads(text))


# per label kind: its name, its constructor, and the fields its JSON holds
# after "kind", named as the constructor's parameters
_LABEL_KINDS = {
    "r": ("read", Read, ("mode", "loc", "val", "ex")),
    "w": ("write", Write, ("mode", "loc", "val", "rmw_mode")),
    "f": ("fence", Fence, ("mode",)),
}


def _label_to_json(lab):
    fields = lab._asdict()
    return {"kind": lab.kind, **{name: fields[name] for name in _LABEL_KINDS[lab.kind][2]}}


def _label_from_json(doc):
    _, make, names = _LABEL_KINDS[doc["kind"]]
    return make(**{name: doc[name] for name in names if name in doc})
