"""Execution graphs and their derived relations.

An execution is a finite event set with labels and primitive relations
(rmw, data, addr, ctrl, casdep, rf, co, optional sc). Program order is
derived from event identities: initialization events precede everything,
events of one thread are ordered by serial number. Executions are immutable
after construction; derived relations are computed once and cached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .program import FENCE_MODES, READ_MODES, WRITE_MODES, mode_leq
from .relalg import Rel, remapping

INIT_TID = -1

POWER_FENCE_MODES = ("isync", "lwsync", "sync")
ARM_READ_MODES = ("rlx", "Q")
ARM_WRITE_MODES = ("rlx", "L")
ARM_FENCE_MODES = ("ld", "sy")


@dataclass(frozen=True)
class Event:
    tid: int  # INIT_TID for initialization events
    whole: int
    half: int = 0
    init_loc: int | None = None

    @staticmethod
    def init(loc):
        return Event(INIT_TID, 0, 0, init_loc=loc)

    @property
    def is_init(self):
        return self.tid == INIT_TID

    @property
    def sn(self):
        return (self.whole, self.half)

    def key(self):
        if self.is_init:
            return (0, self.init_loc, 0, 0)
        return (1, self.tid, self.whole, self.half)

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


@dataclass(frozen=True)
class Read:
    mode: str | None
    loc: int
    val: int
    ex: bool = False

    kind = "r"


@dataclass(frozen=True)
class Write:
    mode: str | None
    loc: int
    val: int
    rmw_mode: str | None = "normal"

    kind = "w"


@dataclass(frozen=True)
class Fence:
    mode: str

    kind = "f"
    loc = None


@dataclass
class DerivedRels:
    po: Rel
    rfi: Rel
    rfe: Rel
    coe: Rel
    fr: Rel
    fre: Rel
    eco: Rel
    rs: Rel
    sw: Rel
    hb: Rel
    deps: Rel
    ppo: Rel
    bob: Rel
    detour: Rel
    psc: Rel
    ar: Rel
    ar_base: Rel
    rs_rc11: Rel
    sw_rc11: Rel
    hb_rc11: Rel
    psc_rc11: Rel
    ar_rc11: Rel
    vf_rlx: Rel


class Execution:
    """Event set + label map + primitive relations; model ∈ imm|power|arm."""

    def __init__(self, events, labels, rmw=None, data=None, addr=None, ctrl=None,
                 casdep=None, rf=None, co=None, sc=None, model="imm"):
        self.events = tuple(events)
        n = len(self.events)
        self.n = n
        for i in range(1, n):
            if not self.events[i - 1].key() < self.events[i].key():
                raise ValueError("events not in canonical order")
        self.labels = tuple(labels)
        if len(self.labels) != n:
            raise ValueError("labels misaligned")
        empty = Rel(n)
        self.rmw = rmw if rmw is not None else empty
        self.data = data if data is not None else empty
        self.addr = addr if addr is not None else empty
        self.ctrl = ctrl if ctrl is not None else empty
        self.casdep = casdep if casdep is not None else empty
        self.rf = rf if rf is not None else empty
        self.co = co if co is not None else empty
        self.sc = sc
        self.model = model
        self._cache = {}

    @staticmethod
    def build(event_labels, rmw=(), data=(), addr=(), ctrl=(), casdep=(), rf=(),
              co=(), sc=None, model="imm"):
        """Construct from (event, label) pairs in any order and event-level
        relation pairs: the reference constructor for tests and fixtures,
        since enumeration and the mappings build their graphs on rows."""
        ordered = sorted(event_labels, key=lambda el: el[0].key())
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

    def _cached(self, key, thunk):
        if key not in self._cache:
            self._cache[key] = thunk()
        return self._cache[key]

    def index_of(self, event):
        idx = self._cached("index", lambda: {e: i for i, e in enumerate(self.events)})
        return idx[event]

    @property
    def po(self):
        """Event.precedes as bitset rows, read off the canonical order: the
        init events come first and precede every other event, and each
        thread's events are contiguous and in serial order."""
        def mk():
            events, n = self.events, self.n
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
        return self._cached("po", mk)

    @property
    def loc_of(self):
        return self._cached("loc_of", lambda: [lab.loc for lab in self.labels])

    @property
    def val_of(self):
        return self._cached(
            "val_of",
            lambda: [getattr(lab, "val", None) for lab in self.labels],
        )

    @property
    def po_loc(self):
        return self._cached("po_loc", lambda: self.po.restrict_loc(self.loc_of))

    def set_of(self, kind):
        return frozenset(i for i, lab in enumerate(self.labels) if lab.kind == kind)

    @property
    def R(self):
        return self._cached("R", lambda: self.set_of("r"))

    @property
    def W(self):
        return self._cached("W", lambda: self.set_of("w"))

    @property
    def F(self):
        return self._cached("F", lambda: self.set_of("f"))

    @property
    def RW(self):
        return self.R | self.W

    @property
    def init_events(self):
        return self._cached(
            "init", lambda: frozenset(i for i, e in enumerate(self.events) if e.is_init)
        )

    @property
    def R_ex(self):
        return self._cached(
            "R_ex",
            lambda: frozenset(i for i in self.R if self.labels[i].ex),
        )

    @property
    def W_strong(self):
        return self._cached(
            "W_strong",
            lambda: frozenset(i for i in self.W if self.labels[i].rmw_mode == "strong"),
        )

    @property
    def W_rel(self):
        return self._cached(
            "W_rel",
            lambda: frozenset(i for i in self.W if self.labels[i].mode == "rel"),
        )

    @property
    def R_acq(self):
        return self._cached(
            "R_acq",
            lambda: frozenset(i for i in self.R if self.labels[i].mode == "acq"),
        )

    @property
    def F_sc(self):
        return self.fences_with_mode("sc")

    def fences_with_mode(self, mode):
        return frozenset(i for i in self.F if self.labels[i].mode == mode)

    def fences_geq(self, mode):
        return frozenset(i for i in self.F if mode_leq(mode, self.labels[i].mode))

    def writes_to(self, loc):
        return frozenset(i for i in self.W if self.labels[i].loc == loc)

    def tid_of(self, i):
        return self.events[i].tid

    def thread_events(self, tid):
        return frozenset(i for i, e in enumerate(self.events) if e.tid == tid)

    def tids(self):
        return sorted({e.tid for e in self.events if not e.is_init})

    def locations(self):
        return sorted({lab.loc for lab in self.labels if lab.loc is not None})

    def ident(self, members):
        return Rel.identity(self.n, members)

    # -- well-formedness -----------------------------------------------------------

    def wellformed(self):
        """Diagnostics for every violated clause; empty iff well-formed."""
        out = []
        po = self.po
        imm_po = po.immediate()
        labs = self.labels

        for i in self.init_events:
            lab = labs[i]
            if not (isinstance(lab, Write) and lab.mode in ("rlx", None)
                    and lab.val == 0 and lab.loc == self.events[i].init_loc
                    and lab.rmw_mode in ("normal", None)):
                out.append(f"init label: {self.events[i]} labeled {lab}")

        read_modes, write_modes, fence_modes = {
            "imm": (READ_MODES, WRITE_MODES, FENCE_MODES),
            "power": ((None,), (None,), POWER_FENCE_MODES),
            "arm": (ARM_READ_MODES, ARM_WRITE_MODES, ARM_FENCE_MODES),
        }[self.model]
        for i, lab in enumerate(labs):
            if isinstance(lab, Read) and lab.mode not in read_modes:
                out.append(f"read mode: {lab}")
            elif isinstance(lab, Write) and lab.mode not in write_modes and not self.events[i].is_init:
                out.append(f"write mode: {lab}")
            elif isinstance(lab, Fence) and lab.mode not in fence_modes:
                out.append(f"fence mode: {lab}")

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

    def is_initialized(self):
        used = {lab.loc for lab in self.labels if lab.loc is not None}
        have = {self.events[i].init_loc for i in self.init_events}
        return used <= have

    # -- derived relations ------------------------------------------------------------

    def derive(self):
        if self.model != "imm":
            raise ValueError("derived relations are defined for imm executions")
        return self._cached("derived", self._derive)

    def _derive(self):
        n = self.n
        po = self.po
        po_loc = self.po_loc
        rf, co, rmw = self.rf, self.co, self.rmw
        ident = self.ident

        rfi = rf & po
        rfe = rf - po
        coe = co - po
        fr = rf.inverse().compose(co)
        fre = fr - po
        eco = rf | co.compose(rf.opt()) | fr.compose(rf.opt())

        W, R, F = self.W, self.R, self.F
        id_W, id_R, id_F = ident(W), ident(R), ident(F)
        id_Wrel = ident(self.W_rel)
        id_Racq = ident(self.R_acq)
        id_Fsuprel = ident(self.fences_geq("rel"))
        id_Fsupacq = ident(self.fences_geq("acq"))
        id_Fsc = ident(self.F_sc)

        rs = id_W.seq(po_loc, id_W) | id_W.compose(
            po_loc.opt().seq(rf, rmw).star()
        )
        release = (id_Wrel | id_Fsuprel.compose(po)).compose(rs)
        sw = release.compose(rfi | po_loc.opt().compose(rfe)).compose(
            id_Racq | po.compose(id_Fsupacq)
        )
        hb = (po | sw).plus()

        deps = (
            self.data
            | self.ctrl
            | self.addr.compose(po.opt())
            | self.casdep
            | ident(self.R_ex).compose(po)
        )
        ppo = id_R.seq((deps | rfi).plus(), id_W)
        bob = (
            po.compose(id_Wrel)
            | id_Racq.compose(po)
            | po.compose(id_F)
            | id_F.compose(po)
            | id_Wrel.seq(po_loc, id_W)
        )
        detour = coe.compose(rfe) & po
        psc = id_Fsc.seq(hb, eco, hb, id_Fsc)
        strong_order = ident(self.W_strong).seq(po, id_W)
        ar_base = rfe | bob | ppo | detour | strong_order
        ar = ar_base | psc

        rs_rc11 = id_W.seq(po_loc.opt(), id_W).compose(rf.compose(rmw).star())
        release_rc11 = (id_Wrel | id_Fsuprel.compose(po)).compose(rs_rc11)
        sw_rc11 = release_rc11.compose(rf).compose(id_Racq | po.compose(id_Fsupacq))
        hb_rc11 = (po | sw_rc11).plus()
        psc_rc11 = id_Fsc.seq(hb_rc11, eco, hb_rc11, id_Fsc)
        ar_rc11 = ar_base | psc_rc11

        vf_rlx = rf.opt().compose(po.opt())

        return DerivedRels(
            po=po, rfi=rfi, rfe=rfe, coe=coe, fr=fr, fre=fre, eco=eco, rs=rs,
            sw=sw, hb=hb, deps=deps, ppo=ppo, bob=bob, detour=detour, psc=psc,
            ar=ar, ar_base=ar_base, rs_rc11=rs_rc11, sw_rc11=sw_rc11,
            hb_rc11=hb_rc11, psc_rc11=psc_rc11, ar_rc11=ar_rc11, vf_rlx=vf_rlx,
        )

    def bvf(self, determined, sc=None, fragment="full"):
        """Certification visibility into non-determined reads.

        Full: (rf;[D])^? ; (hb;[F^sc])^? ; sc^? ; hb with the RC11 hb.
        Relaxed: (rf;[D])^? ; po.
        """
        rf_d = self.rf.compose(self.ident(determined)).opt()
        if fragment == "relaxed":
            return rf_d.compose(self.po)
        d = self.derive()
        hb = d.hb_rc11
        sc_rel = sc if sc is not None else Rel(self.n)
        return rf_d.seq(
            hb.compose(self.ident(self.F_sc)).opt(), sc_rel.opt(), hb
        )

    # -- transformations ---------------------------------------------------------------

    def restrict_thread(self, tid):
        """Thread-local restriction: events of one thread, rf = co = ∅."""
        keep = sorted(self.thread_events(tid))
        return self._restricted(keep, rf=Rel(self.n), co=Rel(self.n), sc=None)

    def _restricted(self, keep, rf=None, co=None, sc="keep"):
        keep = sorted(keep)
        index = [None] * self.n
        for new, old in enumerate(keep):
            index[old] = new
        m = remapping(index, len(keep))

        if sc == "keep":
            new_sc = None if self.sc is None else m(self.sc)
        else:
            new_sc = None if sc is None else m(sc)
        return Execution(
            [self.events[i] for i in keep],
            [self.labels[i] for i in keep],
            rmw=m(self.rmw), data=m(self.data), addr=m(self.addr),
            ctrl=m(self.ctrl), casdep=m(self.casdep),
            rf=m(rf if rf is not None else self.rf),
            co=m(co if co is not None else self.co),
            sc=new_sc, model=self.model,
        )

    def signature(self):
        """Structure modulo event ids: labels plus relations as event pairs."""
        ev = self.events

        def sig(rel):
            return tuple(
                sorted(
                    ((ev[a], ev[b]) for a, b in rel),
                    key=lambda p: (p[0].key(), p[1].key()),
                )
            )

        return (
            tuple((e, lab) for e, lab in zip(ev, self.labels)),
            sig(self.rmw), sig(self.data), sig(self.addr), sig(self.ctrl),
            sig(self.casdep), sig(self.rf), sig(self.co),
        )

    def outcome(self, locations=None):
        """Value of the co-maximal write per location; 0 where nothing is written."""
        out = {}
        locs = self.locations() if locations is None else locations
        for loc in locs:
            writes = self.writes_to(loc)
            if not writes:
                out[loc] = 0
                continue
            if not self.co.is_total_on(writes):
                raise ValueError(f"co not total on writes to {loc}")
            maximal = [w for w in writes if not any((w, w2) in self.co for w2 in writes)]
            assert len(maximal) == 1
            out[loc] = self.labels[maximal[0]].val
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
        order = sorted(range(len(events)), key=lambda i: events[i].key())
        if order != list(range(len(events))):
            raise ValueError("fixture events must be listed in canonical order")
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

    def pretty(self, loc_names=None):
        def locname(loc):
            if loc_names and 0 <= loc < len(loc_names):
                return loc_names[loc]
            return f"loc{loc}"

        lines = []
        for i, (e, lab) in enumerate(zip(self.events, self.labels)):
            lines.append(f"  [{i}] {e}: {_label_str(lab, locname)}")
        return "\n".join(lines)


def _label_to_json(lab):
    if isinstance(lab, Read):
        return {"kind": "r", "mode": lab.mode, "loc": lab.loc, "val": lab.val, "ex": lab.ex}
    if isinstance(lab, Write):
        return {"kind": "w", "mode": lab.mode, "loc": lab.loc, "val": lab.val,
                "rmw_mode": lab.rmw_mode}
    return {"kind": "f", "mode": lab.mode}


def _label_from_json(doc):
    if doc["kind"] == "r":
        return Read(doc["mode"], doc["loc"], doc["val"], doc.get("ex", False))
    if doc["kind"] == "w":
        return Write(doc["mode"], doc["loc"], doc["val"], doc.get("rmw_mode", "normal"))
    return Fence(doc["mode"])


def _label_str(lab, locname):
    if isinstance(lab, Read):
        ex = ",ex" if lab.ex else ""
        return f"R[{lab.mode}{ex}] {locname(lab.loc)} = {lab.val}"
    if isinstance(lab, Write):
        strong = ",strong" if lab.rmw_mode == "strong" else ""
        return f"W[{lab.mode}{strong}] {locname(lab.loc)} := {lab.val}"
    return f"F[{lab.mode}]"
