"""Traversal configurations and the traversal strategy.

A configuration is a pair of event sets (covered, issued). Steps follow the
four-rule system (issue / cover / release-cover / rmw-cover); the small-step
variant and the next-step search back the existence argument. Fences and SC
order participate through the full issuable/coverable conditions. Every
configuration a traversal reaches is checked against the configuration
invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .relalg import Rel


class TraversalError(RuntimeError):
    pass


def _bitmask(events):
    mask = 0
    for e in events:
        mask |= 1 << e
    return mask


@dataclass(frozen=True)
class TraversalConfig:
    covered: frozenset
    issued: frozenset

    def __str__(self):
        return f"⟨C={sorted(self.covered)}, I={sorted(self.issued)}⟩"


@dataclass(frozen=True)
class TravStep:
    kind: str  # issue | cover | release-cover | rmw-cover
    event: int
    partner: int | None = None  # the rmw write of an rmw-cover

    # kind -> (what it covers, what it issues), as slices of (event, partner)
    _EFFECT = {
        "cover": (slice(0, 1), slice(0, 0)),
        "issue": (slice(0, 0), slice(0, 1)),
        "release-cover": (slice(0, 1), slice(0, 1)),
        "rmw-cover": (slice(0, 2), slice(1, 2)),
    }

    def apply(self, tc):
        """The configuration after this step: a cover covers the event, an
        issue issues the write, a release-cover does both to a release
        write, and an rmw-cover covers the read and its write and issues
        that write."""
        ends = (self.event, self.partner)
        covered, issued = self._EFFECT[self.kind]
        return TraversalConfig(tc.covered.union(ends[covered]),
                               tc.issued.union(ends[issued]))

    def to_json(self, g):
        doc = {"kind": self.kind, "event": str(g.events[self.event])}
        if self.partner is not None:
            doc["write"] = str(g.events[self.partner])
        return doc


class Traversal:
    """Per-graph state for issuable/coverable queries with a fixed sc order."""

    def __init__(self, g, sc=None):
        self.g = g
        d = g.derive()
        self.d = d
        if sc is None:
            sc = Rel(g.n)
        self.sc = sc
        if g.F_sc and not sc.is_total_on(g.F_sc):
            raise TraversalError("SC fences present but no total sc order supplied")
        po = g.po
        ext = d.detour | d.rfe
        self.req_fwbob = (
            g.ident(g.W_rel).compose(g.po_loc) | g.ident(g.F).compose(po)
        )
        self.req_ppo = ext.compose(d.ppo)
        self.req_acq = ext.seq(g.ident(g.R_acq), po)
        self.req_strong = g.ident(g.W_strong).compose(po)
        self.rf_src = {r: w for w, r in g.rf}
        self.rmw_write = {r: w for r, w in g.rmw}
        # Row e of each: the events that must be covered (po, sc, fwbob) or
        # issued (ppo, acq, strong) before e is, as a bitset. A side condition
        # then holds when the row has no bit outside the covered or issued mask.
        self._po_in = po.inverse().rows()
        self._sc_in = sc.inverse().rows() if g.F_sc else None  # read for SC fences only
        self._fwbob_in = self.req_fwbob.inverse().rows()
        self._iss_in = (self.req_ppo | self.req_acq | self.req_strong).inverse().rows()
        # read once: an execution's event sets are properties of its shape
        self._W, self._R, self._F, self._F_sc = g.W, g.R, g.F, g.F_sc

    # -- the two side conditions -------------------------------------------------

    def _coverable(self, cmask, imask, e):
        if self._po_in[e] & ~cmask:
            return False
        if e in self._W:
            return imask >> e & 1 == 1
        if e in self._R:
            src = self.rf_src.get(e)
            return src is not None and imask >> src & 1 == 1
        if e in self._F_sc:
            return not self._sc_in[e] & ~cmask
        return e in self._F

    def _issuable(self, cmask, imask, w):
        return w in self._W and not (
            self._fwbob_in[w] & ~cmask or self._iss_in[w] & ~imask
        )

    def coverable(self, covered, issued, e):
        return self._coverable(_bitmask(covered), _bitmask(issued), e)

    def issuable(self, covered, issued, w):
        return self._issuable(_bitmask(covered), _bitmask(issued), w)

    def coverable_set(self, tc):
        cmask, imask = _bitmask(tc.covered), _bitmask(tc.issued)
        return frozenset(e for e in range(self.g.n) if self._coverable(cmask, imask, e))

    def issuable_set(self, tc):
        cmask, imask = _bitmask(tc.covered), _bitmask(tc.issued)
        return frozenset(w for w in self._W if self._issuable(cmask, imask, w))

    # -- configurations -----------------------------------------------------------

    def initial_config(self):
        inits = self.g.init_events
        return TraversalConfig(frozenset(inits), frozenset(inits))

    def final_config(self):
        return TraversalConfig(frozenset(range(self.g.n)), frozenset(self.g.W))

    def check_config(self, tc):
        """Diagnostics for the traversal-configuration invariants."""
        g = self.g
        out = []
        if not g.init_events <= tc.covered:
            out.append("init events not covered")
        if not tc.covered & g.W <= tc.issued:
            out.append("covered write not issued")
        cmask, imask = _bitmask(tc.covered), _bitmask(tc.issued)
        for e in sorted(tc.covered):
            if not self._coverable(cmask, imask, e):
                out.append(f"covered event not coverable: {g.events[e]}")
        for w in sorted(tc.issued):
            if not self._issuable(cmask, imask, w):
                out.append(f"issued event not issuable: {g.events[w]}")
        if not tc.issued & g.W_rel <= tc.covered:
            out.append("issued release write not covered")
        if not g.rmw.restrict(tc.covered, range(g.n)).codom() <= tc.covered:
            out.append("rmw write of a covered read not covered")
        return out

    # -- full steps ------------------------------------------------------------------

    def enabled_steps(self, tc):
        g = self.g
        cmask, imask = _bitmask(tc.covered), _bitmask(tc.issued)
        steps = []
        for e in range(g.n):
            if cmask >> e & 1 or not self._coverable(cmask, imask, e):
                continue
            w = self.rmw_write.get(e)
            if w is None:
                steps.append(TravStep("cover", e))
            elif w in tc.issued or w in g.W_rel:
                steps.append(TravStep("rmw-cover", e, w))
        for w in sorted(g.W_rel - tc.covered):
            if not self._po_in[w] & ~cmask:
                steps.append(TravStep("release-cover", w))
        for w in sorted(self._W - tc.issued - g.W_rel):
            if self._issuable(cmask, imask, w):
                steps.append(TravStep("issue", w))
        return [(step, step.apply(tc)) for step in steps]

    # -- small steps and the next-step search ------------------------------------------

    def frontier(self, tc):
        """Per thread, the po-minimal uncovered event, if any."""
        out = {}
        for tid in self.g.tids():
            rest = sorted(self.g.thread_events(tid) - tc.covered)
            if rest:
                out[tid] = rest[0]
        return out

    def find_next(self, tc):
        """A small (cover or issue) step that must exist mid-traversal."""
        g = self.g
        cmask, imask = _bitmask(tc.covered), _bitmask(tc.issued)
        frontier = self.frontier(tc)
        for tid in sorted(frontier):
            if self._coverable(cmask, imask, frontier[tid]):
                return ("cover", frontier[tid])
        for tid in sorted(frontier):
            n = frontier[tid]
            if n in g.W:
                if not self._issuable(cmask, imask, n):
                    raise TraversalError(
                        f"frontier write {g.events[n]} is not issuable; "
                        "this cannot happen on a consistent graph"
                    )
                return ("issue", n)
        # the first pending write that no other pending write precedes in (ar ∪ sc)⁺
        pending = g.W - tc.issued
        ar_s = (self.d.ar_base | self.sc).plus() - Rel.identity(g.n)
        minimal = pending - ar_s.image(pending)
        if not minimal:
            raise TraversalError("no small step found")
        w = min(minimal)
        if not self._issuable(cmask, imask, w):
            raise TraversalError(
                f"ar-minimal write {g.events[w]} is not issuable; "
                "this cannot happen on a consistent graph"
            )
        return ("issue", w)

    def small_step(self, tc):
        kind, e = self.find_next(tc)
        if kind == "cover":
            return (kind, e), TraversalConfig(tc.covered | {e}, tc.issued)
        return (kind, e), TraversalConfig(tc.covered, tc.issued | {e})

    def lift_to_trav(self, tc, stc):
        """One full step realizing (or enabling) a small step."""
        kind, e = stc
        g = self.g
        if kind == "cover":
            w = self.rmw_write.get(e)
            if w is None:
                return TravStep("cover", e)
            if w in tc.issued or w in g.W_rel:
                return TravStep("rmw-cover", e, w)
            # no full step covers e yet, but its rmw write is issuable
            if not self.issuable(tc.covered, tc.issued, w):
                raise TraversalError(f"cannot lift cover of {g.events[e]}")
            return TravStep("issue", w)
        if e not in g.W_rel:
            return TravStep("issue", e)
        if g.po.preimage((e,)) <= tc.covered:
            return TravStep("release-cover", e)
        raise TraversalError(
            f"release write {g.events[e]} issued before its po-prefix is covered"
        )

    # -- a complete deterministic traversal ----------------------------------------------

    _KIND_RANK = {"cover": 0, "rmw-cover": 1, "release-cover": 2, "issue": 3}

    def traverse(self, start=None):
        """Deterministic step sequence from start (default: inits) to ⟨E, W⟩.

        Tie-break: cover > rmw-cover > release-cover > issue, then events of
        the thread that moved last, then smallest (tid, sn). The start and
        every configuration after it must pass check_config.
        """
        g = self.g
        tc = start if start is not None else self.initial_config()
        diags = self.check_config(tc)
        if diags:
            raise TraversalError(f"invalid start configuration: {diags}")
        steps = []
        last_tid = None
        final = self.final_config()
        while tc != final:
            enabled = self.enabled_steps(tc)
            if not enabled:
                raise TraversalError(f"stuck at {tc} (bug: graph should be traversable)")
            remaining = (g.n - len(tc.covered)) + (len(g.W) - len(tc.issued))

            def rank(item):
                step, _ = item
                ev = g.events[step.event]
                return (
                    self._KIND_RANK[step.kind],
                    0 if ev.tid == last_tid else 1,
                    ev.tid,
                    ev.sn,
                )

            step, tc2 = min(enabled, key=rank)
            diags = self.check_config(tc2)
            if diags:
                raise TraversalError(f"invalid configuration after {step}: {diags}")
            now = (g.n - len(tc2.covered)) + (len(g.W) - len(tc2.issued))
            if now >= remaining:
                raise TraversalError("no progress (bug)")
            steps.append(step)
            last_tid = g.events[step.event].tid
            tc = tc2
        return steps


def replay(g, steps):
    """Apply recorded steps from the initial config; returns the final config."""
    tc = TraversalConfig(g.init_events, g.init_events)
    for step in steps:
        tc = step.apply(tc)
    return tc
