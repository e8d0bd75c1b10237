"""Traversal configurations and the traversal strategy.

A configuration is a pair of event sets (covered, issued). Steps follow the
four-rule system (issue / cover / release-cover / rmw-cover); the small-step
variant and the next-step search back the existence argument. Fences and SC
order participate through the full issuable/coverable conditions; a fragment
flag restricts both to their relaxed versions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .relalg import Rel


class TraversalError(RuntimeError):
    pass


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

    def events_covered(self):
        if self.kind == "cover":
            return (self.event,)
        if self.kind == "release-cover":
            return (self.event,)
        if self.kind == "rmw-cover":
            return (self.event, self.partner)
        return ()

    def to_json(self, g):
        doc = {"kind": self.kind, "event": str(g.events[self.event])}
        if self.partner is not None:
            doc["write"] = str(g.events[self.partner])
        return doc


class Traversal:
    """Per-graph state for issuable/coverable queries with a fixed sc order."""

    def __init__(self, g, sc=None, fragment="full"):
        self.g = g
        self.fragment = fragment
        d = g.derive()
        self.d = d
        if sc is None:
            sc = Rel(g.n)
        self.sc = sc
        if fragment == "full" and g.F_sc and not sc.is_total_on(g.F_sc):
            raise TraversalError("SC fences present but no total sc order supplied")
        po = d.po
        ext = d.detour | d.rfe
        self.req_fwbob = (
            g.ident(g.W_rel).compose(g.po_loc) | g.ident(g.F).compose(po)
        )
        self.req_ppo = ext.compose(d.ppo)
        self.req_acq = ext.seq(g.ident(g.R_acq), po)
        self.req_strong = g.ident(g.W_strong).compose(po)
        self.rf_src = {r: w for w, r in g.rf.pairs}
        self.rmw_write = {r: w for r, w in g.rmw.pairs}
        self.ar_s_plus = (d.ar_base | sc).plus()

    # -- the two side conditions -------------------------------------------------

    def coverable(self, covered, issued, e):
        g = self.g
        if not self.g.po.preimage((e,)) <= covered:
            return False
        if e in g.W:
            return e in issued
        if e in g.R:
            src = self.rf_src.get(e)
            return src is not None and src in issued
        if e in g.F:
            if self.fragment == "relaxed":
                return False
            if g.labels[e].mode != "sc":
                return True
            return self.sc.preimage((e,)) <= covered
        return False

    def issuable(self, covered, issued, w):
        g = self.g
        if w not in g.W:
            return False
        if self.fragment == "relaxed":
            return self.d.rfe.compose(self.d.ppo).preimage((w,)) <= issued
        return (
            self.req_fwbob.preimage((w,)) <= covered
            and self.req_ppo.preimage((w,)) <= issued
            and self.req_acq.preimage((w,)) <= issued
            and self.req_strong.preimage((w,)) <= issued
        )

    def coverable_set(self, tc):
        return frozenset(
            e for e in range(self.g.n) if self.coverable(tc.covered, tc.issued, e)
        )

    def issuable_set(self, tc):
        return frozenset(w for w in self.g.W if self.issuable(tc.covered, tc.issued, w))

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
        for e in sorted(tc.covered):
            if not self.coverable(tc.covered, tc.issued, e):
                out.append(f"covered event not coverable: {g.events[e]}")
        for w in sorted(tc.issued):
            if not self.issuable(tc.covered, tc.issued, w):
                out.append(f"issued event not issuable: {g.events[w]}")
        if not tc.issued & g.W_rel <= tc.covered:
            out.append("issued release write not covered")
        if not g.rmw.restrict(tc.covered, range(g.n)).codom() <= tc.covered:
            out.append("rmw write of a covered read not covered")
        return out

    # -- full steps ------------------------------------------------------------------

    def enabled_steps(self, tc):
        g = self.g
        steps = []
        for e in sorted(self.coverable_set(tc) - tc.covered):
            w = self.rmw_write.get(e)
            if w is None:
                steps.append((TravStep("cover", e),
                              TraversalConfig(tc.covered | {e}, tc.issued)))
            elif w in tc.issued:
                steps.append((TravStep("rmw-cover", e, w),
                              TraversalConfig(tc.covered | {e, w}, tc.issued)))
            elif w in g.W_rel:
                steps.append((TravStep("rmw-cover", e, w),
                              TraversalConfig(tc.covered | {e, w}, tc.issued | {w})))
        for w in sorted(g.W_rel - tc.covered):
            if g.po.preimage((w,)) <= tc.covered:
                steps.append((TravStep("release-cover", w),
                              TraversalConfig(tc.covered | {w}, tc.issued | {w})))
        for w in sorted(self.issuable_set(tc) - tc.issued - g.W_rel):
            steps.append((TravStep("issue", w), TraversalConfig(tc.covered, tc.issued | {w})))
        return steps

    def trav_step(self, tc):
        return self.enabled_steps(tc)

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
        frontier = self.frontier(tc)
        for tid in sorted(frontier):
            if self.coverable(tc.covered, tc.issued, frontier[tid]):
                return ("cover", frontier[tid])
        for tid in sorted(frontier):
            n = frontier[tid]
            if n in g.W:
                if not self.issuable(tc.covered, tc.issued, n):
                    raise TraversalError(
                        f"frontier write {g.events[n]} is not issuable; "
                        "this cannot happen on a consistent graph"
                    )
                return ("issue", n)
        pending = sorted(g.W - tc.issued)
        for w in pending:
            if not any((w2, w) in self.ar_s_plus.pairs for w2 in pending if w2 != w):
                if not self.issuable(tc.covered, tc.issued, w):
                    raise TraversalError(
                        f"ar-minimal write {g.events[w]} is not issuable; "
                        "this cannot happen on a consistent graph"
                    )
                return ("issue", w)
        raise TraversalError("no small step found")

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

    def traverse(self, start=None, check_configs=True):
        """Deterministic step sequence from start (default: inits) to ⟨E, W⟩.

        Tie-break: cover > rmw-cover > release-cover > issue, then events of
        the thread that moved last, then smallest (tid, sn).
        """
        g = self.g
        tc = start if start is not None else self.initial_config()
        if check_configs:
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
            if check_configs:
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
        covered = set(tc.covered)
        issued = set(tc.issued)
        if step.kind == "cover":
            covered.add(step.event)
        elif step.kind == "issue":
            issued.add(step.event)
        elif step.kind == "release-cover":
            covered.add(step.event)
            issued.add(step.event)
        elif step.kind == "rmw-cover":
            covered.add(step.event)
            covered.add(step.partner)
            issued.add(step.partner)
        tc = TraversalConfig(frozenset(covered), frozenset(issued))
    return tc


def traverse_to_completion(g, sc=None, start=None):
    return Traversal(g, sc=sc).traverse(start=start)
