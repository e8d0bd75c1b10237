"""Consistency models as axiom tables, decided by one evaluator.

A model is an ordered table of (axiom, kind, relation) rows, in the style of
herd7's cat language: kind is "acyclic", "irreflexive" or "empty", and
relation(g, rels) is the relation the axiom constrains, built from the graph
and a namespace of its derived relations (execgraph.Derived). The namespace
starts from the model's static table, built in full once per shape, and
computes each rf/co relation the first time a row reads it, so a model builds
only the rf/co relations its rows reach. `evaluate` checks rf-completeness and co-totality first, then
every row in order, and reports each violated axiom with a witness of its
kind's shape: a shortest cycle, the first reflexive event, or the offending
pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .relalg import Rel


@dataclass
class Verdict:
    model: str
    violations: list = field(default_factory=list)  # (axiom, witness)
    sc_witness: tuple | None = None  # chosen total order on SC fences, if any

    @property
    def consistent(self):
        return not self.violations

    def axioms(self):
        return [name for name, _ in self.violations]

    def __bool__(self):
        return self.consistent


# Each witness function returns None when the axiom holds.


def _cycle_witness(rel, g):
    cyc = rel.find_cycle()
    if cyc is None:
        return None
    return [str(g.events[i]) for i in cyc]


def _reflexive_witness(rel, g):
    if rel.is_irreflexive():
        return None
    for i in range(rel.n):
        if (i, i) in rel:
            return [str(g.events[i])]
    return None


def _pairs_witness(rel, g):
    return [(str(g.events[a]), str(g.events[b])) for a, b in rel] or None


_WITNESS = {
    "acyclic": _cycle_witness,
    "irreflexive": _reflexive_witness,
    "empty": _pairs_witness,
}


def evaluate(table, g, rels):
    """(axiom, witness) for rf-completeness, co-totality and each table row
    that g violates, in that order."""
    out = []
    missing = g.R - g.rf.codom()
    if missing:
        out.append(("rf-completeness", sorted(str(g.events[r]) for r in missing)))
    for loc in g.locations():
        if g.co_order(loc) is None:
            out.append(("co-totality", f"loc {loc}"))
    for axiom, kind, rel in table:
        witness = _WITNESS[kind](rel(g, rels), g)
        if witness is not None:
            out.append((axiom, witness))
    return out


def atomicity(g, rels):
    """rmw ∩ fre;coe, for any relation set with fre and coe."""
    return g.rmw & rels.fre.compose(rels.coe)


def _sc_fences(g, d):
    """[F^sc];hb_rc11;(eco;hb_rc11)?;[F^sc], composed from the fences' rows."""
    hb_fsc = g.ident(g.F_sc).compose(d.hb_rc11)
    return (hb_fsc | hb_fsc.seq(d.eco, d.hb_rc11)).compose(g.ident(g.F_sc))


IMM = (
    ("coherence", "irreflexive", lambda g, d: d.hb.compose(d.eco.opt())),
    ("atomicity", "empty", atomicity),
    ("no-thin-air", "acyclic", lambda g, d: d.ar),
)
# the s-model's SC-fence order is built by check_imms, outside the table
IMMS = (
    ("s-coherence", "irreflexive", lambda g, d: d.hb_rc11.compose(d.eco.opt())),
    ("s-atomicity", "empty", atomicity),
)
C11 = (
    ("coherence", "irreflexive", lambda g, d: d.hb_rc11.compose(d.eco.opt())),
    ("atomicity", "empty", atomicity),
    ("sc-fences", "acyclic", _sc_fences),
)
RC11 = C11 + (("po-rf-acyclicity", "acyclic", lambda g, d: g.po | g.rf),)


def check_imm(g):
    """rf-completeness, co-totality, coherence, atomicity, ar acyclicity."""
    return Verdict("imm", evaluate(IMM, g, g.derive()))


def check_c11(g):
    """The C11 fragment: RC11-style hb, SC-fence acyclicity condition."""
    return Verdict("c11", evaluate(C11, g, g.derive()))


def check_rc11(g):
    """C11 plus po ∪ rf acyclicity."""
    return Verdict("rc11", evaluate(RC11, g, g.derive()))


def _sc_fence_order(g, d):
    """([violations] or [], sc_witness) for the s-model's SC-fence order.

    Let X be ([F^sc];hb_rc11;(eco;hb_rc11)?;[F^sc] ∪ [F^sc];ar_base⁺;[F^sc])
    minus the identity. For a strict total order sc on the SC fences,
    condition 1 (irreflexive(sc;hb_rc11;(eco;hb_rc11)?)) holds exactly when
    sc ⊇ the first part of X, since sc;r is reflexive at a only through a
    fence b ≠ a with (a, b) ∈ sc and (b, a) ∈ r. Given an acyclic ar_base,
    acyclic(ar_base ∪ sc) holds exactly when sc ⊇ the second part: a cycle
    shortens to sc edges and ar_base⁺ paths between fences, and once sc holds
    those paths it is a cycle of sc alone. So an order g.sc that is total on
    the fences (wellformed keeps it inside them) is checked as X ⊆ sc, and
    each condition it breaks is reported with the pairs of its part of X
    that sc reverses. Without g.sc, a valid order exists iff ar_base and X
    are acyclic, and every linear extension of X is one. Taking the
    lowest-index fence whose X-predecessors are all placed builds the
    lexicographically least one, which is the first permutation of the
    sorted fences that satisfies both conditions. RC11 states SC fences the
    same way, as an acyclicity condition (Lahav et al., Repairing Sequential
    Consistency in C/C++11, PLDI 2017).
    """
    fsc = sorted(g.F_sc)
    if g.sc is not None and not g.sc.is_total_on(fsc):
        return [("sc-totality", f"{len(fsc)} SC fences")], None
    if not fsc:
        cycle = _cycle_witness(d.ar_base, g)
        return ([], ()) if cycle is None else ([("s-no-thin-air", cycle)], None)
    no_order = [("s-no-thin-air", "no total SC-fence order satisfies the axioms")], None
    ar_plus = d.ar_base.plus()
    if not ar_plus.is_irreflexive():
        return no_order
    coherence = _sc_fences(g, d) - Rel.identity(g.n)
    ar_fences = ar_plus.restrict(fsc, fsc)
    if g.sc is not None:
        out = [(axiom, w) for axiom, part in (("sc-coherence", coherence),
                                              ("s-no-thin-air", ar_fences))
               if (w := _pairs_witness(part - g.sc, g)) is not None]
        return out, None if out else tuple(g.sc)
    preds = (coherence | ar_fences).inverse().rows()
    order, placed = [], 0
    while len(order) < len(fsc):
        ready = next((f for f in fsc if not placed >> f & 1 and preds[f] & ~placed == 0),
                     None)
        if ready is None:  # X has a cycle
            return no_order
        order.append(ready)
        placed |= 1 << ready
    sc = Rel(g.n, ((a, b) for i, a in enumerate(order) for b in order[i + 1:]))
    return [], tuple(sc)


def check_imms(g):
    """The s-model: RC11-style hb, SC fences as an explicit total order.

    `_sc_fence_order` checks g.sc when the graph gives one, and otherwise
    constructs the order from the graph's relations; the verdict records the
    order as its sc_witness.
    """
    d = g.derive()
    sc_violations, sc_witness = _sc_fence_order(g, d)
    return Verdict("imms", evaluate(IMMS, g, d) + sc_violations, sc_witness=sc_witness)


def sc_witness_rel(g, verdict):
    if verdict.sc_witness is None:
        return None
    return Rel(g.n, verdict.sc_witness)


def checker_for(model):
    from . import hwmodels  # local import: hwmodels composes map + check

    table = {
        "imm": check_imm,
        "imms": check_imms,
        "c11": check_c11,
        "rc11": check_rc11,
        "power": hwmodels.check_imm_via_power,
        "arm": hwmodels.check_imm_via_arm,
    }
    if model not in table:
        raise ValueError(f"unknown model {model!r}")
    return table[model]

MODELS = ("imm", "imms", "c11", "rc11", "power", "arm")
