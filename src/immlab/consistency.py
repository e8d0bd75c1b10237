"""Consistency models as axiom tables, decided by one evaluator.

A model is an ordered table of (axiom, kind, relation) rows, in the style of
herd7's cat language: kind is "acyclic", "irreflexive" or "empty", and
relation(g, rels) is the relation the axiom constrains, built from the graph
and the relations derived from it once per graph. `evaluate` checks
rf-completeness and co-totality first, then every row in order, and reports
each violated axiom with a witness of its kind's shape: a shortest cycle, the
first reflexive event, or the offending pairs.
"""

from __future__ import annotations

import itertools
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
    for i in range(rel.n):
        if (i, i) in rel.pairs:
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
        if not g.co.is_total_on(g.writes_to(loc)):
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
    id_fsc = g.ident(g.F_sc)
    return id_fsc.seq(d.hb_rc11 | d.hb_rc11.seq(d.eco, d.hb_rc11), id_fsc)


IMM = (
    ("coherence", "irreflexive", lambda g, d: d.hb.compose(d.eco.opt())),
    ("atomicity", "empty", atomicity),
    ("no-thin-air", "acyclic", lambda g, d: d.ar),
)
# the s-model's SC-fence order is sought by check_imms, outside the table
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


def _imms_sc_axioms(g, d, sc):
    """Both SC-order conditions of the s-model, for a fixed total order sc."""
    cond1 = sc.seq(d.hb_rc11, (d.eco.compose(d.hb_rc11)).opt())
    if not cond1.is_irreflexive():
        return False
    return (d.ar_base | sc).is_acyclic()


def _sc_fence_order(g, d):
    """([violation] or [], sc_witness) for the s-model's SC-fence order."""
    fsc = sorted(g.F_sc)
    if g.sc is not None:
        if not g.sc.is_total_on(fsc):
            return [("sc-totality", f"{len(fsc)} SC fences")], None
        if not _imms_sc_axioms(g, d, g.sc):
            return [("s-no-thin-air", _cycle_witness(d.ar_base | g.sc, g))], None
        return [], tuple(sorted(g.sc.pairs))
    if not fsc:
        cycle = _cycle_witness(d.ar_base, g)
        return ([], ()) if cycle is None else ([("s-no-thin-air", cycle)], None)
    for perm in itertools.permutations(fsc):
        sc = Rel(g.n, ((perm[i], perm[j])
                       for i in range(len(perm))
                       for j in range(i + 1, len(perm))))
        if _imms_sc_axioms(g, d, sc):
            return [], tuple(sorted(sc.pairs))
    return [("s-no-thin-air", "no total SC-fence order satisfies the axioms")], None


def check_imms(g):
    """The s-model: RC11-style hb, SC fences as an explicit total order.

    With g.sc absent the order is sought existentially over permutations of
    the SC fences (the witness is recorded on the verdict).
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
