"""Every clause of the graph checkers reports on a graph tampered to break it
alone: Execution.wellformed, the rf-completeness and co-totality checks of
consistency.evaluate, hwmodels.correspondence_check and
certification.check_cert_compl. Each case takes one well-formed graph, makes
the smallest change that breaks one clause, and asserts that the checker
reports exactly that clause; the untampered graph gets no report."""

from dataclasses import replace

import pytest

from immlab.certification import build_cert_graph, check_cert_compl
from immlab.consistency import IMM, evaluate
from immlab.enumeration import candidate_executions
from immlab.execgraph import Execution, Fence
from immlab.hwmodels import correspondence_check, to_arm
from immlab.program import parse_litmus
from immlab.relalg import Rel, remapping_onto
from immlab.traversal import Traversal, TraversalConfig


def rebuilt(g, **changes):
    """g with the fields in changes replaced."""
    fields = dict(events=g.events, labels=g.labels, rmw=g.rmw, data=g.data, addr=g.addr,
                  ctrl=g.ctrl, casdep=g.casdep, rf=g.rf, co=g.co, sc=g.sc, model=g.model)
    return Execution(**(fields | changes))


def pick(src, want):
    """The first candidate of src, with its index of event names, that want
    accepts."""
    for c in candidate_executions(parse_litmus(src).program):
        g = c.execution
        ix = {str(e): i for i, e in enumerate(g.events)}
        if want(g, ix):
            return g, ix
    raise AssertionError("no such candidate")


def edges(g, *pairs):
    return Rel(g.n, pairs)


def relabel(g, i, **fields):
    return tuple(lab._replace(**fields) if k == i else lab for k, lab in enumerate(g.labels))


# -- Execution.wellformed and consistency.evaluate ------------------------------------

WF = """
prog "WF"
locations x y
vals 0..1
thread 0:
  r[rlx] a x
  cas[rlx,rlx] b y a 1
  f[sc]
  w[rlx] x 1
thread 1:
  w[rlx] y 1
  f[sc]
  w[rlx] x 1
"""


@pytest.fixture(scope="module")
def wf_graph():
    # (0,0) reads 1 from (1,2), which co orders before (0,3), and the graph
    # is IMM-consistent
    def want(g, ix):
        return ((ix["(1,2)"], ix["(0,0)"]) in g.rf and (ix["(1,2)"], ix["(0,3)"]) in g.co
                and not evaluate(IMM, g, g.derive()))

    return pick(WF, want)


def _last_y_write(g, ix):
    return next(w for w in g.writes_to(g.labels[ix["(1,0)"]].loc) if not g.co.image((w,)))


def _arm_with_casdep(g, ix):
    """g's ARM image, which inserts no event, with g's CAS dependency."""
    a = to_arm(g)
    return rebuilt(a, casdep=edges(a, (ix["(0,0)"], ix["(0,1)"])))


WELLFORMED_CASES = {
    "mode": (lambda g, ix: rebuilt(g, labels=relabel(g, ix["(0,0)"], mode="rel")),
             "read mode: "),
    "rmw-shape": (lambda g, ix: rebuilt(g, rmw=g.rmw | edges(g, (ix["(0,0)"], ix["(0,3)"]))),
                  "rmw shape: "),
    "rmw-location": (lambda g, ix: rebuilt(g, rmw=g.rmw | edges(g, (ix["(0,1)"], ix["(0,3)"]))),
                     "rmw location: "),
    "rmw-immediate": (lambda g, ix: rebuilt(g, rmw=g.rmw | edges(g, (ix["(0,1)"], ix["init(1)"]))),
                      "rmw not imm(po): "),
    "strong-write": (lambda g, ix: rebuilt(g, labels=relabel(g, ix["(0,3)"], rmw_mode="strong")),
                     "strong write outside codom(rmw): "),
    "data-shape": (lambda g, ix: rebuilt(g, data=g.data | edges(g, (ix["(0,3)"], ix["(1,0)"]))),
                   "data shape: "),
    "casdep-outside-imm": (_arm_with_casdep, "casdep present in arm execution"),
    "rf-shape": (lambda g, ix: rebuilt(g, rf=g.rf | edges(g, (ix["(0,3)"], ix["(1,0)"]))),
                 "rf shape: "),
    "rf-location": (lambda g, ix: rebuilt(g, rf=g.rf - edges(g, (ix["(1,2)"], ix["(0,0)"]))
                                          | edges(g, (ix["(1,0)"], ix["(0,0)"]))),
                    "rf loc: "),
    "rf-functional": (lambda g, ix: rebuilt(g, rf=g.rf | edges(g, (ix["(0,3)"], ix["(0,0)"]))),
                      "rf functional: "),
    "co-location": (lambda g, ix: rebuilt(g, co=g.co | edges(g, (ix["init(0)"],
                                                                  _last_y_write(g, ix)))),
                    "co loc: "),
    "co-order": (lambda g, ix: rebuilt(g, co=g.co | edges(g, (ix["(0,3)"], ix["(1,2)"]))),
                 "co order: not a strict partial order"),
    "sc-shape": (lambda g, ix: rebuilt(g, sc=edges(g, (ix["(0,2)"], ix["(0,3)"]))),
                 "sc shape: outside F^sc × F^sc"),
}


def test_the_untampered_graphs_are_well_formed(wf_graph):
    g, _ = wf_graph
    assert g.wellformed() == [] and to_arm(g).wellformed() == []


@pytest.mark.parametrize("case", WELLFORMED_CASES)
def test_each_wellformed_clause_reports_alone(wf_graph, case):
    tamper, diagnostic = WELLFORMED_CASES[case]
    (got,) = tamper(*wf_graph).wellformed()
    assert got.startswith(diagnostic)


EVALUATE_CASES = {
    "rf-completeness": (lambda g, ix: rebuilt(g, rf=g.rf - edges(g, (ix["(1,2)"], ix["(0,0)"]))),
                        ("rf-completeness", ["(0,0)"])),
    "co-totality": (lambda g, ix: rebuilt(g, co=g.co - edges(g, (ix["(1,2)"], ix["(0,3)"]))),
                    ("co-totality", "loc 0")),
}


@pytest.mark.parametrize("case", EVALUATE_CASES)
def test_each_completeness_check_reports_alone(wf_graph, case):
    tamper, violation = EVALUATE_CASES[case]
    g = tamper(*wf_graph)
    assert evaluate(IMM, g, g.derive()) == [violation]


# -- hwmodels.correspondence_check ----------------------------------------------------

# a strong fadd gets a dmb.ld after its write, (0,0) controls every later
# event, and the exclusive read every event after the write
MAPPED = """
prog "MAPPED"
locations x y
vals 0..1
thread 0:
  r[rlx] a x
  if a = 2 goto 0
  fadd[rlx,rlx,strong] b y 1
  w[rlx] x 1
thread 1:
  w[rlx] x 1
"""


def _without(t, name):
    """t without the event named name."""
    keep = [i for i, e in enumerate(t.events) if str(e) != name]
    m = remapping_onto(keep, t.n)
    return Execution([t.events[i] for i in keep], [t.labels[i] for i in keep],
                     rmw=m(t.rmw), data=m(t.data), addr=m(t.addr), ctrl=m(t.ctrl),
                     rf=m(t.rf), co=m(t.co), model=t.model)


def _tix(t):
    return {str(e): i for i, e in enumerate(t.events)}


CORRESPONDENCE_CASES = {
    "event-set": (lambda t, tx: _without(t, "(0,2.5)"), "event set mismatch"),
    "inserted-fence": (lambda t, tx: rebuilt(t, labels=tuple(
        Fence("sy") if k == tx["(0,2.5)"] else lab for k, lab in enumerate(t.labels))),
        "inserted event (0,2.5) is not an f[ld]"),
    "source-ctrl": (lambda t, tx: rebuilt(t, ctrl=t.ctrl - edges(t, (tx["(0,0)"], tx["(0,3)"]))),
                    "source ctrl dropped"),
    "ctrl-obligation": (lambda t, tx: rebuilt(t, ctrl=t.ctrl - edges(t, (tx["(0,1)"],
                                                                        tx["(0,3)"]))),
                        "exclusive-read ctrl missing: ((0,1),(0,3))"),
}


@pytest.fixture(scope="module")
def mapped():
    g, _ = pick(MAPPED, lambda g, ix: g.labels[ix["(0,0)"]].val == 1)
    t = to_arm(g)
    assert correspondence_check(g, t) == []
    return g, t


@pytest.mark.parametrize("case", CORRESPONDENCE_CASES)
def test_each_correspondence_clause_reports_alone(mapped, case):
    g, t = mapped
    tamper, diagnostic = CORRESPONDENCE_CASES[case]
    assert correspondence_check(g, tamper(t, _tix(t))) == [diagnostic]


# -- certification.check_cert_compl ---------------------------------------------------

CERT = """
prog "CERT-CLAUSES"
locations x y z
vals 0..3
thread 0:
  r[rlx] r1 x
  w[rlx] y r1
  w[rlx] x 2
  w[rlx] y 1
thread 1:
  w[rlx] x 1
  r[rlx] r2 y
  r[rlx] r3 x
  fadd[rlx,rlx] r4 z r2
  w[rlx] x 3
"""


@pytest.fixture(scope="module")
def cert():
    """Thread 1's certification graph with (1,0) covered and (0,1), (0,2),
    (0,3) and (1,4) issued: (0,0) is dropped, (1,2) kept but not determined."""
    def want(g, ix):
        return ((ix["(1,0)"], ix["(0,0)"]) in g.rf and (ix["(0,1)"], ix["(1,1)"]) in g.rf
                and (ix["(0,2)"], ix["(1,2)"]) in g.rf and (ix["(1,0)"], ix["(0,2)"]) in g.co
                and not evaluate(IMM, g, g.derive()))

    g, ix = pick(CERT, want)
    inits = frozenset(g.init_events)
    tc = TraversalConfig(inits | {ix["(1,0)"]},
                         inits | {ix[e] for e in ("(1,0)", "(0,1)", "(0,2)", "(0,3)", "(1,4)")})
    assert Traversal(g).check_config(tc) == []
    sprog = parse_litmus(CERT).program.threads[1]
    cg = build_cert_graph(g, tc, 1, sprog=sprog)
    assert ix["(0,0)"] not in cg.keep and ix["(1,2)"] not in cg.determined
    assert check_cert_compl(g, tc, cg, sprog=sprog) == []
    return g, ix, tc, cg, sprog


def _graph(cg, **changes):
    return replace(cg, graph=rebuilt(cg.graph, **changes))


def _cert_cases(g, ix, cg, sprog):
    """case -> (the tampered certification graph, the program re-run, the
    one diagnostic)."""
    gp = cg.graph
    lx = _tix(gp)

    def e(*names):
        return edges(gp, tuple(lx[nm] for nm in names))

    return {
        "determined-dropped": (replace(cg, determined=cg.determined | {ix["(0,0)"]}), sprog,
                               "determined events dropped"),
        "determined-label": (_graph(cg, labels=relabel(gp, lx["(0,2)"], val=3)), sprog,
                             "label changed on determined (0,2)"),
        "ctrl": (_graph(cg, ctrl=e("(1,1)", "(1,4)")), sprog,
                 "ctrl is not the source restriction"),
        "data": (_graph(cg, data=gp.data | e("(1,2)", "(1,4)")), sprog,
                 "data;[D] differs from the source"),
        "co": (_graph(cg, co=gp.co - e("(1,0)", "(0,2)") | e("(0,2)", "(1,0)")), sprog,
               "co changed on determined issued writes"),
        "rf": (_graph(cg, rf=gp.rf - e("(0,1)", "(1,1)") | e("(0,3)", "(1,1)")), sprog,
               "rf changed on determined reads"),
        "rmw": (_graph(cg, rmw=Rel(gp.n)), sprog, "rmw is not rmw;[D]"),
        "re-execution": (cg, sprog[1:], "thread 1 does not re-execute: "),
        "other-thread": (replace(cg, determined=cg.determined - {ix["(0,1)"]}), sprog,
                         "other-thread event (0,1) is not determined"),
    }


CERT_CASES = ("determined-dropped", "determined-label", "ctrl", "data", "co", "rf", "rmw",
              "re-execution", "other-thread")


@pytest.mark.parametrize("case", CERT_CASES)
def test_each_certification_clause_reports_alone(cert, case):
    g, ix, tc, cg, sprog = cert
    cases = _cert_cases(g, ix, cg, sprog)
    assert tuple(cases) == CERT_CASES
    tampered, program, diagnostic = cases[case]
    (got,) = check_cert_compl(g, tc, tampered, sprog=program)
    assert got.startswith(diagnostic)
