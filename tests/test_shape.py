"""Shapes: every completion of one shape shares its value-free structure,
its static relations and its mapping layouts. Sharing must change nothing:
each candidate is compared with an unshared copy of itself, rebuilt from
its JSON, on every static entry, every hardware image and every verdict."""

import gc
import json
import random
import weakref
from collections import Counter

import pytest

from immlab import consistency, execgraph, hwmodels
from immlab.cli import main
from immlab.enumeration import EnumerationReport, candidate_executions
from immlab.execgraph import IMM_STATIC, Execution, Shape, Slot, static_relations
from immlab.fuzz import FuzzConfig, random_program
from immlab.program import parse_litmus
from immlab.traversal import Traversal

from conftest import CORPUS_DIR
from oracles import pair_built_candidates
from test_enumeration import CHECKERS, FUZZ_CAP, FUZZ_PROGRAMS, FUZZ_SEEDS

# the static tables of a source graph, its POWER image and its ARM image
STATIC = (IMM_STATIC, hwmodels.POWER_STATIC, hwmodels.ARM_STATIC)


def images(g):
    split = hwmodels.split_release(g)
    return split, hwmodels.to_power(split), hwmodels.to_arm(g)


# thread 0's runs differ in ctrl (whether `if c` runs) and data (whether
# `b := a` runs) with equal events and labels
VALUE_DEPS = """
prog "VALUE-DEPS"
locations x y z
vals 0..1
thread 0:
  r[rlx] a x
  r[rlx] c y
  if a != 0 goto 5
  if c goto 5
  b := a
  w[rlx] z 1
  w[rlx] y b
thread 1:
  w[rlx] x 1
  w[rlx] y 1
"""


@pytest.fixture(scope="module")
def programs(corpus):
    """Every corpus test, VALUE_DEPS and every seeded fuzz program with at
    most FUZZ_CAP candidates."""
    out = [(name, test.program) for name, test in corpus.items()]
    out.append(("value-deps", parse_litmus(VALUE_DEPS).program))
    for seed in FUZZ_SEEDS:
        rng = random.Random(seed)
        for i in range(FUZZ_PROGRAMS):
            program = random_program(rng, FuzzConfig())
            report = EnumerationReport()
            for _ in candidate_executions(program, max_candidates=FUZZ_CAP, report=report):
                pass
            if report.complete:
                out.append((f"fuzz-{seed}-{i}", program))
    return out


@pytest.mark.parametrize("coherent", (False, True))
def test_shared_candidates_equal_unshared_copies(programs, coherent):
    compared = 0
    for name, program in programs:
        for cand in candidate_executions(program, coherent=coherent):
            g = cand.execution
            alone = Execution.from_json(g.to_json())
            assert alone.shape is not g.shape
            shared_images, alone_images = images(g), images(alone)
            assert ([h.to_json() for h in shared_images]
                    == [h.to_json() for h in alone_images]), name
            graphs = (g, shared_images[1], shared_images[2])
            unshared = (alone, alone_images[1], alone_images[2])
            for table, h, h_alone in zip(STATIC, graphs, unshared):
                assert (static_relations(h.shape, table)
                        == static_relations(h_alone.shape, table)), name
            for checker, check in CHECKERS.items():
                assert check(g) == check(alone), (name, checker)
            compared += 1
    assert compared >= (1000 if not coherent else 300)


def test_shared_stream_equals_pair_built_candidates(programs):
    # a shape shared by runs whose events or dependencies differ would
    # build wrong graphs, which their unshared copies repeat
    for name, program in programs:
        built = [(g.to_json(), regs) for g, regs in pair_built_candidates(program)]
        made = [(c.execution.to_json(), c.final_regs)
                for c in candidate_executions(program)]
        assert made == built, name


def test_candidates_of_one_shape_share_it(corpus):
    cands = list(candidate_executions(corpus["coh"].program))
    assert len(cands) > 1 and all(c.execution.shape is cands[0].execution.shape
                                  for c in cands)
    first, last = cands[0].execution, cands[-1].execution
    assert hwmodels.to_arm(first).shape is hwmodels.to_arm(last).shape
    assert hwmodels.to_arm(first).to_json() != hwmodels.to_arm(last).to_json()
    # their static relations are one object each, their stores their own
    assert first.derive().deps is last.derive().deps
    assert vars(first.derive()) is not vars(last.derive())
    power = [hwmodels.power_ppo_fixpoint(hwmodels.to_power(hwmodels.split_release(g)))
             for g in (first, last)]
    assert power[0].sync is power[1].sync and power[0].R_W is power[1].R_W
    arm = [hwmodels.arm_relations(hwmodels.to_arm(g)) for g in (first, last)]
    assert arm[0].bob_static is arm[1].bob_static


@pytest.mark.parametrize("image", (lambda g: g, hwmodels.to_arm), ids=("enumerated", "arm"))
def test_executions_hold_their_shapes_views(corpus, image):
    # each execution holds its shape's view objects and its own labels; an
    # attribute set on one execution stays its own
    views = ("R", "po_loc", "writes_by_loc", "F_sc")
    shared = 0
    for name, test in corpus.items():
        graphs = [image(c.execution) for c in candidate_executions(test.program)]
        for g in graphs:
            shape = g.shape
            assert type(shape) is not Execution
            for view in views:
                assert getattr(g, view) is getattr(shape, view), (name, view)
            assert all(isinstance(slot, Slot) for slot in shape.labels), name
            assert not any(isinstance(lab, Slot) for lab in g.labels), name
            assert tuple(lab.slot for lab in g.labels) == shape.labels, name
        first = graphs[0]
        shape = first.shape
        others = [g for g in graphs[1:] if g.shape is shape]
        kept = {view: getattr(shape, view) for view in views}
        for view in views:
            setattr(first, view, None)
        for h in [shape] + others:
            assert all(getattr(h, view) is kept[view] for view in views), name
        shared += bool(others)
    assert shared == len(corpus) - 1  # casdep has a single candidate


def test_static_entry_reading_rf_raises(corpus):
    # a static table is evaluated whole, on the shape, whatever is read later
    shape = next(candidate_executions(corpus["mp"].program)).execution.shape
    with pytest.raises(AttributeError, match="rf"):
        static_relations(shape, {"bad": lambda g, r: g.rf & g.po})
    with pytest.raises(AttributeError, match="val"):
        static_relations(shape, {"bad": lambda g, r: g.labels[1].val})
    # an entry reads only the entries above it
    with pytest.raises(AttributeError, match="later"):
        static_relations(shape, {"bad": lambda g, r: r.later, "later": lambda g, r: g.po})


def test_static_tables_evaluated_once_per_shape(corpus, monkeypatch):
    calls = Counter()  # (table, entry, shape) -> evaluations

    def counted(table_name, table):
        def count(name, define):
            def counted_define(g, r):
                calls[table_name, name, g] += 1
                return define(g, r)
            return counted_define
        return {name: count(name, define) for name, define in table.items()}

    tables = ((execgraph, "IMM_STATIC"), (hwmodels, "POWER_STATIC"), (hwmodels, "ARM_STATIC"))
    for module, table_name in tables:
        monkeypatch.setattr(module, table_name, counted(table_name, getattr(module, table_name)))
    for test in corpus.values():
        for cand in candidate_executions(test.program):
            for model in consistency.MODELS:
                consistency.checker_for(model)(cand.execution)
    assert set(calls.values()) == {1}
    for module, table_name in tables:
        shapes = {g for t, _, g in calls if t == table_name}
        assert len(shapes) >= len(corpus) and all(type(g) is Shape for g in shapes)
        assert {(name, g) for t, name, g in calls if t == table_name} \
            == {(name, g) for name in getattr(module, table_name) for g in shapes}


def _check_and_traverse(program, refs):
    for cand in candidate_executions(program):
        g = cand.execution
        verdicts = {model: consistency.checker_for(model)(g) for model in consistency.MODELS}
        if verdicts["imms"] and not g.F_sc:
            Traversal(g).traverse()
        refs += [weakref.ref(g), weakref.ref(g.shape)]


def test_checked_graphs_need_no_cyclic_collector(corpus):
    # a store holds relations only, so a checked graph, its shape and their
    # memos are freed by reference counting once the graph is dropped
    refs = []
    gc.disable()
    try:
        for test in corpus.values():
            _check_and_traverse(test.program, refs)
        alive = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert len(refs) == 2 * 247 and alive == 0


def test_shapes_counted_per_stream(corpus):
    # lb-addr's second read takes its location from the first read's value
    for name, test in corpus.items():
        report = EnumerationReport()
        list(candidate_executions(test.program, report=report))
        assert report.shapes == (2 if name == "lb-addr" else 1), name


def test_dependencies_split_shapes():
    report = EnumerationReport()
    list(candidate_executions(parse_litmus(VALUE_DEPS).program, report=report))
    assert report.shapes == 3


def test_iriw_combinations_share_one_shape():
    readers = "".join(f"thread {t}:\n  r[rlx] a{t} x\n  r[rlx] b{t} y\n" for t in (2, 3))
    test = parse_litmus('prog "IRIW"\nlocations x y\nvals 0..1\n'
                        "thread 0:\n  w[rlx] x 1\nthread 1:\n  w[rlx] y 1\n" + readers)
    report = EnumerationReport()
    cands = list(candidate_executions(test.program, report=report, coherent=True))
    assert len(cands) == 16 and report.shapes == 1


def test_shapes_in_json(capsys):
    assert main(["run", str(CORPUS_DIR), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for entry in doc["tests"]:
        for model, verdict in entry["models"].items():
            want = 2 if entry["test"] == "LB+addr" else 1
            assert verdict["shapes"] == want, (entry["test"], model)
    assert main(["check", str(CORPUS_DIR / "lb-addr.litmus"), "--model", "imm",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["shapes"] == 2
