"""The rf tables of a write-value class: both candidate streams, capped at
every truncation point, against oracles.pair_built_candidates on programs
whose class changes between consecutive thread combinations, and a bound on
the memory the tables keep."""

import itertools
import math
import tracemalloc

import pytest

from immlab.enumeration import EnumerationReport, SearchSpace, candidate_executions
from immlab.program import parse_litmus

from oracles import pair_built_candidates

PROGRAMS = {
    # thread 2 writes to y the value it reads from x; thread 1's two writes
    # to x are a po-consecutive pair with no read between them; thread 0
    # reads x only after it reads 0 from y, so its runs have two shapes
    "data-dependent write": """prog "DATA"
locations x y
vals 0..2
thread 0:
  r[rlx] b y
  if b != 0 goto 3
  r[rlx] d x
thread 1:
  w[rlx] x 1
  w[rlx] x 2
thread 2:
  r[rlx] a x
  w[rlx] y a
""",
    # thread 3 writes to x the value it reads from y: 1 as thread 0 does, or
    # 0 as the init write does, so thread 1's reads have two writers each
    "two same-value writers": """prog "TWO"
locations x y
vals 0..1
thread 0:
  w[rlx] x 1
thread 1:
  r[rlx] a x
  r[rlx] b x
thread 2:
  w[rlx] y 1
thread 3:
  r[rlx] c y
  w[rlx] x c
""",
    # thread 1 writes to x the value it reads from y, so each of thread 3's
    # reads of x has two writers, thread 1's and thread 0's or the init
    # write's: eight options for a run whose reads all take that value,
    # more than the six entries of its reads' lists of writers
    "more options than writers": """prog "MANY"
locations x y
vals 0..1
thread 0:
  w[rlx] x 1
thread 1:
  r[rlx] d y
  w[rlx] x d
thread 2:
  w[rlx] y 1
thread 3:
  r[rlx] a x
  r[rlx] b x
  r[rlx] c x
""",
    # each fetch-add writes one more than it reads
    "rmw": """prog "RMW"
locations x
vals 0..2
thread 0:
  r[rlx] c x
thread 1:
  fadd[rlx,rlx] a x 1
thread 2:
  fadd[rlx,rlx] b x 1
""",
}


def wanted_at(i):
    """The coherent stream's wanted predicate by position: it refuses every
    third completion reached, from the second on."""
    return i % 3 != 1


def reference(program, coherent):
    """Per candidate of pair_built_candidates: its graph as JSON, final
    registers, final memory (each location's co-last value), shape, and the
    count that report.pruned has reached when it is made, which counts its
    own rf choice too; then the drained report."""
    report = EnumerationReport()
    built = pair_built_candidates(program, coherent=coherent, report=report)
    out = []
    for g, regs in built:
        final = {lab.loc: lab.val for w, lab in enumerate(g.labels)
                 if lab.kind == "w" and not any(a == w for a, _ in g.co.pairs)}
        shape = (g.events, tuple(lab.slot for lab in g.labels),
                 *(getattr(g, name).pairs for name in ("rmw", "data", "addr", "ctrl", "casdep")))
        writes = [lab.loc for e, lab in zip(g.events, g.labels)
                  if lab.kind == "w" and not e.is_init]
        orders = math.prod(math.factorial(writes.count(loc)) for loc in set(writes))
        out.append({"json": g.to_json(), "regs": regs, "final": final, "shape": shape,
                    "rf": (shape, g.labels, g.rf.pairs), "orders": orders,
                    "pruned": report.pruned})
    return out, report


def classes(program):
    """The write-value class of each thread combination, in stream order."""
    return list(itertools.product(*SearchSpace(program).value_ids))


@pytest.mark.parametrize("coherent, wanted", ((False, None), (True, None), (True, wanted_at)),
                         ids=("full", "coherent", "coherent-wanted"))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_truncation_point_matches_the_oracle(name, coherent, wanted):
    program = parse_litmus(PROGRAMS[name]).program
    seen = classes(program)
    assert any(a != b for a, b in zip(seen, seen[1:]))  # the class changes
    want, drained = reference(program, coherent)
    kept = {}  # rf choice -> orders kept under it
    for cand in want:
        kept[cand["rf"]] = kept.get(cand["rf"], 0) + 1
    for cap in range(1, len(want) + 2):
        reached_want = want[:cap]
        report = EnumerationReport()
        reached = []

        def ask(cand):
            # the final values are read before the decision, as a model's
            # entry reads them
            reached.append((cand.final, cand.final_regs))
            return wanted(len(reached) - 1)

        made = [(c.execution.to_json(), c.final_regs, c.final) for c in candidate_executions(
            program, max_candidates=cap, report=report, coherent=coherent,
            wanted=ask if wanted else None)]
        accepted = [c for i, c in enumerate(reached_want) if wanted is None or wanted(i)]
        assert made == [(c["json"], c["regs"], c["final"]) for c in accepted], (name, cap)
        if wanted:
            assert reached == [(c["final"], c["regs"]) for c in reached_want], (name, cap)
        assert report.candidates == len(accepted), (name, cap)
        assert report.skipped == len(reached_want) - len(accepted), (name, cap)
        assert report.shapes == len({c["shape"] for c in reached_want}), (name, cap)
        assert report.complete == (cap >= len(want)), (name, cap)
        if report.complete:
            pruned = drained.pruned
        else:
            # the stream stops on reaching candidate cap, before it counts
            # the orders that candidate's rf choice does not keep
            cut = want[cap]
            pruned = cut["pruned"] - (cut["orders"] - kept[cut["rf"]])
        assert report.pruned == pruned, (name, cap)
    assert not coherent or drained.pruned  # the coherent stream drops some


def test_the_tables_of_one_class_are_kept():
    # one thread combination per class: thread 0 writes x 1, and each other
    # thread writes to y the value it reads from x, over vals 0..3, so each
    # of the 4^5 combinations has a class of its own
    program = parse_litmus('prog "CLASSES"\nlocations x y\nvals 0..3\n'
                           "thread 0:\n  w[rlx] x 1\n" + "".join(
                               f"thread {t}:\n  r[rlx] a{t} x\n  w[rlx] y a{t}\n"
                               for t in range(1, 6))).program
    assert len(set(classes(program))) == 4 ** 5

    def peak(cap):
        report = EnumerationReport()
        space = SearchSpace(program)
        tracemalloc.start()
        try:
            for cand in candidate_executions(program, max_candidates=cap, report=report,
                                             space=space):
                cand.final_regs
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top, report

    capped, one = peak(1)
    uncapped, every = peak(None)
    assert one.candidates == 1 and not one.complete
    # the reads of 0 and 1 have writers: 2^5 combinations, each with 5! orders of y
    assert every.candidates == 2 ** 5 * math.factorial(5) and every.complete
    # 1,024 classes reached, and the peak of one: a table kept per class
    # reached would hold every class's writers and options
    assert uncapped < capped + 64 * 2**10, (capped, uncapped)


@pytest.mark.parametrize("coherent", (False, True))
def test_a_cap_bounds_the_memory_of_a_run_with_many_options(coherent):
    # three threads write 0 to x, and one thread reads x k times: its only
    # run reads 0 each time, from any of 4 writers, so it has 4^k options,
    # and the first combination of the stream is the one that has them
    def peak(k):
        program = parse_litmus('prog "READS"\nlocations x\nvals 0..0\n' + "".join(
            f"thread {t}:\n  w[rlx] x 0\n" for t in range(3)) + "thread 3:\n" + "".join(
                f"  r[rlx] a{i} x\n" for i in range(k))).program
        space = SearchSpace(program)
        report = EnumerationReport()
        tracemalloc.start()
        try:
            made = [cand.final for cand in candidate_executions(
                program, max_candidates=1, report=report, coherent=coherent, space=space)]
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(made) == 1 and report.truncated_candidates
        return top

    # 256 options against 65,536: kept as a list, those would take megabytes
    few, many = peak(4), peak(8)
    assert many < few + 64 * 2**10, (few, many)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_streams_drawn_in_turn_over_one_space(name):
    # each shape keeps one class's tables, and the two streams move through
    # the classes at different paces; each must read its own class
    program = parse_litmus(PROGRAMS[name]).program
    alone = [[(c.execution.to_json(), c.final, c.final_regs)
              for c in candidate_executions(program, coherent=coherent)]
             for coherent in (False, True)]
    space = SearchSpace(program)
    streams = {coherent: candidate_executions(program, coherent=coherent, space=space)
               for coherent in (False, True)}
    drawn = [[], []]
    while streams:
        for coherent, stream in list(streams.items()):
            cand = next(stream, None)
            if cand is None:
                del streams[coherent]
            else:
                drawn[coherent].append((cand.execution.to_json(), cand.final, cand.final_regs))
    assert drawn == alone
