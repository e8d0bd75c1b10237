"""Co orders made on demand: both candidate streams against the tabulated
and rank-filtered orders of oracles.pair_built_candidates, uncapped and
capped, and a cap that bounds the memory of a search."""

import tracemalloc

import pytest

from immlab.enumeration import EnumerationReport, candidate_executions
from immlab.program import parse_litmus

from oracles import pair_built_candidates
from test_shape import programs  # the fixture: corpus, VALUE_DEPS, small fuzz programs

CAPS = (None, 1, 3, 4, 5)


def shape_key(g):
    """What a candidate's shape is made of: its events, their labels without
    values and its dependencies."""
    return (g.events, tuple(lab.slot for lab in g.labels),
            *(getattr(g, name).pairs for name in ("rmw", "data", "addr", "ctrl", "casdep")))


@pytest.mark.parametrize("coherent", (False, True))
def test_streams_match_the_tabulated_orders(programs, coherent):
    for name, program in programs:
        reference = EnumerationReport()
        tabulated = [(g.to_json(), regs, shape_key(g)) for g, regs in
                     pair_built_candidates(program, coherent=coherent, report=reference)]
        for cap in CAPS:
            report = EnumerationReport()
            made = [(c.execution.to_json(), c.final_regs) for c in candidate_executions(
                program, max_candidates=cap, report=report, coherent=coherent)]
            want = tabulated[:cap]
            assert made == [(g, regs) for g, regs, _ in want], (name, cap)
            assert report.candidates == len(want), (name, cap)
            assert report.shapes == len({key for *_, key in want}), (name, cap)
            assert report.complete == (cap is None or len(tabulated) <= cap), (name, cap)
            if report.complete:
                assert report.pruned == reference.pruned, (name, cap)


@pytest.mark.parametrize("coherent", (False, True))
def test_a_cap_bounds_the_memory_of_a_search(coherent):
    # eight one-write threads to one location: 8! co orders, one asked for
    program = parse_litmus('prog "W8"\nlocations x\n' + "".join(
        f"thread {t}:\n  w[rlx] x {t + 1}\n" for t in range(8))).program
    report = EnumerationReport()
    tracemalloc.start()
    try:
        made = list(candidate_executions(program, max_candidates=1, report=report,
                                         coherent=coherent))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(made) == 1 and report.truncated_candidates
    assert peak < 2 * 2**20
