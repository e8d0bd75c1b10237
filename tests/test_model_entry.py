"""A model's entry from the answer-driven search (cli._model_entry), which
checks only the completions that can change it, against
oracles.entries_by_candidate, which checks every coherent candidate, and
the search's counters against those of the drained coherent stream."""

import random

import pytest

from immlab import cli, consistency
from immlab.enumeration import EnumerationReport, candidate_executions
from immlab.fuzz import FuzzConfig, random_program
from immlab.program import LitmusTest

from oracles import entries_by_candidate

CAPS = (None, 7)
FUZZ_SEEDS = (7, 409123)
FUZZ_PROGRAMS = 40  # per seed
CHECKS = {model: consistency.checker_for(model) for model in consistency.MODELS}


def drawn_assertion(program, rng):
    """One to three of the final values, locations and registers by name,
    of a candidate drawn from the program's first coherent candidates: an
    assertion that some candidate meets, and that the models may or may
    not allow."""
    cands = list(candidate_executions(program, max_candidates=50, coherent=True))
    if not cands:
        return []
    cand = rng.choice(cands)
    outcome = cand.execution.outcome(locations=range(len(program.locations)))
    values = {name: outcome[i] for i, name in enumerate(program.locations)}
    for tid in sorted(cand.final_regs):
        for reg, val in sorted(cand.final_regs[tid].items()):
            values.setdefault(reg, val)
    return rng.sample(sorted(values.items()), rng.randint(1, min(3, len(values))))


@pytest.fixture(scope="module")
def tests(corpus):
    """Every corpus test and FUZZ_PROGRAMS seeded fuzz programs per seed,
    each with an assertion drawn from one of its candidates."""
    out = list(corpus.values())
    for seed in FUZZ_SEEDS:
        rng = random.Random(seed)
        for i in range(FUZZ_PROGRAMS):
            program = random_program(rng, FuzzConfig())
            out.append(LitmusTest(f"fuzz-{seed}-{i}", program, drawn_assertion(program, rng),
                                  "allowed"))
    return out


def test_entries_match_a_check_of_every_candidate(tests):
    allowed = forbidden = unknown = 0
    for test in tests:
        for cap in CAPS:
            want = entries_by_candidate(test, CHECKS, max_candidates=cap)
            for model in CHECKS:
                entry, outcomes = cli._model_entry(test, model, cli.UNROLL, cap)
                got = (entry["verdict"], outcomes, entry["complete"], entry["pruned"],
                       entry["shapes"])
                assert got == want[model], (test.name, model, cap)
                allowed += entry["verdict"] == "allowed"
                forbidden += entry["verdict"] == "forbidden"
                unknown += entry["verdict"] == "unknown"
    # the sweep reaches every verdict
    assert allowed and forbidden and unknown


@pytest.mark.parametrize("cap", (None, 3))
def test_counters_match_the_drained_coherent_stream(corpus, monkeypatch, cap):
    reports = []

    def recorded(*args, **kwargs):
        reports.append(kwargs["report"])
        return candidate_executions(*args, **kwargs)

    monkeypatch.setattr(cli, "candidate_executions", recorded)
    skipped = 0
    for name, test in corpus.items():
        drained = EnumerationReport()
        for _ in candidate_executions(test.program, max_candidates=cap, report=drained,
                                      coherent=True):
            pass
        for model in consistency.MODELS:
            cli._model_entry(test, model, cli.UNROLL, cap)
            report = reports.pop()
            assert (report.candidates + report.skipped, report.pruned, report.shapes,
                    report.complete) == (drained.candidates, drained.pruned,
                                         drained.shapes, drained.complete), (name, model)
            skipped += report.skipped
    assert skipped  # the rule skips some completions
