"""A model's entry from the answer-driven search (cli._model_entry), which
checks only the completions that can change it, against
oracles.entries_by_candidate, which checks every coherent candidate, and
the search's counters against those of the drained coherent stream. The
streams that run_one draws for every model from one search space against
searches with a space of their own, and the work that sharing it saves."""

import random

import pytest

from immlab import cli, consistency, enumeration, execgraph
from immlab.enumeration import EnumerationReport, SearchSpace, candidate_executions
from immlab.fuzz import FuzzConfig, random_program
from immlab.program import LitmusTest, parse_litmus, print_litmus

from oracles import entries_by_candidate

CAPS = (None, 7)
FUZZ_SEEDS = (7, 409123)
FUZZ_PROGRAMS = 40  # per seed
CHECKS = {model: consistency.checker_for(model) for model in consistency.MODELS}

# the two families of the benchmark's scale-up workload, whose coherent
# completions the search mostly skips (under imm it checks 2 of IRIW-3's 64
# and 3 of COWR-3's 36)
IRIW3 = """prog "IRIW-3"
locations x y
vals 0..1
thread 0:
  w[rlx] x 1
thread 1:
  w[rlx] y 1
thread 2:
  r[rlx] a0 x
  r[rlx] b0 y
thread 3:
  r[rlx] a1 y
  r[rlx] b1 x
thread 4:
  r[rlx] a2 x
  r[rlx] b2 y
assert allowed: a0=1 /\\ b0=0 /\\ a1=1 /\\ b1=0
"""
COWR3 = """prog "COWR-3"
locations x
vals 0..3
thread 0:
  w[rlx] x 2
  r[rlx] a0 x
thread 1:
  w[rlx] x 1
  r[rlx] a1 x
thread 2:
  w[rlx] x 3
  r[rlx] a2 x
assert forbidden: a1=0
"""
# thread 1 reads x until it reads a value other than 0, at most three times:
# a run that reads 0 twice takes 11 steps, more than unroll=2 allows over
# its 5 instructions, so at that bound some of its runs end and some are cut
BOUNDED_SPIN = """prog "BOUNDED-SPIN"
locations x y
thread 0:
  w[rlx] y 1
  w[rel] x 1
thread 1:
  r[acq] a x
  if a != 0 goto 4
  i := i + 1
  if i != 3 goto 0
  r[rlx] b y
assert allowed: a=1 /\\ b=0
"""
SPACE_CAPS = (None, 3, 7)


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
    """Every corpus test, IRIW-3, COWR-3 and FUZZ_PROGRAMS seeded fuzz
    programs per seed, each with an assertion drawn from one of its
    candidates."""
    out = list(corpus.values()) + [parse_litmus(IRIW3), parse_litmus(COWR3)]
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


@pytest.mark.parametrize("text", (IRIW3, COWR3), ids=("IRIW-3", "COWR-3"))
@pytest.mark.parametrize("model", ("imm", "imms", "c11", "rc11"))
def test_a_skipped_completion_builds_no_graph(monkeypatch, text, model):
    # the power and arm checks build hardware images as well, so only the
    # source models count one graph per checked candidate
    test = parse_litmus(text)
    reports, built = [], []
    fill = execgraph.Execution._fill

    def recorded(*args, **kwargs):
        reports.append(kwargs["report"])
        return candidate_executions(*args, **kwargs)

    def counted(self, *args):
        built.append(self)
        fill(self, *args)

    monkeypatch.setattr(cli, "candidate_executions", recorded)
    monkeypatch.setattr(execgraph.Execution, "_fill", counted)
    cli._model_entry(test, model, cli.UNROLL, None)
    (report,) = reports
    assert report.skipped > 0
    assert len(built) == report.candidates


@pytest.fixture(scope="module")
def searches(tests, tmp_path_factory):
    """(path, test, unroll) of every test of the sweep at the default unroll
    bound and of BOUNDED_SPIN at 2, each test written to a file for
    run_one."""
    root = tmp_path_factory.mktemp("searches")
    out = []
    for i, (test, unroll) in enumerate([(test, cli.UNROLL) for test in tests]
                                       + [(parse_litmus(BOUNDED_SPIN), 2)]):
        path = root / f"{i:03d}.litmus"
        path.write_text(print_litmus(test))
        out.append((str(path), test, unroll))
    return out


@pytest.fixture(scope="module")
def alone(searches):
    """Per search, cap and model, the model's entry and outcome keys from a
    search with a space of its own."""
    return {(path, cap, model): cli._model_entry(test, model, unroll, cap)
            for path, test, unroll in searches for cap in SPACE_CAPS
            for model in consistency.MODELS}


def test_run_one_matches_a_search_per_model(searches, alone):
    truncated = 0
    for path, test, unroll in searches:
        for cap in SPACE_CAPS:
            got = cli.run_one(path, consistency.MODELS, unroll, cap)
            del got["seconds"]
            want = {"file": path, "test": test.name, "models": {}, "ok": True}
            for model in consistency.MODELS:
                entry, outcomes = alone[path, cap, model]
                want["models"][model] = {**entry, "outcomes": len(outcomes)}
                want["ok"] = want["ok"] and entry["ok"]
            assert got == want, (test.name, cap)
            truncated += cap is None and not want["models"]["imm"]["complete"]
    assert truncated  # some search is cut by the unroll bound alone


def test_one_space_serves_a_stream_per_cap_and_model(searches, alone):
    # the uncapped streams come first, so a stream that counted the space's
    # shapes or truncations instead of its own would read more or fewer
    for path, test, unroll in searches:
        space = SearchSpace(test.program, unroll)
        for cap in SPACE_CAPS:
            for model in consistency.MODELS:
                got = cli._model_entry(test, model, unroll, cap, space=space)
                assert got == alone[path, cap, model], (test.name, cap, model)


def test_a_space_of_another_search_is_refused():
    test = parse_litmus(BOUNDED_SPIN)
    space = SearchSpace(test.program, 2)
    for program, unroll in ((parse_litmus(BOUNDED_SPIN).program, 2), (test.program, 3)):
        with pytest.raises(ValueError, match="another program or unroll bound"):
            next(candidate_executions(program, unroll=unroll, space=space))


def test_run_one_enumerates_each_thread_and_builds_each_shape_once(searches, monkeypatch):
    runs, built = [], []
    thread_graphs, init = enumeration.thread_graphs, enumeration._Completions.__init__

    def counted_runs(sprog, tid, *args, **kwargs):
        runs.append(tid)
        return thread_graphs(sprog, tid, *args, **kwargs)

    def counted_init(self, combo):
        built.append(tuple(res.shape_key for res in combo))
        init(self, combo)

    monkeypatch.setattr(enumeration, "thread_graphs", counted_runs)
    monkeypatch.setattr(enumeration._Completions, "__init__", counted_init)
    for path, test, unroll in searches:
        cli._model_entry(test, "imm", unroll, None)
        one_model = list(built)
        runs.clear()
        built.clear()
        cli.run_one(path, consistency.MODELS, unroll, None)
        assert runs == list(range(len(test.program.threads))), test.name
        assert built == one_model and len(set(built)) == len(built), test.name
        runs.clear()
        built.clear()
