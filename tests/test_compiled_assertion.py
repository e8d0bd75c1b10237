"""The assertion and outcome key that cli._model_entry compiles once per
test against enumeration.assertion_holds and the outcome key spelt out, on
every completion of the corpus and of seeded fuzz programs, and on written
cases."""

import random

import pytest

from immlab import cli
from immlab.enumeration import assertion_holds, assertion_test, candidate_executions
from immlab.fuzz import FuzzConfig, random_program
from immlab.program import LitmusTest, parse_litmus, registers

FUZZ_SEEDS = (7, 409123)
FUZZ_PROGRAMS = 50  # per seed
FUZZ_CAP = 400  # completions per program, as fuzz_run draws them


def spelt_out_key(test, cand):
    """Each declared location's final value, 0 where nothing is written."""
    return tuple((loc, cand.final.get(loc, 0)) for loc in range(len(test.program.locations)))


def drawn_assertions(program, rng, count=4):
    """count assertions of one to three clauses over the program's locations
    and registers, with values from 0 to one above the domain."""
    names = sorted(set(program.locations).union(*map(registers, program.threads)))
    return [[(name, rng.randint(0, program.max_val + 1))
             for name in rng.sample(names, rng.randint(1, min(3, len(names))))]
            for _ in range(count)]


def assert_compiled_match(test, cap=None):
    """Every completion of test's full stream (the first cap): the compiled
    predicate and key against the reference ones. Returns how many
    completions met the assertion."""
    holds, key = assertion_test(test), cli._outcome_keys(test)
    met = 0
    for cand in candidate_executions(test.program, max_candidates=cap):
        assert key(cand) == spelt_out_key(test, cand), test.name
        want = assertion_holds(cand, test)
        assert holds(cand) == want, (test.name, test.assertion)
        met += want
    return met


@pytest.fixture(scope="module")
def drawn_tests(corpus):
    """Every corpus test with its own assertion and four drawn ones, and
    FUZZ_PROGRAMS fuzz programs per seed with four drawn assertions each."""
    rng = random.Random(5)
    out = []
    for test in corpus.values():
        out.append(test)
        out += [LitmusTest(test.name, test.program, assertion, "allowed")
                for assertion in drawn_assertions(test.program, rng)]
    for seed in FUZZ_SEEDS:
        fuzz = random.Random(seed)
        for i in range(FUZZ_PROGRAMS):
            program = random_program(fuzz, FuzzConfig())
            out += [LitmusTest(f"fuzz-{seed}-{i}", program, assertion, "allowed")
                    for assertion in drawn_assertions(program, rng)]
    return out


def test_compiled_assertion_and_key_match_on_every_completion(drawn_tests):
    met = [assert_compiled_match(test, FUZZ_CAP) for test in drawn_tests]
    assert any(met) and not all(met)  # some assertions hold somewhere, some nowhere


TWO_THREADS = """prog "TWO-A"
locations x y
thread 0:
  a := 1
  w[rlx] x 1
thread 1:
  a := 2
  r[rlx] b x
"""


def written(assertion, text=TWO_THREADS):
    """A test with the given assertion, which the reader may refuse, made
    directly."""
    return LitmusTest("written", parse_litmus(text).program, assertion, "allowed")


def drained(test):
    return list(candidate_executions(test.program))


def test_a_register_of_two_threads_reads_the_lower_tid():
    test = written([("a", 1)])
    assert assert_compiled_match(test) == len(drained(test)) > 0
    assert assert_compiled_match(written([("a", 2)])) == 0


def test_an_unwritten_location_reads_zero():
    # nothing writes y
    assert assert_compiled_match(written([("y", 0)])) == len(drained(written([])))
    assert assert_compiled_match(written([("y", 1)])) == 0


def test_an_empty_assertion_holds_for_every_candidate():
    test = written([])
    assert all(assertion_test(test)(cand) for cand in drained(test))
    assert assert_compiled_match(test) == len(drained(test))


def test_a_name_of_nothing_is_never_met():
    assert assert_compiled_match(written([("b", 1), ("z", 0)])) == 0
