"""Tests of the benchmark's own answers and bookkeeping.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from immlab import consistency  # noqa: E402
from immlab.enumeration import candidate_executions  # noqa: E402
from immlab.program import parse_litmus  # noqa: E402


def brute_force(text):
    """(candidates, IMM-consistent candidates) from the candidate stream."""
    program = parse_litmus(text).program
    total = consistent = 0
    for cand in candidate_executions(program):
        total += 1
        consistent += consistency.check_imm(cand.execution).consistent
    return total, consistent


@pytest.mark.parametrize("family,k", [("COWR", 1), ("COWR", 2), ("COWR", 3),
                                      ("IRIW", 2), ("IRIW", 3)])
def test_closed_forms_match_brute_force(family, k):
    text = workloads.FAMILY_TEXT[family](k, random.Random(k))
    total, consistent = brute_force(text)
    assert total == workloads.SPACE[family](k)
    assert consistent == workloads.CONSISTENT[family](k)
    assert workloads.space_size(parse_litmus(text).program) == total


def test_cowr_useful_ratio_is_below_a_tenth_from_k3():
    assert workloads.cowr_consistent(3) / workloads.cowr_space(3) < 0.1
    assert workloads.cowr_consistent(4) / workloads.cowr_space(4) < 0.05


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(os.path.join(ROOT, "corpus"))
                                        if n.endswith(".litmus")))
def test_space_size_counts_the_corpus_search_space(name):
    with open(os.path.join(ROOT, "corpus", name)) as fh:
        text = fh.read()
    assert workloads.space_size(parse_litmus(text).program) == brute_force(text)[0]


def test_expect_lines_are_read_without_the_parser():
    with open(os.path.join(ROOT, "corpus", "coh.litmus")) as fh:
        expected = workloads.expect_line(fh.read())
    assert expected == {m: "forbidden" for m in workloads.MODELS}


def corpus_entry():
    return {"file": "f", "test": "T", "ok": True, "models": {
        m: {"verdict": "forbidden", "expected": None, "ok": True, "outcomes": 2,
            "complete": True} for m in workloads.MODELS}}


def test_corpus_check_enforces_expectations_and_inclusions():
    entry = corpus_entry()
    assert workloads.check_corpus_entry(entry, {"imm": "forbidden"}) == []
    assert workloads.check_corpus_entry(entry, {"imm": "allowed"})
    weaker = copy.deepcopy(entry)
    weaker["models"]["power"]["verdict"] = "allowed"  # power allowed, imm forbidden
    assert workloads.check_corpus_entry(weaker, {})
    more = copy.deepcopy(entry)
    more["models"]["rc11"]["outcomes"] = 3  # more rc11 outcomes than c11 ones
    assert workloads.check_corpus_entry(more, {})
    truncated = copy.deepcopy(entry)
    truncated["models"]["arm"]["complete"] = False
    assert workloads.check_corpus_entry(truncated, {})


def test_scaleup_check_enforces_verdict_and_outcome_count():
    entry = {"models": {"imm": {"verdict": "forbidden", "outcomes": 3, "complete": True}}}
    assert workloads.check_scaleup_entry(entry, "imm", "forbidden", 3) == []
    assert workloads.check_scaleup_entry(entry, "imm", "allowed", 3)
    assert workloads.check_scaleup_entry(entry, "imm", "forbidden", 1)


def run_checked_pass(wl):
    _, _, outputs, problems = worker.run_pass(wl)
    return worker.check_pass(wl, outputs, problems)


def test_corpus_operation_with_a_wrong_answer_counts_as_failed(tmp_path):
    wl = workloads.build("corpus", ROOT, 0, str(tmp_path))
    wl.ops = [op for op in wl.ops if op.label in ("coh.litmus", "mp.litmus")]
    assert run_checked_pass(wl) == {}
    wrong = wl.ops[0]
    wrong.check = lambda entry: workloads.check_corpus_entry(
        entry, {m: "allowed" for m in workloads.MODELS})
    assert set(run_checked_pass(wl)) == {0}


def test_replay_operation_with_a_wrong_answer_counts_as_failed(tmp_path):
    wl = workloads.build("replay", ROOT, 3, str(tmp_path))
    ops = wl.ops[:20]
    wl.ops = ops
    _, _, outputs, problems = worker.run_pass(wl)
    assert worker.check_pass(wl, outputs, problems) == {}
    other = next(i for i, out in enumerate(outputs) if out[2] != outputs[0][2])
    ops[0].check = ops[other].check  # expects the other graph's outcome
    assert set(run_checked_pass(wl)) == {0}


def test_inputs_follow_the_seed(tmp_path):
    def labels(seed):
        wl = workloads.build("replay", ROOT, seed, str(tmp_path))
        return [op.label for op in wl.ops]

    assert labels(1) == labels(1)
    assert labels(1) != labels(2)
    assert len(labels(1)) == len(labels(2))


def test_tracer_nests_spans_and_restores_the_program(tmp_path):
    wl = workloads.build("corpus", ROOT, 0, str(tmp_path))
    wl.ops = [op for op in wl.ops if op.label == "mp.litmus"]
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, _ in tracing.FUNCTIONS + tracing.STATIC}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        worker.run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    for (owner, attr), value in originals.items():
        assert owner.__dict__[attr] is value
    n = len(tracer.start)
    assert n > 0 and not tracer.stack
    for i in range(n):
        p = tracer.parent[i]
        assert p < i
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    metrics = tracer.per_layer(1.0)
    assert metrics["program.parse_calls"]["value"] == 1
    assert metrics["consistency.checks"]["value"] == metrics["enumeration.candidates"]["value"]
    self_total = sum(s for _, s in tracer.totals().values())
    top = sum(tracer.end[i] - tracer.start[i] for i in range(n) if tracer.parent[i] < 0)
    assert self_total == pytest.approx(top)


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in tracing.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "candidates_per_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.NOMINAL_PASS_S)


@pytest.mark.parametrize("name", ["corpus", "scaleup", "replay"])
def test_every_run_leaves_ten_samples_beyond_p90(name, tmp_path):
    wl = workloads.build(name, ROOT, 0, str(tmp_path))
    assert run.MIN_PASSES[name] * len(wl.ops) >= worker.P90_SAMPLES
