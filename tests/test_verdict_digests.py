"""Verdict digests: what every candidate of the corpus and of two fuzz seeds
decides under every check, and the JSON of it and of its hardware images,
compared with fixtures/verdict_digests.json.

A source is a corpus file or a fuzz seed's first 50 programs (each capped at
400 candidates, as fuzz_run caps them). Per source and check there is one
sha256 over the repr of each candidate's Verdict, in stream order, on the
full stream and then on the coherent one. The `json` check digests each
candidate's dumps() and those of its POWER and ARM images. Two more digests
pin fuzz_run(7).to_json() and `immlab run corpus --json` without its
timings.

Regenerate the fixture, only when a change is meant to move these outputs,
with `PYTHONPATH=src python tests/test_verdict_digests.py`.
"""

import contextlib
import functools
import hashlib
import io
import json
import pathlib
import random
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from immlab import consistency, hwmodels
from immlab.cli import main
from immlab.enumeration import candidate_executions
from immlab.fuzz import FuzzConfig, fuzz_run, random_program
from immlab.program import parse_litmus

from conftest import CORPUS_DIR, FIXTURES, ROOT

DIGESTS = FIXTURES / "verdict_digests.json"
FUZZ_SEEDS = (7, 11)
FUZZ_PROGRAMS = 50


def _images(g):
    power = hwmodels.to_power(hwmodels.split_release(g))
    return "\n".join(h.dumps() for h in (g, power, hwmodels.to_arm(g)))


CHECKS = {
    **{model: consistency.checker_for(model) for model in consistency.MODELS},
    "power_at_axiom": functools.partial(hwmodels.check_imm_via_power, at_axiom=True),
    "power_armv7": functools.partial(hwmodels.check_imm_via_power, armv7=True),
    "json": _images,
}


def _programs(source):
    """The programs of source, with the candidate cap they are run at."""
    kind, _, name = source.partition(":")
    if kind == "corpus":
        return [parse_litmus((CORPUS_DIR / name).read_bytes(), name).program], None
    rng, cfg = random.Random(int(name)), FuzzConfig()
    return ([random_program(rng, cfg) for _ in range(FUZZ_PROGRAMS)],
            cfg.max_candidates_per_program)


SOURCES = ([f"corpus:{path.name}" for path in sorted(CORPUS_DIR.glob("*.litmus"))]
           + [f"fuzz:{seed}" for seed in FUZZ_SEEDS])


def source_digests(source):
    """check -> sha256 of its outputs on every candidate of source."""
    programs, cap = _programs(source)
    hashes = {name: hashlib.sha256() for name in CHECKS}
    for coherent in (False, True):
        for program in programs:
            for cand in candidate_executions(program, max_candidates=cap, coherent=coherent):
                g = cand.execution
                for name, check in CHECKS.items():
                    out = check(g)
                    hashes[name].update((out if name == "json" else repr(out)).encode() + b"\n")
    return {name: h.hexdigest() for name, h in hashes.items()}


def _sha(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_corpus_digest():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["run", str(CORPUS_DIR), "--json"])
    doc = json.loads(out.getvalue())
    doc["corpus"] = "corpus"
    for entry in doc["tests"]:
        entry["file"] = str(pathlib.Path(entry["file"]).relative_to(ROOT))
        del entry["seconds"]
    return _sha(doc)


def all_digests():
    return {
        "sources": {source: source_digests(source) for source in SOURCES},
        "fuzz_run_7": _sha(fuzz_run(7).to_json()),
        "run_corpus": run_corpus_digest(),
    }


@pytest.fixture(scope="module")
def expected():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("source", SOURCES)
def test_source_digests_match(expected, source):
    got, want = source_digests(source), expected["sources"][source]
    differ = [name for name in want if got.get(name) != want[name]]
    assert not differ and got.keys() == want.keys(), f"{source}: {differ} differ"


def test_fuzz_run_digest_matches(expected):
    assert _sha(fuzz_run(7).to_json()) == expected["fuzz_run_7"]


def test_run_corpus_digest_matches(expected):
    assert run_corpus_digest() == expected["run_corpus"]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
