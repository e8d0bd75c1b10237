"""Golden outputs: for every corpus file under every model, the verdict of
`immlab check --json`, and the completeness flag and sorted outcome set of
`immlab outcomes --json`, compared with fixtures/corpus_outcomes.json.

Regenerate the fixture, only when a change is meant to move these outputs,
with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from immlab.cli import main
from immlab.consistency import MODELS

from conftest import CORPUS_DIR, FIXTURES

GOLDEN = FIXTURES / "corpus_outcomes.json"


def _json_of(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([*argv, "--json"])
    return json.loads(out.getvalue())


def corpus_outputs():
    """file stem -> model -> {verdict, complete, outcomes}."""
    doc = {}
    for path in sorted(CORPUS_DIR.glob("*.litmus")):
        per_model = doc[path.stem] = {}
        for model in MODELS:
            check = _json_of("check", str(path), "--model", model)
            outcomes = _json_of("outcomes", str(path), "--model", model)
            per_model[model] = {
                "verdict": check["verdict"],
                "complete": outcomes["complete"],
                "outcomes": sorted(outcomes["outcomes"],
                                   key=lambda oc: sorted(oc.items())),
            }
    return doc


def test_corpus_outputs_match_golden():
    assert corpus_outputs() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(corpus_outputs(), indent=1, sort_keys=True) + "\n")
