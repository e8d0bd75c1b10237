import importlib.util
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from immlab.enumeration import candidate_executions
from immlab.program import parse_litmus

ROOT = pathlib.Path(__file__).parent.parent
CORPUS_DIR = ROOT / "corpus"
FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# thread 0 loops 150 times before its write: 301 steps, which fit 101 passes
# over its 3 instructions but not the default 8
SPIN_LITMUS = """
prog "SPIN"
locations x
thread 0:
  a := a + 1
  if a != 150 goto 0
  w[rlx] x 1
thread 1:
  r[rlx] b x
"""


@pytest.fixture(scope="session")
def corpus():
    tests = {}
    for path in sorted(CORPUS_DIR.glob("*.litmus")):
        test = parse_litmus(path.read_bytes(), str(path))
        tests[path.stem] = test
    return tests


@pytest.fixture(scope="session")
def corpus_candidates(corpus):
    return {name: list(candidate_executions(t.program)) for name, t in corpus.items()}


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def replay_workload_graphs():
    """(graph, program) of every operation of the benchmark's replay workload
    at seed 3, taken by running each operation with its replay swapped out."""
    spec = importlib.util.spec_from_file_location(
        "replay_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    workloads.replay_graph = lambda g, program: (g, program)
    return [op.run() for op in workloads.replay_workload(str(ROOT), 3).ops]
