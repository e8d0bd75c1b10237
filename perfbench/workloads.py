"""Inputs, operations and expected answers of the three workloads.

Every workload is a fixed list of operations that the worker runs in whole
passes. An operation's expected answer never comes from running immlab on
the same input: corpus answers are the files' hand-written `expect` lines and
the model inclusions, scaleup answers are derived by hand for the two
generated families, and replay answers are the properties the paper proves
for a traversal (it ends in ⟨E, W⟩, certification graphs are complete and
consistent, the promise machine reproduces the graph's outcome).

`--seed` fixes the inputs: the corpus order, the naming and thread order of
the generated litmus files, and the random relaxed programs of `replay`.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from immlab import certification, cli, consistency, enumeration, promise, traversal
from immlab.program import parse_litmus

MODELS = ("imm", "imms", "c11", "rc11", "power", "arm")
HW_MODELS = ("imm", "power", "arm")
UNROLL = 8

# scaleup: (family, k, seeded variants per pass)
SCALEUP_MEMBERS = (
    ("COWR", 3, 2), ("IRIW", 2, 6), ("IRIW", 3, 3), ("IRIW", 4, 1), ("IRIW", 5, 1),
)
# replay: scaleup members whose every IMM-consistent graph is replayed
REPLAY_MEMBERS = (("COWR", 2), ("COWR", 3), ("IRIW", 2), ("IRIW", 3))
REPLAY_RANDOM_GRAPHS = 96  # graphs drawn from seeded random relaxed programs

LOCATION_NAMES = ("x", "y", "z", "u", "v", "w")


@dataclass
class Op:
    label: str
    run: Callable[[], object]  # the timed call
    check: Callable[[object], list]  # problems with its output; empty if right
    candidates: int  # candidate graphs in the search space the op decides
    family: str = ""  # scaleup: COWR or IRIW


@dataclass
class Workload:
    name: str
    ops: list
    makeup: dict = field(default_factory=dict)


# -- closed forms -------------------------------------------------------------------


def cowr_space(k):
    """k threads `w x i; r a x`: each read takes one of k+1 values, each value
    has exactly one writer (init or thread v), and co orders the k writes."""
    return math.factorial(k) * (k + 1) ** k


def cowr_consistent(k):
    """Coherence fixes a co order (k! ways); the thread at co position p may
    read only its own write or one of the k-p writes co-after it."""
    return math.factorial(k) ** 2


def iriw_space(k):
    """Two single-write writers and k readers of both locations: each read
    sees 0 or 1, rf is fixed by the value and each co is trivial."""
    return 4 ** k


def iriw_consistent(k):
    """Relaxed reads with no dependencies: nothing orders them."""
    return 4 ** k


SPACE = {"COWR": cowr_space, "IRIW": iriw_space}
CONSISTENT = {"COWR": cowr_consistent, "IRIW": iriw_consistent}


def space_size(program, unroll=UNROLL):
    """Candidates in a program's full search space, counted without the
    candidate stream: Σ over tuples of thread-local runs of
    Π_reads (same-location writes of the read value, init included)
    × Π_locations (non-init writes)!."""
    values = program.candidate_values()
    per_thread = [enumeration.thread_graphs(body, tid, values, unroll)[0]
                  for tid, body in enumerate(program.threads)]
    total = 0
    for combo in itertools.product(*per_thread):
        labels = [rec.label for res in combo for rec in res.events]
        writers = Counter((lab.loc, lab.val) for lab in labels if lab.kind == "w")
        for loc in {lab.loc for lab in labels if lab.loc is not None}:
            writers[(loc, 0)] += 1
        count = 1
        for lab in labels:
            if lab.kind == "r":
                count *= writers[(lab.loc, lab.val)]
        for n in Counter(lab.loc for lab in labels if lab.kind == "w").values():
            count *= math.factorial(n)
        total += count
    return total


# -- generated litmus text -------------------------------------------------------------


def cowr_text(k, rng, tag=""):
    """COWR-k: thread i writes its own value to one location, then reads it.
    Reading 0 after one's own write breaks coherence: forbidden. The final
    value is any of the k written ones."""
    loc = rng.choice(LOCATION_NAMES)
    values = list(range(1, k + 1))
    rng.shuffle(values)
    lines = [f'prog "COWR-{k}{tag}"', f"locations {loc}", f"vals 0..{k}"]
    for t in range(k):
        lines += [f"thread {t}:", f"  w[rlx] {loc} {values[t]}", f"  r[rlx] a{t} {loc}"]
    watched = rng.randrange(k)
    lines += [f"assert forbidden: a{watched}=0",
              "expect imm=forbidden power=forbidden arm=forbidden"]
    return "\n".join(lines) + "\n"


def iriw_text(k, rng, tag=""):
    """IRIW-k: two writers of 1 and k readers of both locations. Two readers
    that read the locations in opposite orders may disagree on the order of
    the writes: allowed for relaxed accesses. The final memory is x=y=1."""
    x, y = rng.sample(LOCATION_NAMES, 2)
    orders = [(x, y), (y, x)] + [rng.choice(((x, y), (y, x))) for _ in range(k - 2)]
    bodies = [[f"  w[rlx] {x} 1"], [f"  w[rlx] {y} 1"]]
    bodies += [[f"  r[rlx] a{i} {first}", f"  r[rlx] b{i} {second}"]
               for i, (first, second) in enumerate(orders)]
    rng.shuffle(bodies)
    lines = [f'prog "IRIW-{k}{tag}"', f"locations {x} {y}", "vals 0..1"]
    for t, body in enumerate(bodies):
        lines += [f"thread {t}:"] + body
    lines += ["assert allowed: a0=1 /\\ b0=0 /\\ a1=1 /\\ b1=0",
              "expect imm=allowed power=allowed arm=allowed"]
    return "\n".join(lines) + "\n"


FAMILY_TEXT = {"COWR": cowr_text, "IRIW": iriw_text}
FAMILY_VERDICT = {"COWR": "forbidden", "IRIW": "allowed"}


def family_outcomes(family, k):
    return k if family == "COWR" else 1


def random_relaxed_text(rng, tag):
    """Two threads, each one relaxed read and one relaxed write in a random
    order, over two of three locations; a write stores a literal or a value
    computed from the thread's read (a data dependency)."""
    locs = rng.sample(LOCATION_NAMES[:3], 2)
    lines = [f'prog "RLX-{tag}"', f"locations {' '.join(LOCATION_NAMES[:3])}", "vals 0..2"]
    for t in range(2):
        lines.append(f"thread {t}:")
        kinds = ["r", "w"]
        rng.shuffle(kinds)
        for kind in kinds:
            loc = rng.choice(locs)
            if kind == "r":
                lines.append(f"  r[rlx] r{t} {loc}")
                continue
            roll = rng.random()
            if kinds[0] == "r" and roll < 0.3:
                value = f"r{t}"
            elif kinds[0] == "r" and roll < 0.45:
                value = f"r{t} + 1"
            else:
                value = str(rng.randint(1, 2))
            lines.append(f"  w[rlx] {loc} {value}")
    return "\n".join(lines) + "\n"


# -- corpus ------------------------------------------------------------------------


_EXPECT = re.compile(r"^\s*expect\s+(.*)$", re.M)


def expect_line(text):
    """The file's hand-written per-model verdicts."""
    out = {}
    for match in _EXPECT.finditer(text):
        for item in match.group(1).split():
            model, verdict = item.split("=")
            out[model] = verdict
    return out


# (weaker-or-equal model, stronger model): allowed under the first implies
# allowed under the second, and its outcome set is included in the second's.
INCLUSIONS = (("imm", "imms"), ("imm", "c11"), ("rc11", "c11"),
              ("power", "imm"), ("arm", "imm"))


def check_corpus_entry(entry, expected):
    problems = []
    if "error" in entry:
        return [f"error: {entry['error']}"]
    got = entry["models"]
    if set(got) != set(MODELS):
        return [f"models decided: {sorted(got)}"]
    for model, verdict in expected.items():
        if got[model]["verdict"] != verdict:
            problems.append(f"{model}: {got[model]['verdict']}, expected {verdict}")
    for lo, hi in INCLUSIONS:
        if got[lo]["verdict"] == "allowed" and got[hi]["verdict"] != "allowed":
            problems.append(f"{lo} allowed but {hi} forbidden")
        if got[lo]["outcomes"] > got[hi]["outcomes"]:
            problems.append(f"{got[lo]['outcomes']} {lo} outcomes > "
                            f"{got[hi]['outcomes']} {hi} outcomes")
    problems += [f"{m}: incomplete search" for m in MODELS if not got[m]["complete"]]
    if not entry["ok"] and not problems:
        problems.append("run_one reports an expectation mismatch")
    return problems


def corpus_workload(root, seed):
    rng = random.Random(seed)
    corpus = os.path.join(root, "corpus")
    paths = sorted(os.path.join(corpus, name) for name in os.listdir(corpus)
                   if name.endswith(".litmus"))
    rng.shuffle(paths)
    ops = []
    for path in paths:
        with open(path, "rb") as fh:
            raw = fh.read()
        program = parse_litmus(raw, path).program
        expected = expect_line(raw.decode())
        ops.append(Op(
            label=os.path.basename(path),
            run=lambda path=path: cli.run_one(path, MODELS, UNROLL, None),
            check=lambda entry, expected=expected: check_corpus_entry(entry, expected),
            candidates=len(MODELS) * space_size(program),
        ))
    return Workload("corpus", ops, makeup={
        "files": len(ops), "models": list(MODELS),
        "candidates_per_pass": sum(op.candidates for op in ops),
    })


# -- scaleup -----------------------------------------------------------------------------


def check_scaleup_entry(entry, model, verdict, n_outcomes):
    if "error" in entry:
        return [f"error: {entry['error']}"]
    got = entry["models"].get(model)
    if got is None:
        return [f"no verdict for {model}"]
    problems = []
    if got["verdict"] != verdict:
        problems.append(f"verdict {got['verdict']}, expected {verdict}")
    if got["outcomes"] != n_outcomes:
        problems.append(f"{got['outcomes']} outcomes, expected {n_outcomes}")
    if not got["complete"]:
        problems.append("incomplete search")
    return problems


def scaleup_workload(root, seed, scratch_dir):
    rng = random.Random(seed)
    os.makedirs(scratch_dir, exist_ok=True)
    ops = []
    for family, k, variants in SCALEUP_MEMBERS:
        for v in range(variants):
            text = FAMILY_TEXT[family](k, rng, tag=f".{v}")
            path = os.path.join(scratch_dir, f"{family.lower()}{k}.{v}.litmus")
            with open(path, "w") as fh:
                fh.write(text)
            parse_litmus(text, path)  # a generated file must parse before it is timed
            for model in HW_MODELS:
                ops.append(Op(
                    label=f"{family}-{k}.{v}/{model}",
                    run=lambda path=path, model=model: cli.run_one(path, [model], UNROLL, None),
                    check=lambda entry, model=model, verdict=FAMILY_VERDICT[family],
                    n=family_outcomes(family, k): check_scaleup_entry(entry, model, verdict, n),
                    candidates=SPACE[family](k),
                    family=family,
                ))
    rng.shuffle(ops)
    return Workload("scaleup", ops, makeup={
        "members": [f"{f}-{k} x{v}" for f, k, v in SCALEUP_MEMBERS],
        "models": list(HW_MODELS), "verdicts": len(ops),
        "candidates_per_pass": sum(op.candidates for op in ops),
    })


# -- replay -------------------------------------------------------------------------------


def replay_graph(g, program):
    """Traverse g, certify every pending promise at every prefix, and run the
    promise machine along the traversal."""
    steps = traversal.Traversal(g).traverse()
    final = traversal.replay(g, steps)
    certs = []
    for k in range(len(steps) + 1):
        tc = traversal.replay(g, steps[:k])
        for tid in g.tids():
            if not (tc.issued - tc.covered) & g.thread_events(tid):
                continue
            sprog = program.threads[tid]
            cg = certification.build_cert_graph(g, tc, tid, sprog=sprog)
            certs.append((cg, certification.check_cert_compl(g, tc, cg, sprog=sprog)))
    _, outcome = promise.simulate_traversal(g, steps, program)
    return final, certs, outcome


def check_replay(g, out):
    final, certs, outcome = out
    problems = []
    writes = frozenset(i for i, lab in enumerate(g.labels) if lab.kind == "w")
    if final.covered != frozenset(range(g.n)) or final.issued != writes:
        problems.append(f"traversal ends in {final}, not ⟨E, W⟩")
    for cg, diags in certs:
        if diags:
            problems.append(f"certification graph incomplete: {diags}")
        if not consistency.check_imms(cg.graph).consistent:
            problems.append("certification graph not IMM_S-consistent")
    if outcome != g.outcome():
        problems.append(f"simulated outcome {outcome} != graph outcome {g.outcome()}")
    return problems


def _imm_graphs(program):
    return [c.execution for c in enumeration.candidate_executions(program, unroll=UNROLL)
            if consistency.check_imm(c.execution).consistent]


def replay_workload(root, seed):
    rng = random.Random(seed)
    sources = []  # (name, program, selected graphs)
    for name in sorted(os.listdir(os.path.join(root, "corpus"))):
        if not name.endswith(".litmus"):
            continue
        with open(os.path.join(root, "corpus", name), "rb") as fh:
            program = parse_litmus(fh.read(), name).program
        if program.is_relaxed_only():
            sources.append((name, program, _imm_graphs(program)))
    for family, k in REPLAY_MEMBERS:
        program = parse_litmus(FAMILY_TEXT[family](k, rng)).program
        sources.append((f"{family}-{k}", program, _imm_graphs(program)))
    fixed = sum(len(graphs) for _, _, graphs in sources)

    # random programs: one graph per IMM-consistent outcome. Every source thus
    # covers all its IMM-consistent outcomes, so the per-graph check (simulated
    # outcome == g.outcome()) also makes each program's set of simulated
    # outcomes equal its set of IMM-consistent outcomes.
    drawn = 0
    programs = 0
    while drawn < REPLAY_RANDOM_GRAPHS:
        program = parse_litmus(random_relaxed_text(rng, programs)).program
        programs += 1
        by_outcome = {}
        for g in _imm_graphs(program):
            by_outcome.setdefault(tuple(sorted(g.outcome().items())), []).append(g)
        if drawn + len(by_outcome) > REPLAY_RANDOM_GRAPHS:
            continue
        graphs = [rng.choice(gs) for _, gs in sorted(by_outcome.items())]
        sources.append((f"RLX-{programs - 1}", program, graphs))
        drawn += len(graphs)

    ops = []
    for name, program, graphs in sources:
        for i, g in enumerate(graphs):
            ops.append(Op(
                label=f"{name}#{i}",
                run=lambda g=g, program=program: replay_graph(g, program),
                check=lambda out, g=g: check_replay(g, out),
                candidates=1,
            ))
    rng.shuffle(ops)
    return Workload("replay", ops, makeup={
        "graphs": len(ops), "fixed_graphs": fixed, "random_graphs": drawn,
        "random_programs_drawn": programs,
        "random_programs_kept": sum(1 for name, *_ in sources if name.startswith("RLX-")),
    })


def build(name, root, seed, scratch_dir):
    if name == "corpus":
        return corpus_workload(root, seed)
    if name == "scaleup":
        return scaleup_workload(root, seed, scratch_dir)
    if name == "replay":
        return replay_workload(root, seed)
    raise ValueError(f"unknown workload {name!r}")
