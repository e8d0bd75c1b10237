"""Spans around the calls into immlab's public functions, and the per-layer
table computed from them.

`Tracer.install()` replaces module attributes and class members of immlab
with wrappers that record a span (name, start, end, parent span, operation
id); `uninstall()` puts the originals back. Only calls made through those
attributes are seen, so a call bound by name before installation (e.g.
`from .enumeration import thread_graphs`) is not. Spans live in flat arrays
in memory and are written out once, at the end of the run.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import time
from array import array

import immlab.kernels
from immlab import certification, cli, consistency, enumeration, execgraph, hwmodels
from immlab import program, promise, relalg, traversal

# (owner, attribute, span name); owners are modules or classes
FUNCTIONS = (
    (cli, "run_one", "cli.run_one"),
    (program, "parse_litmus", "program.parse"),
    (cli, "parse_litmus", "program.parse"),
    (enumeration, "thread_graphs", "enumeration.thread_graphs"),
    (execgraph.Execution, "derive", "execgraph.derive"),
    (relalg.Rel, "__init__", "relalg.rel_new"),
    (immlab.kernels, "compose", "kernels.compose"),
    (immlab.kernels, "transitive_closure", "kernels.closure"),
    (immlab.kernels, "has_cycle", "kernels.cycle"),
    (consistency, "check_imm", "consistency.imm"),
    (consistency, "check_imms", "consistency.imms"),
    (consistency, "check_c11", "consistency.c11"),
    (consistency, "check_rc11", "consistency.rc11"),
    (hwmodels, "split_release", "hwmodels.split_release"),
    (hwmodels, "to_power", "hwmodels.to_power"),
    (hwmodels, "to_arm", "hwmodels.to_arm"),
    (hwmodels, "check_power", "hwmodels.check_power"),
    (hwmodels, "check_arm", "hwmodels.check_arm"),
    (hwmodels, "power_ppo_fixpoint", "hwmodels.ppo_fixpoint"),
    (traversal.Traversal, "__init__", "traversal.init"),
    (traversal, "replay", "traversal.replay"),
    (certification, "check_cert_compl", "certification.compl"),
    (promise, "simulate_traversal", "promise.simulate"),
    (promise, "certify", "promise.certify"),
)
STATIC = (
    (execgraph.Execution, "build", "execgraph.build"),
    (relalg.Rel, "from_rows", "relalg.from_rows"),
)
KERNELS = ("kernels.compose", "kernels.closure", "kernels.cycle")

# per-layer metrics and their units, in the order of the table
PER_LAYER = (
    ("cli.run_one_s", "s"),
    ("program.parse_calls", "count"), ("program.parse_s", "s"),
    ("enumeration.thread_graphs_s", "s"), ("enumeration.stream_s", "s"),
    ("enumeration.candidates", "count"), ("enumeration.consistent", "count"),
    ("enumeration.useful_ratio", "ratio"),
    ("enumeration.useful_ratio_cowr", "ratio"), ("enumeration.useful_ratio_iriw", "ratio"),
    ("execgraph.build_calls", "count"), ("execgraph.build_s", "s"),
    ("execgraph.derive_calls", "count"), ("execgraph.derive_s", "s"),
    ("execgraph.po_s", "s"),
    ("relalg.rel_new", "count"), ("relalg.rel_new_s", "s"),
    ("relalg.from_rows_s", "s"), ("relalg.rows_s", "s"),
    ("kernels.compose_calls", "count"), ("kernels.closure_calls", "count"),
    ("kernels.cycle_calls", "count"), ("kernels.s", "s"),
    ("consistency.imm_s", "s"), ("consistency.imms_s", "s"),
    ("consistency.c11_s", "s"), ("consistency.rc11_s", "s"),
    ("consistency.checks", "count"),
    ("hwmodels.split_release_s", "s"), ("hwmodels.to_power_s", "s"),
    ("hwmodels.to_arm_s", "s"), ("hwmodels.check_power_s", "s"),
    ("hwmodels.check_arm_s", "s"), ("hwmodels.ppo_fixpoint_s", "s"),
    ("traversal.init_s", "s"), ("traversal.traverse_s", "s"),
    ("traversal.replay_s", "s"), ("traversal.steps", "count"),
    ("certification.build_calls", "count"), ("certification.build_s", "s"),
    ("certification.compl_s", "s"), ("certification.shape_changes", "count"),
    ("promise.simulate_calls", "count"), ("promise.simulate_s", "s"),
    ("promise.certify_calls", "count"), ("promise.certify_s", "s"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.current_op = -1
        self.family = ""
        self.by_family = {}  # family -> [candidates drawn, consistent verdicts]
        self.counts = {"enumeration.candidates": 0, "enumeration.consistent": 0,
                       "consistency.checks": 0, "traversal.steps": 0,
                       "certification.shape_changes": 0}
        self._saved = []

    def begin_op(self, op, family):
        """Spans and counts that follow belong to operation `op` of `family`."""
        self.current_op = op
        self.family = family
        if family:
            self.by_family.setdefault(family, [0, 0])

    # -- spans -----------------------------------------------------------------

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id):
        i = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for owner, attr, name in FUNCTIONS:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        for owner, attr, name in STATIC:
            self._patch(owner, attr, staticmethod(self.wrap(name, getattr(owner, attr))))
        self._install_special()

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _install_special(self):
        tracer = self
        counts = self.counts

        # the candidate stream: one span per candidate drawn from it
        stream = self.name_id("enumeration.stream")
        orig_stream = enumeration.candidate_executions

        def candidate_executions(*args, **kwargs):
            it = orig_stream(*args, **kwargs)
            while True:
                i = tracer.open(stream)
                try:
                    cand = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(i)
                counts["enumeration.candidates"] += 1
                if tracer.family:
                    tracer.by_family[tracer.family][0] += 1
                yield cand

        self._patch(cli, "candidate_executions", candidate_executions)
        self._patch(enumeration, "candidate_executions", candidate_executions)

        # verdicts asked per candidate and model, as `immlab run` asks them
        orig_checker_for = consistency.checker_for

        def checker_for(model):
            check = orig_checker_for(model)

            def counted(g):
                verdict = check(g)
                counts["consistency.checks"] += 1
                counts["enumeration.consistent"] += verdict.consistent
                if tracer.family:
                    tracer.by_family[tracer.family][1] += verdict.consistent
                return verdict

            return counted

        self._patch(consistency, "checker_for", checker_for)

        traverse = self.wrap("traversal.traverse", traversal.Traversal.traverse)

        def counted_traverse(*args, **kwargs):
            steps = traverse(*args, **kwargs)
            counts["traversal.steps"] += len(steps)
            return steps

        self._patch(traversal.Traversal, "traverse", counted_traverse)

        build = self.wrap("certification.build", certification.build_cert_graph)

        def counted_build(*args, **kwargs):
            try:
                return build(*args, **kwargs)
            except certification.ShapeChangeError:
                counts["certification.shape_changes"] += 1
                raise

        self._patch(certification, "build_cert_graph", counted_build)

        # cached views: a span only when the value is computed
        po = self.name_id("execgraph.po")
        po_get = execgraph.Execution.po.fget

        def po_traced(g):
            if "po" in g._cache:
                return g._cache["po"]
            i = tracer.open(po)
            try:
                return po_get(g)
            finally:
                tracer.close(i)

        self._patch(execgraph.Execution, "po", property(po_traced))

        rows = self.name_id("relalg.rows")
        rows_get = relalg.Rel.rows

        def rows_traced(rel):
            if rel._rows is not None:
                return rel._rows
            i = tracer.open(rows)
            try:
                return rows_get(rel)
            finally:
                tracer.close(i)

        self._patch(relalg.Rel, "rows", rows_traced)

    # -- the per-layer table ------------------------------------------------------------

    def totals(self):
        """name -> (calls, self seconds)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        name_of = self.name_of
        for i in range(n):
            k = name_of[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def per_layer(self, overhead):
        t = self.totals()

        def calls(name):
            return t.get(name, (0, 0.0))[0]

        def secs(*names):
            return sum(t.get(name, (0, 0.0))[1] for name in names)

        c = self.counts
        values = {
            "cli.run_one_s": secs("cli.run_one"),
            "program.parse_calls": calls("program.parse"),
            "program.parse_s": secs("program.parse"),
            "enumeration.thread_graphs_s": secs("enumeration.thread_graphs"),
            "enumeration.stream_s": secs("enumeration.stream"),
            "enumeration.candidates": c["enumeration.candidates"],
            "enumeration.consistent": c["enumeration.consistent"],
            "enumeration.useful_ratio": _ratio((c["enumeration.candidates"],
                                                c["enumeration.consistent"])),
            "enumeration.useful_ratio_cowr": _ratio(self.by_family.get("COWR")),
            "enumeration.useful_ratio_iriw": _ratio(self.by_family.get("IRIW")),
            "execgraph.build_calls": calls("execgraph.build"),
            "execgraph.build_s": secs("execgraph.build"),
            "execgraph.derive_calls": calls("execgraph.derive"),
            "execgraph.derive_s": secs("execgraph.derive"),
            "execgraph.po_s": secs("execgraph.po"),
            "relalg.rel_new": calls("relalg.rel_new"),
            "relalg.rel_new_s": secs("relalg.rel_new"),
            "relalg.from_rows_s": secs("relalg.from_rows"),
            "relalg.rows_s": secs("relalg.rows"),
            "kernels.compose_calls": calls("kernels.compose"),
            "kernels.closure_calls": calls("kernels.closure"),
            "kernels.cycle_calls": calls("kernels.cycle"),
            "kernels.s": secs(*KERNELS),
            "consistency.imm_s": secs("consistency.imm"),
            "consistency.imms_s": secs("consistency.imms"),
            "consistency.c11_s": secs("consistency.c11"),
            "consistency.rc11_s": secs("consistency.rc11"),
            "consistency.checks": c["consistency.checks"],
            "hwmodels.split_release_s": secs("hwmodels.split_release"),
            "hwmodels.to_power_s": secs("hwmodels.to_power"),
            "hwmodels.to_arm_s": secs("hwmodels.to_arm"),
            "hwmodels.check_power_s": secs("hwmodels.check_power"),
            "hwmodels.check_arm_s": secs("hwmodels.check_arm"),
            "hwmodels.ppo_fixpoint_s": secs("hwmodels.ppo_fixpoint"),
            "traversal.init_s": secs("traversal.init"),
            "traversal.traverse_s": secs("traversal.traverse"),
            "traversal.replay_s": secs("traversal.replay"),
            "traversal.steps": c["traversal.steps"],
            "certification.build_calls": calls("certification.build"),
            "certification.build_s": secs("certification.build"),
            "certification.compl_s": secs("certification.compl"),
            "certification.shape_changes": c["certification.shape_changes"],
            "promise.simulate_calls": calls("promise.simulate"),
            "promise.simulate_s": secs("promise.simulate"),
            "promise.certify_calls": calls("promise.certify"),
            "promise.certify_s": secs("promise.certify"),
            "trace.overhead": overhead,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path):
        """One line per span: id, parent, op, name, start, end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{names[self.name_of[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
        return len(self.start)


def _ratio(counts):
    """consistent / candidates, 0 where no candidate was drawn."""
    if not counts or not counts[0]:
        return 0.0
    return counts[1] / counts[0]


def table(metrics):
    """The per-layer metrics as aligned text, grouped by layer."""
    lines = []
    last = None
    for name, unit in PER_LAYER:
        layer = name.split(".")[0]
        if layer != last and last is not None:
            lines.append("")
        last = layer
        value = metrics[name]["value"]
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<32} {shown:>14} {unit}")
    return "\n".join(lines)
