"""Seeded random litmus programs and the property sweep over their candidates.

The sweep re-checks, per candidate: well-formedness by construction, the
model inclusions (imm ⇒ imms ⇒ nothing further, imm ⇒ c11, rc11 ⇒ c11), the
hardware mapping directions, release-split soundness, and, for relaxed-only
programs, the full traversal + promise round trip.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .consistency import check_c11, check_imm, check_imms, check_rc11
from .enumeration import UNROLL, EnumerationReport, candidate_executions
from .hwmodels import check_arm, check_power, split_release, to_arm, to_power
from .program import (
    Assign,
    BinOp,
    Cas,
    Fadd,
    FenceInst,
    IfGoto,
    Lit,
    Load,
    Program,
    Reg,
    Store,
)
from .promise import simulate_traversal
from .traversal import Traversal


LOCATIONS = ("x", "y", "z")
MAX_VAL = 2


@dataclass
class FuzzConfig:
    threads: tuple = (2, 3)
    max_instr: int = 4
    relaxed_only: bool = False
    max_candidates_per_program: int = 400


def random_program(rng, cfg):
    n_threads = rng.choice(cfg.threads)
    threads = []
    sc_budget = 3  # at most 3 SC fences; lifting it would change every seeded stream
    for tid in range(n_threads):
        body = []
        regs = []
        n = rng.randint(1, cfg.max_instr)
        for k in range(n):
            inst = _random_inst(rng, cfg, tid, regs, at=k, length=n)
            if isinstance(inst, FenceInst) and inst.mode == "sc":
                if sc_budget == 0:
                    inst = FenceInst("acqrel")
                else:
                    sc_budget -= 1
            body.append(inst)
        threads.append(body)
    return Program(threads=threads, locations=list(LOCATIONS), max_val=MAX_VAL)


def _value_expr(rng, regs):
    roll = rng.random()
    if regs and roll < 0.45:
        reg = rng.choice(regs)
        if roll < 0.15:
            return BinOp("+", Reg(reg), Lit(1))
        if roll < 0.25:
            return BinOp("-", Reg(reg), Lit(1))
        return Reg(reg)
    return Lit(rng.randint(1, 2))


def _random_inst(rng, cfg, tid, regs, at, length):
    loc = Lit(rng.randrange(len(LOCATIONS)))
    roll = rng.random()
    if cfg.relaxed_only:
        if roll < 0.45:
            return Store("rlx", loc, _value_expr(rng, regs))
        reg = f"r{tid}{len(regs)}"
        regs.append(reg)
        return Load("rlx", reg, loc)
    if roll < 0.34:
        mode = rng.choice(("rlx", "rlx", "rel"))
        return Store(mode, loc, _value_expr(rng, regs))
    if roll < 0.68:
        reg = f"r{tid}{len(regs)}"
        regs.append(reg)
        return Load(rng.choice(("rlx", "rlx", "acq")), reg, loc)
    if roll < 0.78:
        reg = f"r{tid}{len(regs)}"
        regs.append(reg)
        return Fadd(
            rng.choice(("rlx", "acq")), rng.choice(("rlx", "rel")),
            rng.choice(("normal", "strong")), reg, loc, Lit(1),
        )
    if roll < 0.84:
        reg = f"r{tid}{len(regs)}"
        regs.append(reg)
        return Cas(
            rng.choice(("rlx", "acq")), rng.choice(("rlx", "rel")),
            rng.choice(("normal", "strong")), reg, loc,
            Lit(rng.randint(0, 1)), Lit(rng.randint(1, 2)),
        )
    if roll < 0.92:
        return FenceInst(rng.choice(("acq", "rel", "acqrel", "sc")))
    if regs and at + 2 <= length:
        return IfGoto(Reg(rng.choice(regs)), rng.randint(at + 2, length))
    return Assign(f"r{tid}{len(regs)}", _value_expr(rng, regs)) if not regs else \
        Store("rlx", loc, _value_expr(rng, regs))


@dataclass
class FuzzReport:
    seed: int
    programs: int = 0
    candidates: int = 0
    relaxed_candidates: int = 0
    truncated: int = 0  # programs whose candidate search was cut short
    simulated: int = 0
    traversals: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def to_json(self):
        return {
            "schema": 1, "seed": self.seed, "programs": self.programs,
            "candidates": self.candidates, "relaxed_candidates": self.relaxed_candidates,
            "truncated": self.truncated,
            "traversals": self.traversals, "simulated": self.simulated,
            "violations": self.violations,
        }


CHECKS = ("inclusions", "mappings", "promise")


def fuzz_run(seed, count=50, cfg=None, checks=CHECKS, unroll=UNROLL):
    """Generate `count` programs from `seed` and sweep the property checks."""
    rng = random.Random(seed)
    cfg = cfg or FuzzConfig()
    report = FuzzReport(seed=seed)

    def bad(program, kind, detail=""):
        report.violations.append({
            "program": [[str(i) for i in body] for body in program.threads],
            "check": kind,
            "detail": detail,
        })

    for _ in range(count):
        program = random_program(rng, cfg)
        report.programs += 1
        relaxed = program.is_relaxed_only()
        enum = EnumerationReport()
        for cand in candidate_executions(
            program, unroll=unroll, max_candidates=cfg.max_candidates_per_program,
            report=enum,
        ):
            g = cand.execution
            report.candidates += 1
            wf = g.wellformed()
            if wf:
                bad(program, "wellformed", str(wf))
                continue
            # each verdict is computed once, and only where an implication
            # reads it: one whose premise fails needs no conclusion
            imm = check_imm(g).consistent
            if "inclusions" in checks:
                rc11 = check_rc11(g).consistent
                if imm and not check_imms(g).consistent:
                    bad(program, "imm=>imms")
                if (imm or rc11) and not check_c11(g).consistent:
                    if imm:
                        bad(program, "imm=>c11")
                    if rc11:
                        bad(program, "rc11=>c11")
            if "mappings" in checks and not imm:
                split = split_release(g)
                if check_power(to_power(split)).consistent:
                    bad(program, "power=>imm")
                if check_arm(to_arm(g)).consistent:
                    bad(program, "arm=>imm")
                if check_imm(split).consistent:
                    bad(program, "split-release-soundness")
            if "promise" in checks and relaxed and imm:
                report.relaxed_candidates += 1
                try:
                    trav = Traversal(g)
                    steps = trav.traverse()
                    report.traversals += 1
                    _, outcome = simulate_traversal(g, steps, program, unroll=unroll)
                    report.simulated += 1
                    if outcome != g.outcome():
                        bad(program, "promise-outcome",
                            f"{outcome} != {g.outcome()}")
                except Exception as err:  # a property sweep must not die mid-way
                    bad(program, "promise-exception", repr(err))
        if not enum.complete:
            report.truncated += 1
    return report
