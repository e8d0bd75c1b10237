"""Program AST, access-mode lattice, and the litmus text format.

Values and locations are naturals; location names map to consecutive naturals
in declaration order, so address arithmetic (`r[rlx] b y+a`) can reach
locations beyond the declared names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

MODES = ("rlx", "acq", "rel", "acqrel", "sc")
READ_MODES = ("rlx", "acq")
WRITE_MODES = ("rlx", "rel")
FENCE_MODES = ("acq", "rel", "acqrel", "sc")
RMW_MODES = ("normal", "strong")

_MODE_GENERATORS = {
    ("rlx", "acq"),
    ("rlx", "rel"),
    ("acq", "acqrel"),
    ("rel", "acqrel"),
    ("acqrel", "sc"),
}


def _close_mode_order():
    order = set(_MODE_GENERATORS)
    order |= {(m, m) for m in MODES}
    changed = True
    while changed:
        changed = False
        for a, b in list(order):
            for c, d in list(order):
                if b == c and (a, d) not in order:
                    order.add((a, d))
                    changed = True
    return frozenset(order)


_MODE_LEQ = _close_mode_order()


def mode_leq(a, b):
    """a ⊑ b in the access-mode order."""
    return (a, b) in _MODE_LEQ


# -- expressions ----------------------------------------------------------------


@dataclass(frozen=True)
class Reg:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Lit:
    value: int

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '==', '!='
    left: object
    right: object

    def __str__(self):
        op = {"==": "="}.get(self.op, self.op)
        return f"{self.left} {op} {self.right}"


class UnboundRegister(KeyError):
    pass


def eval_expr(expr, regs):
    """Natural-number evaluation; subtraction saturates at 0."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Reg):
        if expr.name not in regs:
            raise UnboundRegister(expr.name)
        return regs[expr.name]
    if isinstance(expr, BinOp):
        lhs = eval_expr(expr.left, regs)
        rhs = eval_expr(expr.right, regs)
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return max(0, lhs - rhs)
        if expr.op == "==":
            return 1 if lhs == rhs else 0
        if expr.op == "!=":
            return 1 if lhs != rhs else 0
    raise TypeError(f"not an expression: {expr!r}")


def expr_regs(expr):
    if isinstance(expr, Reg):
        return frozenset((expr.name,))
    if isinstance(expr, BinOp):
        return expr_regs(expr.left) | expr_regs(expr.right)
    return frozenset()


def expr_lits(expr):
    if isinstance(expr, Lit):
        return frozenset((expr.value,))
    if isinstance(expr, BinOp):
        return expr_lits(expr.left) | expr_lits(expr.right)
    return frozenset()


# -- instructions ----------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    reg: str
    expr: object

    def __str__(self):
        return f"{self.reg} := {self.expr}"


@dataclass(frozen=True)
class IfGoto:
    expr: object
    target: int

    def __str__(self):
        return f"if {self.expr} goto {self.target}"


@dataclass(frozen=True)
class Store:
    mode: str
    loc: object  # expression
    value: object  # expression

    def __str__(self):
        return f"w[{self.mode}] {self.loc} {self.value}"


@dataclass(frozen=True)
class Load:
    mode: str
    reg: str
    loc: object

    def __str__(self):
        return f"r[{self.mode}] {self.reg} {self.loc}"


@dataclass(frozen=True)
class Fadd:
    read_mode: str
    write_mode: str
    rmw_mode: str
    reg: str
    loc: object
    addend: object

    def __str__(self):
        strong = ",strong" if self.rmw_mode == "strong" else ""
        return f"fadd[{self.read_mode},{self.write_mode}{strong}] {self.reg} {self.loc} {self.addend}"


@dataclass(frozen=True)
class Cas:
    read_mode: str
    write_mode: str
    rmw_mode: str
    reg: str
    loc: object
    expected: object
    new: object

    def __str__(self):
        strong = ",strong" if self.rmw_mode == "strong" else ""
        return (
            f"cas[{self.read_mode},{self.write_mode}{strong}] "
            f"{self.reg} {self.loc} {self.expected} {self.new}"
        )


@dataclass(frozen=True)
class FenceInst:
    mode: str

    def __str__(self):
        return f"f[{self.mode}]"


@dataclass
class Program:
    threads: list  # list of instruction lists, thread ids 0..n-1
    locations: list  # declared location names, index = numeric location
    max_val: int = 2

    def thread_regs(self, tid):
        regs = set()
        for inst in self.threads[tid]:
            if isinstance(inst, (Assign, Load, Fadd, Cas)):
                regs.add(inst.reg)
            for e in _inst_exprs(inst):
                regs |= expr_regs(e)
        return frozenset(regs)

    def literals(self):
        lits = {0}
        for body in self.threads:
            for inst in body:
                for e in _inst_exprs(inst):
                    lits |= expr_lits(e)
        return frozenset(lits)

    def candidate_values(self):
        """Read-value candidates: 0, program literals, fadd closure; ≤ max_val."""
        vals = {v for v in self.literals() if v <= self.max_val}
        addends = set()
        for body in self.threads:
            for inst in body:
                if isinstance(inst, Fadd):
                    addends |= {v for v in expr_lits(inst.addend)}
        changed = True
        while changed:
            changed = False
            for v in list(vals):
                for a in addends:
                    if v + a <= self.max_val and v + a not in vals:
                        vals.add(v + a)
                        changed = True
        return tuple(sorted(vals))

    def is_relaxed_only(self):
        for body in self.threads:
            for inst in body:
                if isinstance(inst, (Fadd, Cas, FenceInst)):
                    return False
                if isinstance(inst, Store) and inst.mode != "rlx":
                    return False
                if isinstance(inst, Load) and inst.mode != "rlx":
                    return False
        return True


def _inst_exprs(inst):
    if isinstance(inst, Assign):
        return (inst.expr,)
    if isinstance(inst, IfGoto):
        return (inst.expr,)
    if isinstance(inst, Store):
        return (inst.loc, inst.value)
    if isinstance(inst, Load):
        return (inst.loc,)
    if isinstance(inst, Fadd):
        return (inst.loc, inst.addend)
    if isinstance(inst, Cas):
        return (inst.loc, inst.expected, inst.new)
    return ()


@dataclass
class LitmusTest:
    name: str
    program: Program
    assertion: list  # [(name, value), ...] conjunction
    assertion_kind: str | None  # 'allowed' | 'forbidden' | None
    expectations: dict = field(default_factory=dict)  # model -> 'allowed'|'forbidden'
    path: str | None = None


class ParseError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)


# -- expression parsing ------------------------------------------------------------


class _Tokens:
    def __init__(self, text, lineno):
        self.toks = []
        self.lineno = lineno
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
            elif c.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("int", int(text[i:j])))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j]))
                i = j
            elif text.startswith("!=", i):
                self.toks.append(("op", "!="))
                i += 2
            elif text.startswith("==", i):
                self.toks.append(("op", "=="))
                i += 2
            elif c in "+-=()":
                self.toks.append(("op", "==" if c == "=" else c))
                i += 1
            else:
                raise ParseError(f"bad character {c!r} in expression", lineno)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok


def parse_expr(text, lineno=None):
    toks = _Tokens(text, lineno)
    expr = _parse_cmp(toks)
    if toks.peek()[0] is not None:
        raise ParseError(f"trailing tokens in expression {text!r}", lineno)
    return expr


def _parse_cmp(toks):
    left = _parse_sum(toks)
    kind, val = toks.peek()
    if kind == "op" and val in ("==", "!="):
        toks.next()
        right = _parse_sum(toks)
        return BinOp(val, left, right)
    return left


def _parse_sum(toks):
    left = _parse_atom(toks)
    while True:
        kind, val = toks.peek()
        if kind == "op" and val in ("+", "-"):
            toks.next()
            right = _parse_atom(toks)
            left = BinOp(val, left, right)
        else:
            return left


def _parse_atom(toks):
    kind, val = toks.next()
    if kind == "int":
        return Lit(val)
    if kind == "name":
        return Reg(val)
    if kind == "op" and val == "(":
        inner = _parse_cmp(toks)
        kind, val = toks.next()
        if (kind, val) != ("op", ")"):
            raise ParseError("expected ')'", toks.lineno)
        return inner
    raise ParseError("expected expression atom", toks.lineno)


# -- litmus parsing ------------------------------------------------------------------


def _parse_modes(spec, lineno, n_modes):
    parts = [p.strip() for p in spec.split(",")]
    strong = False
    if parts and parts[-1] == "strong":
        strong = True
        parts = parts[:-1]
    if len(parts) != n_modes:
        raise ParseError(f"expected {n_modes} mode(s) in [{spec}]", lineno)
    return parts, "strong" if strong else "normal"


def _subst(expr, leaves):
    """expr with each leaf (a Reg or Lit) that leaves maps replaced by its
    image: {Reg(name): Lit(number)} reads declared locations as numbers,
    and its inverse prints them back."""
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _subst(expr.left, leaves), _subst(expr.right, leaves))
    return leaves.get(expr, expr)


def parse_litmus(text, path=None):
    """Parse the line-oriented litmus format into a LitmusTest."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    name = None
    locations = []
    max_val = 2
    threads = {}
    current = None
    assertion = None
    assertion_kind = None
    expectations = {}
    raw_bodies = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("prog"):
            rest = line[4:].strip()
            name = rest.strip('"')
        elif line.startswith("locations"):
            locations = line.split()[1:]
            if len(set(locations)) != len(locations):
                raise ParseError("duplicate location", lineno)
        elif line.startswith("vals"):
            rest = line.split(None, 1)[1]
            if ".." not in rest:
                raise ParseError("vals expects lo..hi", lineno)
            lo, hi = rest.split("..")
            if int(lo) != 0:
                raise ParseError("value domain must start at 0", lineno)
            max_val = int(hi)
        elif line.startswith("thread"):
            head = line.split(":")[0]
            tid = int(head.split()[1])
            if tid in raw_bodies:
                raise ParseError(f"duplicate thread {tid}", lineno)
            raw_bodies[tid] = []
            current = tid
        elif line.startswith("assert"):
            head, _, preds = line.partition(":")
            kind = head.split()[1] if len(head.split()) > 1 else None
            if kind not in ("allowed", "forbidden"):
                raise ParseError("assert expects allowed|forbidden", lineno)
            assertion_kind = kind
            assertion = []
            for clause in preds.split("/\\"):
                clause = clause.strip()
                if not clause:
                    continue
                if "=" not in clause:
                    raise ParseError(f"assertion clause {clause!r} is not an equality", lineno)
                lhs, rhs = clause.split("=", 1)
                assertion.append((lhs.strip(), int(rhs.strip()), lineno))
        elif line.startswith("expect"):
            for item in line.split()[1:]:
                model, _, verdict = item.partition("=")
                if verdict not in ("allowed", "forbidden"):
                    raise ParseError(f"bad expectation {item!r}", lineno)
                expectations[model] = verdict
        else:
            if current is None:
                raise ParseError(f"instruction outside thread: {line!r}", lineno)
            raw_bodies[current].append((lineno, line))

    if sorted(raw_bodies) != list(range(len(raw_bodies))):
        raise ParseError(f"thread ids must be contiguous from 0, got {sorted(raw_bodies)}")

    loc_leaves = {Reg(nm): Lit(i) for i, nm in enumerate(locations)}
    for tid in sorted(raw_bodies):
        threads[tid] = [
            _parse_instruction(line, lineno, loc_leaves) for lineno, line in raw_bodies[tid]
        ]
    for tid, body in threads.items():
        for lineno_line, inst in zip(raw_bodies[tid], body):
            if isinstance(inst, IfGoto) and not (0 <= inst.target <= len(body)):
                raise ParseError(
                    f"goto out of range: {inst.target} in a {len(body)}-line thread",
                    lineno_line[0],
                )

    program = Program(
        threads=[threads[t] for t in sorted(threads)],
        locations=locations,
        max_val=max_val,
    )

    for tid, body in enumerate(program.threads):
        assigned = {
            inst.reg for inst in body if isinstance(inst, (Assign, Load, Fadd, Cas))
        }
        for inst in body:
            for e in _inst_exprs(inst):
                for reg in expr_regs(e):
                    if reg not in assigned:
                        raise ParseError(
                            f"undeclared register or location {reg!r} in thread {tid}"
                        )

    known_regs = set()
    for tid in range(len(program.threads)):
        known_regs |= program.thread_regs(tid)
    reg_counts = {}
    for tid in range(len(program.threads)):
        for r in program.thread_regs(tid):
            reg_counts[r] = reg_counts.get(r, 0) + 1
    checked_assertion = []
    for lhs, rhs, lineno in assertion or []:
        if lhs in locations:
            checked_assertion.append((lhs, rhs))
        elif lhs in known_regs:
            if reg_counts.get(lhs, 0) > 1:
                raise ParseError(f"register {lhs!r} is ambiguous across threads", lineno)
            checked_assertion.append((lhs, rhs))
        else:
            raise ParseError(f"undeclared register or location {lhs!r} in assertion", lineno)

    return LitmusTest(
        name=name or (path or "unnamed"),
        program=program,
        assertion=checked_assertion,
        assertion_kind=assertion_kind,
        expectations=expectations,
        path=path,
    )


def _parse_instruction(line, lineno, loc_leaves):
    def expr(text):
        return _subst(parse_expr(text, lineno), loc_leaves)

    if ":=" in line:
        reg, _, rhs = line.partition(":=")
        reg = reg.strip()
        if not reg.isidentifier():
            raise ParseError(f"bad register name {reg!r}", lineno)
        return Assign(reg, expr(rhs))
    parts = line.split()
    head = parts[0]
    if head == "if":
        try:
            goto_at = parts.index("goto")
        except ValueError:
            raise ParseError("if expects 'goto N'", lineno) from None
        cond = " ".join(parts[1:goto_at])
        target = int(parts[goto_at + 1])
        return IfGoto(expr(cond), target)
    if "[" not in head or not head.endswith("]"):
        raise ParseError(f"unrecognized instruction {line!r}", lineno)
    mnemonic, modes_spec = head[:-1].split("[", 1)
    rest = parts[1:]
    if mnemonic == "w":
        (mode,), _ = _parse_modes(modes_spec, lineno, 1)
        if mode not in WRITE_MODES:
            raise ParseError(f"bad write mode {mode!r}", lineno)
        if len(rest) < 2:
            raise ParseError("w[o] expects: loc value", lineno)
        return Store(mode, expr(rest[0]), expr(" ".join(rest[1:])))
    if mnemonic == "r":
        (mode,), _ = _parse_modes(modes_spec, lineno, 1)
        if mode not in READ_MODES:
            raise ParseError(f"bad read mode {mode!r}", lineno)
        if len(rest) < 2:
            raise ParseError("r[o] expects: reg loc", lineno)
        return Load(mode, rest[0], expr(" ".join(rest[1:])))
    if mnemonic == "f":
        (mode,), _ = _parse_modes(modes_spec, lineno, 1)
        if mode not in FENCE_MODES:
            raise ParseError(f"bad fence mode {mode!r}", lineno)
        return FenceInst(mode)
    if mnemonic == "fadd":
        (rmode, wmode), rmw = _parse_modes(modes_spec, lineno, 2)
        if rmode not in READ_MODES or wmode not in WRITE_MODES:
            raise ParseError(f"bad fadd modes [{modes_spec}]", lineno)
        if len(rest) != 3:
            raise ParseError("fadd expects: reg loc addend", lineno)
        return Fadd(rmode, wmode, rmw, rest[0], expr(rest[1]), expr(rest[2]))
    if mnemonic == "cas":
        (rmode, wmode), rmw = _parse_modes(modes_spec, lineno, 2)
        if rmode not in READ_MODES or wmode not in WRITE_MODES:
            raise ParseError(f"bad cas modes [{modes_spec}]", lineno)
        if len(rest) != 4:
            raise ParseError("cas expects: reg loc expected new", lineno)
        return Cas(rmode, wmode, rmw, rest[0], expr(rest[1]), expr(rest[2]), expr(rest[3]))
    raise ParseError(f"unrecognized instruction {line!r}", lineno)


def print_litmus(test):
    """Inverse of parse_litmus on the canonical layout."""
    out = [f'prog "{test.name}"']
    if test.program.locations:
        out.append("locations " + " ".join(test.program.locations))
    out.append(f"vals 0..{test.program.max_val}")
    for tid, body in enumerate(test.program.threads):
        out.append(f"thread {tid}:")
        for inst in body:
            out.append("  " + _print_inst(inst, test.program))
    if test.assertion_kind:
        preds = " /\\ ".join(f"{nm}={v}" for nm, v in test.assertion)
        out.append(f"assert {test.assertion_kind}: {preds}")
    if test.expectations:
        out.append(
            "expect " + " ".join(f"{m}={v}" for m, v in sorted(test.expectations.items()))
        )
    return "\n".join(out) + "\n"


def _print_inst(inst, program):
    """inst as text, its location naming the declared locations."""
    if not hasattr(inst, "loc"):
        return str(inst)
    names = {Lit(i): Reg(nm) for i, nm in enumerate(program.locations)}
    return str(replace(inst, loc=_subst(inst.loc, names)))
