"""Program AST, access-mode lattice, and the litmus text format.

Values and locations are naturals; location names map to consecutive naturals
in declaration order, so address arithmetic (`r[rlx] b y+a`) can reach
locations beyond the declared names.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, fields, replace

from .consistency import MODELS

MODES = ("rlx", "acq", "rel", "acqrel", "sc")
READ_MODES = ("rlx", "acq")
WRITE_MODES = ("rlx", "rel")
FENCE_MODES = ("acq", "rel", "acqrel", "sc")

# a ⊑ b: rlx below acq and rel, both below acqrel, acqrel below sc
_MODE_LEQ = frozenset({
    ("rlx", "rlx"), ("rlx", "acq"), ("rlx", "rel"), ("rlx", "acqrel"), ("rlx", "sc"),
    ("acq", "acq"), ("acq", "acqrel"), ("acq", "sc"),
    ("rel", "rel"), ("rel", "acqrel"), ("rel", "sc"),
    ("acqrel", "acqrel"), ("acqrel", "sc"),
    ("sc", "sc"),
})


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

    def candidate_values(self):
        """The values a read may return: the declared domain 0..max_val."""
        return tuple(range(self.max_val + 1))

    def is_relaxed_only(self):
        return all(is_relaxed(inst) for body in self.threads for inst in body)


def registers(body):
    """The registers of thread program body, those it writes and those it
    reads: its initial register map is λr.0 over them."""
    regs = set(_dest_regs(body))
    for inst in body:
        for e in _inst_exprs(inst):
            regs |= expr_regs(e)
    return frozenset(regs)


def _dest_regs(body):
    """The registers that the instructions of body write."""
    return frozenset(inst.reg for inst in body if isinstance(inst, (Assign, Load, Fadd, Cas)))


def is_relaxed(inst):
    """inst lies in the relaxed fragment: no fadd, cas or fence, and every
    load and store rlx."""
    if isinstance(inst, (Fadd, Cas, FenceInst)):
        return False
    return not isinstance(inst, (Load, Store)) or inst.mode == "rlx"


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


class ParseError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)


# -- expression parsing ------------------------------------------------------------

# one token per match: a number, a name, an operator, or a character that
# starts none of them
_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d]\w*)|(!=|==|[-+=()])|(\S))")


def parse_expr(text, lineno=None):
    toks = []
    for num, name, op, bad in _TOKEN.findall(text):
        if bad:
            raise ParseError(f"bad character {bad!r} in expression", lineno)
        if num:
            toks.append(Lit(int(num)))
        elif name:
            toks.append(Reg(name))
        else:
            toks.append("==" if op == "=" else op)
    toks.reverse()  # the next token is toks[-1]
    expr = _parse_cmp(toks, lineno)
    if toks:
        raise ParseError(f"trailing tokens in expression {text!r}", lineno)
    return expr


def _parse_cmp(toks, lineno):
    left = _parse_sum(toks, lineno)
    if toks and toks[-1] in ("==", "!="):
        return BinOp(toks.pop(), left, _parse_sum(toks, lineno))
    return left


def _parse_sum(toks, lineno):
    left = _parse_atom(toks, lineno)
    while toks and toks[-1] in ("+", "-"):
        left = BinOp(toks.pop(), left, _parse_atom(toks, lineno))
    return left


def _parse_atom(toks, lineno):
    tok = toks.pop() if toks else None
    if isinstance(tok, (Lit, Reg)):
        return tok
    if tok == "(":
        inner = _parse_cmp(toks, lineno)
        if not toks or toks.pop() != ")":
            raise ParseError("expected ')'", lineno)
        return inner
    raise ParseError("expected expression atom", lineno)


# -- litmus parsing ------------------------------------------------------------------

_HEADERS = ("prog", "locations", "vals", "thread", "assert", "expect")
_WORD = re.compile(r"\w*")


def _int(text, lineno):
    """text as an integer, or a ParseError naming the line."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text.strip()!r}", lineno) from None


def _parse_modes(spec, lineno, n_modes):
    """The modes in [spec] and the rmw mode: only an rmw (n_modes 2) may end
    them with strong."""
    parts = [p.strip() for p in spec.split(",")]
    rmw = "strong" if n_modes == 2 and parts[-1] == "strong" else "normal"
    if rmw == "strong":
        parts.pop()
    if len(parts) != n_modes:
        raise ParseError(f"expected {n_modes} mode(s) in [{spec}]", lineno)
    return parts, rmw


def _subst(expr, leaves):
    """expr with each leaf (a Reg or Lit) that leaves maps replaced by its
    image: {Reg(name): Lit(number)} reads declared locations as numbers,
    and its inverse prints them back."""
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _subst(expr.left, leaves), _subst(expr.right, leaves))
    return leaves.get(expr, expr)


def parse_litmus(text, path=None):
    """Parse the line-oriented litmus format into a LitmusTest.

    A line is a header when its first whole word is one of _HEADERS; any
    other line is an instruction of the thread above it. prog, locations,
    vals and assert come at most once, and expect names each of
    consistency.MODELS at most once. Every malformed input, bytes that are
    not UTF-8 among them, raises ParseError."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ParseError(f"bytes that are not UTF-8: {err.reason}",
                             text.count(b"\n", 0, err.start) + 1) from None
    name = None
    locations = []
    max_val = 2
    bodies = {}  # tid -> [(lineno, instruction text)]
    current = None
    assertion = []  # [(name, value, lineno)]
    assertion_kind = None
    expectations = {}
    seen = set()  # the first words of the lines so far

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word = _WORD.match(line).group()
        rest = line[len(word):].strip()
        if word in seen and word in ("prog", "locations", "vals", "assert"):
            raise ParseError(f"second {word} header", lineno)
        seen.add(word)
        if word not in _HEADERS:
            if current is None:
                raise ParseError(f"instruction outside thread: {line!r}", lineno)
            current.append((lineno, line))
        elif word == "prog":
            name = rest.strip('"')
        elif word == "locations":
            locations = rest.split()
            if len(set(locations)) != len(locations):
                raise ParseError("duplicate location", lineno)
        elif word == "vals":
            lo, dots, hi = rest.partition("..")
            if not dots:
                raise ParseError("vals expects lo..hi", lineno)
            if _int(lo, lineno) != 0:
                raise ParseError("value domain must start at 0", lineno)
            max_val = _int(hi, lineno)
            if max_val < 0:
                raise ParseError(f"value domain 0..{max_val} is empty", lineno)
        elif word == "thread":
            head, _, after = rest.partition(":")
            if after.strip():
                raise ParseError(f"text after thread header: {after.strip()!r}", lineno)
            tid = _int(head, lineno)
            if tid in bodies:
                raise ParseError(f"duplicate thread {tid}", lineno)
            current = bodies[tid] = []
        elif word == "assert":
            kind, _, preds = rest.partition(":")
            assertion_kind = kind.strip()
            if assertion_kind not in ("allowed", "forbidden"):
                raise ParseError("assert expects allowed|forbidden", lineno)
            assertion = []
            for clause in filter(None, map(str.strip, preds.split("/\\"))):
                lhs, eq, rhs = clause.partition("=")
                if not eq:
                    raise ParseError(f"assertion clause {clause!r} is not an equality", lineno)
                assertion.append((lhs.strip(), _int(rhs, lineno), lineno))
        else:
            for item in rest.split():
                model, _, verdict = item.partition("=")
                if model not in MODELS or verdict not in ("allowed", "forbidden"):
                    raise ParseError(f"bad expectation {item!r}", lineno)
                if model in expectations:
                    raise ParseError(f"second expectation for {model}", lineno)
                expectations[model] = verdict

    if sorted(bodies) != list(range(len(bodies))):
        raise ParseError(f"thread ids must be contiguous from 0, got {sorted(bodies)}")

    loc_leaves = {Reg(nm): Lit(i) for i, nm in enumerate(locations)}
    threads = []
    reg_counts = Counter()  # register -> number of threads that assign it
    for tid in range(len(bodies)):
        lines = bodies[tid]
        body = []
        for lineno, line in lines:
            inst = _parse_instruction(line, lineno, loc_leaves)
            if isinstance(inst, IfGoto) and not 0 <= inst.target <= len(lines):
                raise ParseError(
                    f"goto out of range: {inst.target} in a {len(lines)}-line thread", lineno)
            body.append(inst)
        assigned = _dest_regs(body)
        for (lineno, _), inst in zip(lines, body):
            unknown = frozenset().union(*map(expr_regs, _inst_exprs(inst))) - assigned
            if unknown:
                raise ParseError(f"undeclared register or location {min(unknown)!r} "
                                 f"in thread {tid}", lineno)
        reg_counts.update(assigned)
        threads.append(body)

    for lhs, _, lineno in assertion:
        if lhs in locations:
            continue
        if not reg_counts[lhs]:
            raise ParseError(f"undeclared register or location {lhs!r} in assertion", lineno)
        if reg_counts[lhs] > 1:
            raise ParseError(f"register {lhs!r} is ambiguous across threads", lineno)

    return LitmusTest(
        name=name or (path or "unnamed"),
        program=Program(threads=threads, locations=locations, max_val=max_val),
        assertion=[(lhs, value) for lhs, value, _ in assertion],
        assertion_kind=assertion_kind,
        expectations=expectations,
    )


def _parse_instruction(line, lineno, loc_leaves):
    def expr(text):
        return _subst(parse_expr(text, lineno), loc_leaves)

    def dest(reg):
        """reg as the register the instruction writes: a name, and not a
        location's, which every expression would read as the location."""
        if not reg.isidentifier():
            raise ParseError(f"bad register name {reg!r}", lineno)
        if Reg(reg) in loc_leaves:
            raise ParseError(f"register {reg!r} has the name of a location", lineno)
        return reg

    if ":=" in line:
        reg, _, rhs = line.partition(":=")
        return Assign(dest(reg.strip()), expr(rhs))
    parts = line.split()
    head = parts[0]
    if head == "if":
        if "goto" not in parts:
            raise ParseError("if expects 'goto N'", lineno)
        goto_at = parts.index("goto")
        return IfGoto(expr(" ".join(parts[1:goto_at])),
                      _int(" ".join(parts[goto_at + 1:]), lineno))
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
        return Load(mode, dest(rest[0]), expr(" ".join(rest[1:])))
    if mnemonic == "f":
        (mode,), _ = _parse_modes(modes_spec, lineno, 1)
        if mode not in FENCE_MODES:
            raise ParseError(f"bad fence mode {mode!r}", lineno)
        if rest:
            raise ParseError("f[o] takes no operand", lineno)
        return FenceInst(mode)
    if mnemonic == "fadd":
        (rmode, wmode), rmw = _parse_modes(modes_spec, lineno, 2)
        if rmode not in READ_MODES or wmode not in WRITE_MODES:
            raise ParseError(f"bad fadd modes [{modes_spec}]", lineno)
        if len(rest) != 3:
            raise ParseError("fadd expects: reg loc addend", lineno)
        return Fadd(rmode, wmode, rmw, dest(rest[0]), expr(rest[1]), expr(rest[2]))
    if mnemonic == "cas":
        (rmode, wmode), rmw = _parse_modes(modes_spec, lineno, 2)
        if rmode not in READ_MODES or wmode not in WRITE_MODES:
            raise ParseError(f"bad cas modes [{modes_spec}]", lineno)
        if len(rest) != 4:
            raise ParseError("cas expects: reg loc expected new", lineno)
        return Cas(rmode, wmode, rmw, dest(rest[0]), expr(rest[1]), expr(rest[2]), expr(rest[3]))
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
    """inst as text that parse_litmus reads back: its location naming the
    declared locations, and each operand one word but the last of a load or
    store, the only one the reader lets hold spaces."""
    if not hasattr(inst, "loc"):
        return str(inst)
    names = {Lit(i): Reg(nm) for i, nm in enumerate(program.locations)}
    inst = replace(inst, loc=_subst(inst.loc, names))
    last = {Store: "value", Load: "loc"}.get(type(inst))
    return str(replace(inst, **{f.name: str(getattr(inst, f.name)).replace(" ", "")
                                for f in fields(inst) if f.name != last}))
