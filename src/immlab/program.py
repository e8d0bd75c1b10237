"""Program AST, access-mode lattice, and the litmus text format.

SYNTAX states each memory instruction form once (mnemonic, bracketed modes,
operands); the reader, the printer and the operand walks all read it.

Values and locations are naturals; location names map to consecutive naturals
in declaration order, so address arithmetic (`r[rlx] b y+a`) can reach
locations beyond the declared names.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, replace
from operator import attrgetter

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
        def operand(e, right):
            # as the reader groups them: a comparison takes two sums, and a
            # sum groups to the left
            nested = isinstance(e, BinOp) and (
                e.op in _COMPARISONS or right and self.op not in _COMPARISONS)
            return f"({e})" if nested else str(e)
        op = "=" if self.op == "==" else self.op
        return f"{operand(self.left, False)} {op} {operand(self.right, True)}"


_COMPARISONS = ("==", "!=")


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


def _getter(names):
    """inst -> the tuple of its fields names, built once per class."""
    if len(names) == 1:
        return lambda inst, get=attrgetter(*names): (get(inst),)
    return attrgetter(*names) if names else lambda inst: ()


class MemoryInst:
    """A memory instruction, printed as SYNTAX states its form."""

    def __str__(self):
        mnemonic, modes, operands = SYNTAX[type(self)]
        spec = ",".join(getattr(self, name) for name, _, _ in modes)
        if len(modes) == 2 and self.rmw_mode == "strong":
            spec += ",strong"
        # a word per operand, as the reader reads them, but the last operand
        # of a one-mode form, which takes the rest of the line
        words = [str(getattr(self, name)).replace(" ", "") for name in operands]
        if len(modes) == 1 and operands:
            words[-1] = str(getattr(self, operands[-1]))
        return " ".join([f"{mnemonic}[{spec}]", *words])


@dataclass(frozen=True)
class Store(MemoryInst):
    mode: str
    loc: object  # expression
    value: object  # expression


@dataclass(frozen=True)
class Load(MemoryInst):
    mode: str
    reg: str
    loc: object


@dataclass(frozen=True)
class Fadd(MemoryInst):
    read_mode: str
    write_mode: str
    rmw_mode: str
    reg: str
    loc: object
    addend: object


@dataclass(frozen=True)
class Cas(MemoryInst):
    read_mode: str
    write_mode: str
    rmw_mode: str
    reg: str
    loc: object
    expected: object
    new: object


@dataclass(frozen=True)
class FenceInst(MemoryInst):
    mode: str


# The memory instruction forms: class -> (mnemonic, the mode fields in its
# brackets as (field, kind, allowed modes), its operands in order). A
# two-mode form may end its modes with `strong`, its rmw_mode; a one-mode
# form reads every word after its last but one operand as its last. The
# operand `reg` is the register the instruction writes, each other one an
# expression. A class's fields are its modes, rmw_mode on a two-mode form,
# then its operands.
_READ = ("read_mode", "read", READ_MODES)
_WRITE = ("write_mode", "write", WRITE_MODES)
SYNTAX = {
    Store: ("w", (("mode", "write", WRITE_MODES),), ("loc", "value")),
    Load: ("r", (("mode", "read", READ_MODES),), ("reg", "loc")),
    Fadd: ("fadd", (_READ, _WRITE), ("reg", "loc", "addend")),
    Cas: ("cas", (_READ, _WRITE), ("reg", "loc", "expected", "new")),
    FenceInst: ("f", (("mode", "fence", FENCE_MODES),), ()),
}
_FORMS = {mnemonic: (cls, *form) for cls, (mnemonic, *form) in SYNTAX.items()}
# every instruction class -> its operands: it writes `reg` and reads the rest
_OPERANDS = {Assign: ("reg", "expr"), IfGoto: ("expr",),
             **{cls: operands for cls, (_, _, operands) in SYNTAX.items()}}
_EXPRS = {cls: _getter(tuple(name for name in operands if name != "reg"))
          for cls, operands in _OPERANDS.items()}
_WRITERS = tuple(cls for cls, operands in _OPERANDS.items() if "reg" in operands)


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
    return frozenset(inst.reg for inst in body if isinstance(inst, _WRITERS))


def is_relaxed(inst):
    """inst lies in the relaxed fragment: no fadd, cas or fence, and every
    load and store rlx (an rmw has no `mode`, and no fence mode is rlx)."""
    return not isinstance(inst, MemoryInst) or getattr(inst, "mode", None) == "rlx"


def _inst_exprs(inst):
    """The expressions that inst reads, in operand order."""
    return _EXPRS[type(inst)](inst)


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
    if toks and toks[-1] in _COMPARISONS:
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
            for nm in locations:
                if not nm.isidentifier() or nm == "goto":
                    raise ParseError(f"bad location name {nm!r}", lineno)
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

    for lhs, _, lineno in assertion:  # no register has a location's name
        if not reg_counts[lhs] and lhs not in locations:
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
        """reg as the register the instruction writes: a name, not `goto`,
        which an `if` line reads as its keyword, and not a location's, which
        every expression would read as the location."""
        if not reg.isidentifier() or reg == "goto":
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
    mnemonic, _, spec = head.partition("[")
    if mnemonic not in _FORMS or not spec.endswith("]"):
        raise ParseError(f"unrecognized instruction {line!r}", lineno)
    cls, modes, operands = _FORMS[mnemonic]
    args = spec[:-1].split(",")  # the fields of cls, in order
    rmw = [args.pop() if args[-1] == "strong" else "normal"] if len(modes) == 2 else []
    if len(args) != len(modes):
        raise ParseError(f"expected {len(modes)} mode(s) in {head}", lineno)
    for (_, kind, allowed), mode in zip(modes, args):
        if mode not in allowed:
            raise ParseError(f"bad {kind} mode {mode!r}", lineno)
    args += rmw
    words, n = parts[1:], len(operands)
    if len(modes) == 1 and len(words) > n > 0:
        words[n - 1:] = [" ".join(words[n - 1:])]
    if len(words) != n:
        raise ParseError(f"{mnemonic} expects: {' '.join(operands) or 'no operand'}", lineno)
    for name, word in zip(operands, words):
        args.append(dest(word) if name == "reg" else expr(word))
    return cls(*args)


def print_litmus(test):
    """Inverse of parse_litmus on the canonical layout: str of each
    instruction, its location naming the declared locations."""
    out = [f'prog "{test.name}"']
    if test.program.locations:
        out.append("locations " + " ".join(test.program.locations))
    out.append(f"vals 0..{test.program.max_val}")
    names = {Lit(i): Reg(nm) for i, nm in enumerate(test.program.locations)}
    for tid, body in enumerate(test.program.threads):
        out.append(f"thread {tid}:")
        out += [f"  {replace(inst, loc=_subst(inst.loc, names)) if hasattr(inst, 'loc') else inst}"
                for inst in body]
    if test.assertion_kind:
        preds = " /\\ ".join(f"{nm}={v}" for nm, v in test.assertion)
        out.append(f"assert {test.assertion_kind}: {preds}")
    if test.expectations:
        out.append(
            "expect " + " ".join(f"{m}={v}" for m, v in sorted(test.expectations.items()))
        )
    return "\n".join(out) + "\n"
