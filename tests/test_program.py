import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from immlab.consistency import check_imm
from immlab.enumeration import candidate_executions
from immlab.fuzz import FuzzConfig, random_program
from immlab.program import (
    FENCE_MODES,
    MODES,
    READ_MODES,
    WRITE_MODES,
    Assign,
    BinOp,
    Cas,
    Fadd,
    FenceInst,
    IfGoto,
    Lit,
    LitmusTest,
    Load,
    ParseError,
    Program,
    Reg,
    Store,
    UnboundRegister,
    eval_expr,
    mode_leq,
    parse_expr,
    parse_litmus,
    print_litmus,
)

MP = """
prog "MP"
locations x y
vals 0..2
thread 0:
  w[rlx] x 1
  w[rel] y 1
thread 1:
  r[acq] a y
  r[rlx] b x
assert forbidden: a=1 /\\ b=0
expect imm=forbidden power=forbidden arm=forbidden
"""


class TestModeOrder:
    def test_rlx_below_sc(self):
        assert mode_leq("rlx", "sc")

    def test_acq_rel_incomparable(self):
        assert not mode_leq("acq", "rel")
        assert not mode_leq("rel", "acq")

    def test_reflexive(self):
        for m in MODES:
            assert mode_leq(m, m)

    def test_partial_order(self):
        for a, b in itertools.product(MODES, MODES):
            if mode_leq(a, b) and mode_leq(b, a):
                assert a == b
            for c in MODES:
                if mode_leq(a, b) and mode_leq(b, c):
                    assert mode_leq(a, c)

    def test_generators(self):
        assert mode_leq("rlx", "acq")
        assert mode_leq("rlx", "rel")
        assert mode_leq("acq", "acqrel")
        assert mode_leq("rel", "acqrel")
        assert mode_leq("acqrel", "sc")
        assert not mode_leq("sc", "rlx")


class TestParse:
    def test_mp(self):
        t = parse_litmus(MP.encode())
        assert t.name == "MP"
        assert len(t.program.threads) == 2
        assert all(len(body) == 2 for body in t.program.threads)
        assert isinstance(t.program.threads[0][0], Store)
        assert t.program.threads[0][1].mode == "rel"
        assert isinstance(t.program.threads[1][0], Load)
        assert t.assertion == [("a", 1), ("b", 0)]
        assert t.assertion_kind == "forbidden"
        assert t.expectations["imm"] == "forbidden"

    def test_empty_thread_body(self):
        t = parse_litmus('prog "E"\nlocations x\nthread 0:\nthread 1:\n  w[rlx] x 1\n')
        assert t.program.threads[0] == []
        assert len(t.program.threads[1]) == 1

    def test_goto_out_of_range(self):
        src = 'prog "G"\nlocations x\nthread 0:\n  r[rlx] a x\n  if a != 0 goto 99\n  w[rlx] x 1\n'
        with pytest.raises(ParseError, match="goto out of range"):
            parse_litmus(src)

    def test_goto_one_past_end_ok(self):
        src = 'prog "G"\nlocations x\nthread 0:\n  r[rlx] a x\n  if a != 0 goto 2\n'
        t = parse_litmus(src)
        assert t.program.threads[0][1].target == 2

    def test_rmw_mnemonics(self):
        src = (
            'prog "RMW"\nlocations x\nvals 0..2\nthread 0:\n'
            "  fadd[rlx,rel,strong] a x 1\n"
            "  cas[acq,rlx] b x 0 2\n"
        )
        t = parse_litmus(src)
        fadd, cas = t.program.threads[0]
        assert isinstance(fadd, Fadd) and fadd.rmw_mode == "strong"
        assert fadd.write_mode == "rel"
        assert isinstance(cas, Cas) and cas.rmw_mode == "normal"

    def test_undeclared_register(self):
        src = 'prog "U"\nlocations x\nthread 0:\n  w[rlx] x q\n'
        with pytest.raises(ParseError, match="undeclared register or location"):
            parse_litmus(src)

    def test_undeclared_assertion_name(self):
        src = 'prog "U"\nlocations x\nthread 0:\n  w[rlx] x 1\nassert allowed: q=1\n'
        with pytest.raises(ParseError, match="undeclared register or location"):
            parse_litmus(src)

    def test_ambiguous_assertion_register(self):
        src = (
            'prog "A"\nlocations x\nthread 0:\n  r[rlx] a x\n'
            "thread 1:\n  r[rlx] a x\nassert allowed: a=0\n"
        )
        with pytest.raises(ParseError, match="ambiguous"):
            parse_litmus(src)

    def test_location_arithmetic(self):
        src = 'prog "L"\nlocations x y\nthread 0:\n  r[rlx] a x\n  r[rlx] b y + a\n'
        t = parse_litmus(src)
        load = t.program.threads[0][1]
        assert isinstance(load.loc, BinOp)
        assert load.loc.left == Lit(1)  # y is the second declared location

    def test_bad_mode(self):
        with pytest.raises(ParseError, match="bad write mode"):
            parse_litmus('prog "B"\nlocations x\nthread 0:\n  w[acq] x 1\n')

    def test_text_after_a_thread_header(self):
        # it once was dropped without a word
        with pytest.raises(ParseError, match="text after thread header: 'w") as err:
            parse_litmus('prog "T"\nlocations x\nthread 0: w[rlx] x 1\n')
        assert err.value.line == 3

    def test_thread_ids_contiguous(self):
        with pytest.raises(ParseError, match="contiguous"):
            parse_litmus('prog "T"\nlocations x\nthread 1:\n  w[rlx] x 1\n')


HEAD = 'prog "P"\nlocations x\n'
ONE_STORE = "thread 0:\n  w[rlx] x 1\n"
CLASH = 'prog "P"\nlocations x y\nthread 0:\n  w[rlx] x 1\n  r[rlx] x y\n  w[rlx] y x + 1\n'


class TestMalformed:
    # each of these once escaped the reader as a ValueError, IndexError or
    # UnicodeDecodeError
    @pytest.mark.parametrize("text, line", [
        (HEAD + "vals 0..two\n" + ONE_STORE, 3),
        (HEAD + "thread zero:\n  w[rlx] x 1\n", 3),
        (HEAD + "thread 0:\n  r[rlx] a x\n  if a goto two\n", 5),
        (HEAD + ONE_STORE + "assert allowed: x=one\n", 5),
        (HEAD + "thread 0:\n  w[rlx] x ²\n", 4),
        (HEAD + "vals\n" + ONE_STORE, 3),
        (HEAD + "thread:\n  w[rlx] x 1\n", 3),
        (HEAD + "thread 0:\n  r[rlx] a x\n  if a goto\n", 5),
        (HEAD + "thread 0:\n  threads :=\n", 4),
        ((HEAD + ONE_STORE).encode() + b"  w[rlx] x \xff\n", 5),
        (HEAD + "thread 0:\n  r[rlx] 5 x\n", 4),
        (HEAD + ONE_STORE + "  fadd[rlx,rlx] 5 x 1\n", 5),
        (HEAD + "thread 0:\n  cas[rlx,rlx] 7 x 0 1\n", 4),
        (CLASH, 5),
        (HEAD + "thread 0:\n  w[rlx] x 1\n  x := 2\n", 5),
        (HEAD + ONE_STORE + "expect immm=allowed\n", 5),
        (HEAD + ONE_STORE + "expect imm=allowed imm=forbidden\n", 5),
        (HEAD + "thread 0:\n  w[rel,strong] x 1\n", 4),
        (HEAD + "thread 0:\n  r[acq,strong] a x\n", 4),
        (HEAD + "thread 0:\n  f[sc,strong]\n", 4),
        (HEAD + "thread 0:\n  f[sc] x 1\n", 4),
        (HEAD + 'prog "Q"\n' + ONE_STORE, 3),
        (HEAD + "locations y\n" + ONE_STORE, 3),
        (HEAD + "vals 0..1\nvals 0..2\n" + ONE_STORE, 4),
        (HEAD + ONE_STORE + "assert allowed: x=1\nassert forbidden: x=1\n", 6),
        ('prog "P"\nlocations 1 x\n' + ONE_STORE, 2),
        ('prog "P"\nlocations x-y\n' + "thread 0:\n  w[rlx] x-y 1\n", 2),
    ], ids=["vals-word", "thread-word", "goto-word", "assert-word", "superscript-digit",
            "bare-vals", "bare-thread", "goto-no-target", "register-threads", "not-utf8",
            "load-into-number", "fadd-into-number", "cas-into-number",
            "load-into-location", "assign-into-location", "unknown-model",
            "model-expected-twice", "strong-store", "strong-load", "strong-fence",
            "fence-operands", "second-prog", "second-locations", "second-vals",
            "second-assert", "location-number", "location-dash"])
    def test_malformed_input_is_a_parse_error(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_litmus(text)
        assert err.value.line == line

    def test_an_empty_value_domain_is_a_parse_error(self):
        # `vals 0..-1` once parsed: no read had a value to return, and check
        # answered every assertion with forbidden
        with pytest.raises(ParseError) as err:
            parse_litmus(HEAD + "vals 0..-1\n" + ONE_STORE)
        assert str(err.value) == "value domain 0..-1 is empty (line 3)"

    @pytest.mark.parametrize("text, message", [
        (HEAD + "thread 0:\n  r[rlx] 5 x\n", "bad register name '5' (line 4)"),
        (CLASH, "register 'x' has the name of a location (line 5)"),
    ], ids=["number", "location"])
    def test_a_destination_is_a_register_name(self, text, message):
        # `r[rlx] 5 x` once defined a register `5`, and under CLASH the store
        # once wrote `0 + 1` to location 1, the load of `x` read as location 0
        with pytest.raises(ParseError) as err:
            parse_litmus(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        (HEAD + "thread 0:\n  goto := 1\n", "bad register name 'goto' (line 4)"),
        ('prog "P"\nlocations goto\nthread 0:\n  w[rlx] goto 1\n',
         "bad location name 'goto' (line 2)"),
        (HEAD + "thread 0:\n  r[rlx] goto x\n  if goto = 1 goto 0\n",
         "bad register name 'goto' (line 4)"),
    ], ids=["assign", "location", "if-condition"])
    def test_goto_is_no_name(self, text, message):
        # an `if` line reads its first `goto` word as the keyword, so a
        # register or location `goto` once parsed but could not be tested
        with pytest.raises(ParseError) as err:
            parse_litmus(text)
        assert str(err.value) == message

    def test_a_printed_goto_register_is_refused_by_name(self):
        # print_litmus writes IfGoto(Reg('goto'), 0) as `if goto goto 0`;
        # the reader refuses the register where it is defined
        test = LitmusTest("G", Program(threads=[[Load("rlx", "goto", Lit(0)),
                                                 IfGoto(Reg("goto"), 0)]],
                                       locations=["x"], max_val=1), [], None)
        with pytest.raises(ParseError) as err:
            parse_litmus(print_litmus(test))
        assert str(err.value) == "bad register name 'goto' (line 5)"

    def test_a_header_is_a_whole_first_word(self):
        # registers whose names start with a header keyword are registers
        t = parse_litmus(
            HEAD + "thread 0:\n  expected := 1\n  threads := expected + 1\n"
            "  progress := threads\n  w[rlx] x progress\n"
            "thread 1:\n  r[rlx] expectation x\n"
            "assert allowed: expectation=2 /\\ progress=2\n"
        )
        assert t.name == "P" and t.expectations == {}
        assert [str(i) for i in t.program.threads[0]] == [
            "expected := 1", "threads := expected + 1", "progress := threads",
            "w[rlx] 0 progress",
        ]
        assert t.assertion == [("expectation", 2), ("progress", 2)]
        finals = {
            tuple(c.execution.outcome().items())
            for c in candidate_executions(t.program)
            if check_imm(c.execution).consistent
        }
        assert finals == {((0, 2),)}


def expressions(depth):
    """Expression trees up to depth over + - == !=, registers a and b and
    literals 0..3 (0 and 1 name locations x and y in a location operand)."""
    leaves = st.one_of(st.sampled_from("ab").map(Reg), st.integers(0, 3).map(Lit))
    if depth == 0:
        return leaves
    sub = expressions(depth - 1)
    return st.one_of(leaves, st.builds(BinOp, st.sampled_from(("+", "-", "==", "!=")), sub, sub))


OPERAND, REGISTER = expressions(2), st.sampled_from("ab")
RMW = (st.sampled_from(READ_MODES), st.sampled_from(WRITE_MODES),
       st.sampled_from(("normal", "strong")), REGISTER, OPERAND, OPERAND)
INSTRUCTION = st.one_of(
    st.builds(Store, st.sampled_from(WRITE_MODES), OPERAND, OPERAND),
    st.builds(Load, st.sampled_from(READ_MODES), REGISTER, OPERAND),
    st.builds(Fadd, *RMW),
    st.builds(Cas, *RMW, OPERAND),
    st.builds(FenceInst, st.sampled_from(FENCE_MODES)),
    st.builds(Assign, REGISTER, OPERAND),
    st.builds(IfGoto, OPERAND, st.just(0)),
)
# each memory form under each of its modes, an rmw with and without strong
EVERY_FORM = [
    *(Store(mode, BinOp("+", Reg("a"), Lit(1)), BinOp("-", Reg("b"), BinOp("+", Lit(1), Lit(2))))
      for mode in WRITE_MODES),
    *(Load(mode, "b", BinOp("+", Lit(1), Reg("a"))) for mode in READ_MODES),
    *(rmw(*modes, "a", Lit(1), *operands)
      for rmw, operands in ((Fadd, (Lit(1),)), (Cas, (Reg("b"), BinOp("-", Lit(2), Reg("a")))))
      for modes in itertools.product(READ_MODES, WRITE_MODES, ("normal", "strong"))),
    *(FenceInst(mode) for mode in FENCE_MODES),
]
WRITE_AB = [Assign("a", Lit(0)), Assign("b", Lit(0))]  # every register read is written


class TestRoundTrip:
    def test_corpus_round_trip(self, corpus):
        for name, test in corpus.items():
            printed = print_litmus(test)
            again = parse_litmus(printed, name)
            assert [list(map(str, b)) for b in again.program.threads] == [
                list(map(str, b)) for b in test.program.threads
            ], name
            assert again.assertion == test.assertion
            assert again.expectations == test.expectations
            assert again.program.locations == test.program.locations
            assert again.program.max_val == test.program.max_val

    @pytest.mark.parametrize("seed", range(0, 300, 50))
    def test_printed_fuzz_programs_round_trip(self, seed):
        cfg = FuzzConfig(threads=(1, 2, 3), max_instr=5)
        for s in range(seed, seed + 50):
            program = random_program(random.Random(s), cfg)
            test = LitmusTest(f"F{s}", program, [], None, {})
            again = parse_litmus(print_litmus(test))
            assert again.name == test.name, s
            assert again.program == program, s

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(expressions(4))
    @example(BinOp("-", Reg("a"), BinOp("+", Lit(1), Lit(2))))
    @example(BinOp("==", BinOp("==", Reg("a"), Lit(1)), Lit(0)))
    def test_printed_expressions_read_back(self, expr):
        assert parse_expr(str(expr)) == expr

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.lists(st.lists(INSTRUCTION, max_size=5), min_size=1, max_size=3))
    @example([EVERY_FORM])
    def test_printed_programs_read_back(self, bodies):
        threads = [body + WRITE_AB for body in bodies]
        test = LitmusTest("T", Program(threads, ["x", "y"], 3), [("x", 1)], "allowed",
                          {"imm": "allowed"})
        assert parse_litmus(print_litmus(test)) == test

    def test_a_parenthesized_right_operand_is_printed(self):
        # `a - (1 + 2)` once printed as `a - 1 + 2`, which reads back as
        # `(a - 1) + 2`
        test = parse_litmus(HEAD + "thread 0:\n  r[rlx] a x\n  w[rlx] x a - (1 + 2)\n")
        printed = print_litmus(test)
        assert printed.splitlines()[-1] == "  w[rlx] x a - (1 + 2)"
        assert parse_litmus(printed) == test

    def test_printed_locations_are_named(self):
        src = (
            'prog "ADDR"\nlocations x y\nvals 0..2\nthread 0:\n'
            "  r[rlx] a x\n  r[rlx] b y+a\n  w[rlx] a+2 y\n"
            "  fadd[rlx,rel,strong] c x+1 a\n  cas[acq,rlx] d 1 x y\n"
            "  a := x+1\n  if a == 1 goto 0\n  f[sc]\n"
        )
        test = parse_litmus(src)
        printed = print_litmus(test)
        assert parse_litmus(printed) == test
        body = printed.split("thread 0:\n")[1]
        assert body.splitlines() == [
            "  r[rlx] a x", "  r[rlx] b y + a", "  w[rlx] a+2 1",
            "  fadd[rlx,rel,strong] c x+y a", "  cas[acq,rlx] d y 0 1",
            "  a := 0 + 1", "  if a = 1 goto 0", "  f[sc]",
        ]


class TestEval:
    def test_addition(self):
        assert eval_expr(BinOp("+", Reg("a"), Lit(1)), {"a": 1}) == 2

    def test_literal(self):
        assert eval_expr(Lit(5), {}) == 5

    def test_saturating_subtraction(self):
        # naturals: enumeration never produces negatives, so b-3 at b=1 is 0
        assert eval_expr(BinOp("-", Reg("b"), Lit(3)), {"b": 1}) == 0

    def test_comparisons(self):
        assert eval_expr(BinOp("!=", Lit(1), Lit(0)), {}) == 1
        assert eval_expr(BinOp("==", Lit(1), Lit(0)), {}) == 0

    def test_unbound_register(self):
        with pytest.raises(UnboundRegister):
            eval_expr(Reg("nope"), {})


class TestCandidateValues:
    def test_declared_domain(self, corpus):
        vals = corpus["mp"].program.candidate_values()
        assert vals == (0, 1)  # vals 0..1

    def test_domain_holds_the_fadd_results(self, corpus):
        vals = corpus["strong-rmw"].program.candidate_values()
        assert vals == (0, 1, 2)  # vals 0..2: 0, literal 1, fadd results 0+1, 1+1

    def test_domain_holds_values_that_no_literal_names(self):
        # only a computed write makes 2 and 3, and a read may still return them
        t = parse_litmus(HEAD + "vals 0..3\nthread 0:\n  r[rlx] a x\n  w[rlx] x a + 1\n")
        assert t.program.candidate_values() == (0, 1, 2, 3)

    def test_relaxed_only(self, corpus):
        assert corpus["lb-data"].program.is_relaxed_only()
        assert not corpus["mp"].program.is_relaxed_only()
        assert not corpus["atomicity"].program.is_relaxed_only()
