import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coroutine_vm.errors import ParseError
from coroutine_vm.gen import gen_named_ct, gen_named_gs
from coroutine_vm.parser import parse, parse_ct, parse_gs
from coroutine_vm.terms import (
    NApp,
    NCatch,
    NLam,
    NThrow,
    NVar,
    print_term,
)


def test_identity():
    assert parse_ct(r"\x. x") == NLam("x", NVar("x"))


def test_capture_example_ct():
    term = parse_ct(r"\x. catch a. \y. throw a x")
    assert term == NLam("x", NCatch("a", NLam("y", NThrow("a", NVar("x")))))


def test_capture_example_gs():
    term = parse_gs(r"\x. getctx a. \y. setctx a x")
    assert term == NLam("x", NCatch("a", NLam("y", NThrow("a", NVar("x")))))


def test_application_is_left_associative():
    assert parse_ct("f g h") == NApp(NApp(NVar("f"), NVar("g")), NVar("h"))


def test_prefix_bodies_extend_right():
    assert parse_ct(r"\x. x y") == NLam("x", NApp(NVar("x"), NVar("y")))
    assert parse_ct("throw a x y") == NThrow("a", NApp(NVar("x"), NVar("y")))
    assert parse_gs(r"setctx a \y. y") == NThrow("a", NLam("y", NVar("y")))


def test_parens_override():
    assert parse_ct("(throw a x) y") == NApp(NThrow("a", NVar("x")), NVar("y"))


def test_comments_and_whitespace():
    src = "-- leading comment\n  \\x.  -- mid comment\n x\n"
    assert parse_ct(src) == NLam("x", NVar("x"))


def test_wrong_calculus_keyword():
    with pytest.raises(ParseError, match="unknown keyword for this calculus"):
        parse_ct("getctx a. x")
    with pytest.raises(ParseError, match="unknown keyword for this calculus"):
        parse_gs("catch a. x")


def test_error_carries_position():
    with pytest.raises(ParseError) as exc_info:
        parse_ct("\\x.\n x (")
    assert exc_info.value.line == 2
    with pytest.raises(ParseError, match="keyword, not an identifier"):
        parse_ct(r"\catch. x")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_ct("x y) z")


def test_unparenthesized_prefix_argument_rejected():
    with pytest.raises(ParseError, match="parenthesized"):
        parse_ct("f throw a x")
    with pytest.raises(ParseError, match="parenthesized"):
        parse_ct(r"f \x. x")


def test_parse_dispatch():
    assert parse(r"\x. x", "ct") == parse(r"\x. x", "gs")
    with pytest.raises(ValueError):
        parse("x", "nope")


def test_print_parse_round_trip_generated():
    rng = random.Random(2024)
    for _ in range(200):
        ct = gen_named_ct(rng, rng.randint(1, 25), unsafe_ok=True)
        assert parse_ct(print_term(ct, "ct")) == ct
        gs = gen_named_gs(rng, rng.randint(1, 25))
        assert parse_gs(print_term(gs, "gs")) == gs


# Arbitrary ASTs (open terms, shadowing, keyword-adjacent names) must survive
# the printer/parser round trip as well.
_names = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True).filter(
    lambda s: s not in {"catch", "throw", "getctx", "setctx"}
)
_terms = st.recursive(
    st.builds(NVar, _names),
    lambda sub: st.one_of(
        st.builds(NApp, sub, sub),
        st.builds(NLam, _names, sub),
        st.builds(NCatch, _names, sub),
        st.builds(NThrow, _names, sub),
    ),
    max_leaves=40,
)


@pytest.mark.parametrize("calculus", ("ct", "gs"))
@given(term=_terms)
def test_print_parse_round_trip_arbitrary(calculus, term):
    assert parse(print_term(term, calculus), calculus) == term
