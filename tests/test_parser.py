import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coroutine_vm.debruijn import to_debruijn_ct, to_debruijn_gs
from coroutine_vm.errors import ParseError
from coroutine_vm.gen import gen_named_ct, gen_named_gs
from coroutine_vm.parser import ALL_KEYWORDS, parse, parse_ct, parse_gs
from coroutine_vm.safety import safe_named
from coroutine_vm.terms import (
    KEYWORDS,
    App,
    Catch,
    Lam,
    NApp,
    NCatch,
    NLam,
    NThrow,
    NVar,
    Throw,
    Var,
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


@pytest.mark.parametrize("calculus", ("ct", "gs"))
def test_a_bad_character_is_reported_before_a_syntax_error_to_its_left(calculus):
    # every token is checked before parsing, so the "@" wins over the ")"
    for src, line, col in ((") x @", 1, 5), (")\n  x @ (", 2, 5), ("(x\n--)\n\\ @", 3, 3)):
        with pytest.raises(ParseError) as exc_info:
            parse(src, calculus)
        assert (str(exc_info.value), exc_info.value.line, exc_info.value.col) == (
            f"{line}:{col}: unexpected character '@'", line, col)


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


# ---------------------------------------------------------------------------
# The loop parser against the recursive definition
# ---------------------------------------------------------------------------


def spec_tokenize(src):
    """The character-by-character tokenizer: (kind, text, line, col) tuples."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
        elif ch in "\\.()":
            tokens.append(({"\\": "lambda", ".": "dot", "(": "lparen", ")": "rparen"}[ch], ch, line, col))
            i += 1
            col += 1
        elif ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
                col += 1
            word = src[start:i]
            tokens.append(("keyword" if word in ALL_KEYWORDS else "ident", word, line, start_col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def spec_parse(src, calculus):
    """The recursive-descent parser, one method per grammar rule."""
    capture, restore, _, _ = KEYWORDS[calculus]
    tokens = spec_tokenize(src)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expect(kind, what):
        tok_kind, text, line, col = peek()
        if tok_kind != kind:
            raise ParseError(f"expected {what}, got {text or 'end of input'!r}", line, col)
        return advance()

    def ident():
        kind, text, line, col = peek()
        if kind == "keyword":
            raise ParseError(f"{text!r} is a keyword, not an identifier", line, col)
        return expect("ident", "an identifier")[1]

    def term():
        kind, text, line, col = peek()
        if kind == "lambda":
            advance()
            param = ident()
            expect("dot", "'.'")
            return NLam(param, term())
        if kind == "keyword":
            if text not in (capture, restore):
                raise ParseError(f"unknown keyword for this calculus: {text!r}", line, col)
            advance()
            label = ident()
            if text == capture:
                expect("dot", "'.'")
                return NCatch(label, term())
            return NThrow(label, term())
        return app_seq()

    def app_seq():
        out = atom()
        while peek()[0] in ("ident", "lparen"):
            out = NApp(out, atom())
        kind, text, line, col = peek()
        if kind == "keyword" or kind == "lambda":
            raise ParseError(f"{text!r} must be parenthesized here (prefix forms are not atoms)", line, col)
        return out

    def atom():
        kind, text, line, col = peek()
        if kind == "ident":
            advance()
            return NVar(text)
        if kind == "lparen":
            advance()
            inner = term()
            expect("rparen", "')'")
            return inner
        raise ParseError(f"expected a term, got {text or 'end of input'!r}", line, col)

    out = term()
    kind, text, line, col = peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {text!r}", line, col)
    return out


def outcome(function, src, calculus):
    """The term, or the exception's class, message, line and column."""
    try:
        return function(src, calculus)
    except ParseError as exc:
        return (type(exc), str(exc), exc.line, exc.col)


_PIECES = ["\\", ".", "(", ")", " ", "\t", "\n", "\r", "\f", "--c", "-", "0", "7", "_", "²", "é",
           "x", "y", "fn", "a1", "catch", "throw", "getctx", "setctx"]
_WEIGHTS = [6, 6, 4, 4, 8, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 8, 6, 2, 2, 3, 3, 3, 3]


def test_parse_matches_spec_on_random_strings():
    rng = random.Random(31)
    terms = errors = 0
    for _ in range(20_000):
        src = "".join(rng.choices(_PIECES, _WEIGHTS, k=rng.randint(0, 24)))
        for calculus in ("ct", "gs"):
            expected = outcome(spec_parse, src, calculus)
            assert outcome(parse, src, calculus) == expected, (src, calculus)
            if isinstance(expected, tuple):
                errors += 1
            else:
                terms += 1
    assert terms > 2_000 and errors > 2_000


def test_parse_matches_spec_on_generated_and_corpus_terms(corpus_dir):
    rng = random.Random(32)
    sources = [(path.read_text(encoding="utf-8"), path.suffix[1:]) for path in sorted(corpus_dir.glob("*.[cg][ts]"))]
    for _ in range(300):
        sources.append((print_term(gen_named_ct(rng, rng.randint(1, 40), unsafe_ok=True), "ct"), "ct"))
        sources.append((print_term(gen_named_gs(rng, rng.randint(1, 40)), "gs"), "gs"))
    for src, calculus in sources:
        # Each cut of a valid text is a truncated or a trailing-input error.
        for text in (src, src[: len(src) // 2], src + " )", src.replace(".", " ", 1)):
            assert outcome(parse, text, calculus) == outcome(spec_parse, text, calculus), (text, calculus)


def test_end_of_input_after_a_trailing_comment_is_at_the_comment():
    for src, where in (("\\x. -- body missing", (1, 5)), ("x\n  (y -- open", (2, 6)), ("\\x.\t-- c\r", (1, 5))):
        with pytest.raises(ParseError) as exc_info:
            parse_ct(src)
        assert (exc_info.value.line, exc_info.value.col) == where
        assert outcome(spec_parse, src, "ct")[2:] == where


# ---------------------------------------------------------------------------
# The front end on deep inputs at the default recursion limit
# ---------------------------------------------------------------------------

DEEP = 100_000


def deep_texts(calculus):
    """The deep inputs by name, prefix forms read in calculus."""
    capture, restore, _, _ = KEYWORDS[calculus]
    return {
        "binders": "".join(f"\\x{i}. " for i in range(DEEP)) + "x0",
        "captures": "".join(f"\\x{i}. {capture} k{i}. " for i in range(DEEP // 2)) + f"{restore} k0 x0",
        "parens": "\\x. " + "(" * DEEP + "x" + ")" * DEEP,
        "wide": "\\x. " + " ".join(["x"] * DEEP),
    }


def spine(term, node_classes, attr):
    """Follow attr through nodes of node_classes: how many, and the node below."""
    count = 0
    while isinstance(term, node_classes):
        term = getattr(term, attr)
        count += 1
    return count, term


def same_term(a, b):
    """a == b without recursion: the dataclass == recurses once per level."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if type(a) is not type(b):
            return False
        for field in a.__slots__:
            x, y = getattr(a, field), getattr(b, field)
            if isinstance(x, str):
                if x != y:
                    return False
            else:
                pairs.append((x, y))
    return True


def test_front_end_on_deep_inputs_at_default_recursion_limit():
    assert sys.getrecursionlimit() < DEEP
    parsed = {}
    for calculus in ("ct", "gs"):
        for name, text in deep_texts(calculus).items():
            parsed[calculus, name] = parse(text, calculus)
    named = {name: parsed["gs", name] for name in deep_texts("gs")}
    for name, term in named.items():
        assert same_term(parsed["ct", name], term), name
    assert spine(named["binders"], NLam, "body") == (DEEP, NVar("x0"))
    assert spine(named["captures"], (NLam, NCatch), "body") == (DEEP, NThrow("k0", NVar("x0")))
    assert named["parens"] == NLam("x", NVar("x"))
    assert spine(named["wide"].body, NApp, "fn") == (DEEP - 1, NVar("x"))
    answers = {name: (to_debruijn_ct(term), to_debruijn_gs(term), safe_named(term)) for name, term in named.items()}
    ct, gs, safe = answers["binders"]
    assert spine(ct, Lam, "body") == spine(gs, Lam, "body") == (DEEP, Var(DEEP - 1))
    assert safe
    ct, gs, safe = answers["captures"]
    assert spine(ct, (Lam, Catch), "body") == (DEEP, Throw(DEEP // 2 - 1, Var(DEEP // 2 - 1)))
    assert spine(gs, (Lam, Catch), "body") == (DEEP, Throw(DEEP // 2 - 1, Var(0)))
    assert safe
    assert answers["parens"] == (Lam(Var(0)), Lam(Var(0)), True)
    ct, gs, safe = answers["wide"]
    assert spine(ct.body, App, "fn") == spine(gs.body, App, "fn") == (DEEP - 1, Var(0))
    assert safe
