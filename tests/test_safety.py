import random
import sys

import pytest

from coroutine_vm.debruijn import to_debruijn_ct
from coroutine_vm.errors import OpenMuTermError, flatten_path
from coroutine_vm.gen import gen_named_ct, gen_named_gs
from coroutine_vm.parser import parse_ct
from coroutine_vm.safety import UseSets, is_safe, safe_db, safe_named, use_sets
from coroutine_vm.terms import Catch, Lam, NApp, NCatch, NLam, NThrow, NVar, Throw, Var
from named_terms import shadowed, subterms

SAFE = r"\x. catch a. \y. throw a x"
UNSAFE = r"\x. catch a. \y. throw a y"


def test_use_sets_variable():
    us = use_sets(NVar("x"))
    assert us.current == {"x"}
    assert us.per_label == {}


def test_use_sets_capture_removes_label():
    us = use_sets(parse_ct(r"catch a. \y. throw a y"))
    assert us.current == frozenset()
    assert us.per_label == {}


def test_use_sets_jump_charges_target():
    body = parse_ct(r"throw a x")
    assert use_sets(body).current == frozenset()
    assert use_sets(body).per_label == {"a": frozenset({"x"})}
    whole = NLam("x", body)
    assert use_sets(whole).per_label == {"a": frozenset()}


def test_is_safe_examples():
    assert is_safe(parse_ct(SAFE))
    assert not is_safe(parse_ct(UNSAFE))
    assert is_safe(parse_ct(r"\x. x"))


def test_reified_continuation_is_never_safe():
    assert not is_safe(parse_ct(r"catch a. \y. throw a y"))


def test_safe_named_examples():
    assert safe_named(parse_ct(SAFE))
    assert not safe_named(parse_ct(UNSAFE))
    assert safe_named(NLam("x", NVar("x")))
    assert not safe_named(NVar("x"))


def test_safe_named_open_label_raises():
    with pytest.raises(OpenMuTermError):
        safe_named(NLam("x", NThrow("a", NVar("x"))))


def test_safe_db_examples():
    assert safe_db(Lam(Catch(Lam(Throw(0, Var(1))))))
    assert not safe_db(Lam(Catch(Lam(Throw(0, Var(0))))))
    assert safe_db(Lam(Var(0)))


def test_safe_db_open_label_raises():
    with pytest.raises(OpenMuTermError):
        safe_db(Throw(0, Lam(Var(0))))


def test_three_judgments_agree_on_closed_terms():
    rng = random.Random(5)
    safe_count = unsafe_count = 0
    for _ in range(400):
        term = gen_named_ct(rng, rng.randint(1, 30), unsafe_ok=True)
        for each in (term, shadowed(term, rng)):  # binders that shadow each other too
            a = is_safe(each)
            b = safe_named(each)
            c = safe_db(to_debruijn_ct(each))
            assert a == b == c
            if a:
                safe_count += 1
            else:
                unsafe_count += 1
    assert safe_count and unsafe_count


def test_use_sets_closed_terms_have_no_free_labels():
    rng = random.Random(6)
    for _ in range(200):
        term = gen_named_ct(rng, rng.randint(1, 25), unsafe_ok=True)
        assert use_sets(term).per_label == {}


# ---------------------------------------------------------------------------
# The one-pass walk against the per-binder definition
# ---------------------------------------------------------------------------


def spec_use_sets(t) -> UseSets:
    """The written-out definition: each node's sets from its subterms' sets."""
    match t:
        case NVar(name):
            return UseSets(frozenset({name}), {})
        case NApp(fn, arg):
            left, right = spec_use_sets(fn), spec_use_sets(arg)
            merged = dict(left.per_label)
            for label, names in right.per_label.items():
                merged[label] = merged.get(label, frozenset()) | names
            return UseSets(left.current | right.current, merged)
        case NLam(param, body):
            inner = spec_use_sets(body)
            return UseSets(
                inner.current - {param},
                {label: names - {param} for label, names in inner.per_label.items()},
            )
        case NCatch(label, body):
            inner = spec_use_sets(body)
            rest = {name: names for name, names in inner.per_label.items() if name != label}
            return UseSets(inner.current | inner.per_label.get(label, frozenset()), rest)
        case NThrow(label, body):
            inner = spec_use_sets(body)
            out = dict(inner.per_label)
            out[label] = inner.per_label.get(label, frozenset()) | inner.current
            return UseSets(frozenset(), out)
    raise TypeError(f"not a named catch/throw term: {t!r}")


def spec_is_safe(t) -> bool:
    """The written-out judgment: each binder against its body's use sets."""
    match t:
        case NVar():
            return True
        case NApp(fn, arg):
            return spec_is_safe(fn) and spec_is_safe(arg)
        case NLam(param, body):
            if any(param in names for names in spec_use_sets(body).per_label.values()):
                return False
            return spec_is_safe(body)
        case NCatch(_, body) | NThrow(_, body):
            return spec_is_safe(body)
    raise TypeError(f"not a named catch/throw term: {t!r}")


def assert_matches_spec(term):
    assert use_sets(term) == spec_use_sets(term)
    assert is_safe(term) is spec_is_safe(term)


def test_walk_matches_spec_on_generated_terms():
    rng = random.Random(17)
    verdicts = set()
    for _ in range(1200):
        term = gen_named_ct(rng, rng.randint(1, 40), unsafe_ok=True)
        assert_matches_spec(term)
        verdicts.add(is_safe(term))
    assert verdicts == {True, False}


def test_walk_matches_spec_on_open_subterms():
    rng = random.Random(18)
    free_labels = 0
    for _ in range(300):
        for sub in subterms(gen_named_ct(rng, rng.randint(5, 30), unsafe_ok=True)):
            assert_matches_spec(sub)
            free_labels += bool(use_sets(sub).per_label)
    assert free_labels


def test_walk_matches_spec_on_shadowing_and_open_labels():
    for src in (r"\x. catch a. \x. throw a x", r"\x. \x. throw a x", r"throw a (throw b x)",
                r"catch a. throw a (throw b (\y. throw a y))", r"(throw a x) (throw a y) (throw b z)"):
        assert_matches_spec(parse_ct(src))


def test_walk_matches_spec_on_corpus(corpus_dir):
    files = sorted(corpus_dir.glob("*.ct"))
    assert files
    for path in files:
        assert_matches_spec(parse_ct(path.read_text(encoding="utf-8")))


def test_non_term_under_binder_raises_type_error():
    for bad, text in ((NLam("x", 42), "42"), (NLam("x", NApp(NVar("x"), Var(0))), "Var(index=0)")):
        for function in (is_safe, use_sets):
            with pytest.raises(TypeError) as exc_info:
                function(bad)
            assert str(exc_info.value) == f"not a named catch/throw term: {text}"


# ---------------------------------------------------------------------------
# The work-list visibility judgment against the recursive definition
# ---------------------------------------------------------------------------


def spec_safe_named(t):
    """The recursive judgment: a variable names its lexical binder, which must be visible.

    names holds the binders' names, innermost first, so a binder's depth is its
    position counted from the root; v holds the depths of the binders the
    current coroutine sees. Both are copied per binder, as is the label dict.
    """
    return _spec_safe_named(t, (), (), {}, None)


def _spec_safe_named(t, names, v, v_mu, path):
    match t:
        case NVar(name):
            return name in names and len(names) - names.index(name) in v
        case NApp(fn, arg):
            return (_spec_safe_named(fn, names, v, v_mu, (path, "fn"))
                    and _spec_safe_named(arg, names, v, v_mu, (path, "arg")))
        case NLam(param, body):
            return _spec_safe_named(body, (param,) + names, (len(names) + 1,) + v, v_mu, (path, "body"))
        case NCatch(label, body):
            return _spec_safe_named(body, names, v, {**v_mu, label: v}, (path, "body"))
        case NThrow(label, body):
            if label not in v_mu:
                raise OpenMuTermError(label, len(v_mu), flatten_path(path))
            return _spec_safe_named(body, names, v_mu[label], v_mu, (path, "body"))
    raise TypeError(f"not a named catch/throw term: {t!r}")


def named_outcome(function, *args):
    try:
        return function(*args)
    except OpenMuTermError as exc:
        return (type(exc), str(exc), exc.path)


def assert_safe_named_matches_spec(term):
    assert named_outcome(safe_named, term) == named_outcome(spec_safe_named, term)


def test_safe_named_matches_spec_on_generated_terms():
    rng = random.Random(43)
    verdicts = set()
    for _ in range(1000):
        for term in (gen_named_ct(rng, rng.randint(1, 40), unsafe_ok=True), gen_named_gs(rng, rng.randint(1, 40))):
            for each in (term, shadowed(term, rng)):
                assert_safe_named_matches_spec(each)
                verdicts.add(safe_named(each))
    assert verdicts == {True, False}


def under_context(sub):
    """catch k1. \\x0. catch k0. \\x1. \\x0. sub: sub sees x0, x1, x0; k0 sees x0 and k1 nothing."""
    return NCatch("k1", NLam("x0", NCatch("k0", NLam("x1", NLam("x0", sub)))))


def test_safe_named_matches_spec_on_open_subterms():
    rng = random.Random(44)
    outcomes = set()
    for _ in range(300):
        for term in (gen_named_ct(rng, rng.randint(5, 30), unsafe_ok=True), gen_named_gs(rng, rng.randint(5, 30))):
            for sub in subterms(term):
                assert_safe_named_matches_spec(sub)
                assert_safe_named_matches_spec(under_context(sub))
                result = named_outcome(safe_named, sub)
                outcomes.add(result if isinstance(result, bool) else (result[0], bool(result[2])))
    assert outcomes == {True, False, (OpenMuTermError, True), (OpenMuTermError, False)}


def test_safe_named_matches_spec_on_shadowing_and_corpus(corpus_dir):
    sources = [r"\x. \x. x", r"catch a. catch a. throw a x", r"\x. catch a. \x. throw a x",
               r"\x. catch a. \y. catch a. throw a x", r"\x. catch a. \x. catch b. throw a (throw b x)"]
    for path in sorted(corpus_dir.glob("*.ct")) + sorted(corpus_dir.glob("**/*.gs")):
        sources.append(path.read_text(encoding="utf-8").replace("getctx", "catch").replace("setctx", "throw"))
    for src in sources:
        assert_safe_named_matches_spec(parse_ct(src))
    assert not safe_named(parse_ct(r"\x. catch a. \x. throw a x"))  # x names the inner, invisible binder


# ---------------------------------------------------------------------------
# Deep and wide terms at the default recursion limit
# ---------------------------------------------------------------------------

DEEP = 100_000


def binder_chain(n):
    """\\x0. ... \\x(n-1). x0: safe."""
    term = NVar("x0")
    for i in reversed(range(n)):
        term = NLam(f"x{i}", term)
    return term


def catch_chain(n):
    """\\x0. catch k0. ... \\y. throw k0 y: the last binder's variable escapes into k0's coroutine."""
    term = NLam("y", NThrow("k0", NVar("y")))
    for i in reversed(range(n)):
        term = NLam(f"x{i}", NCatch(f"k{i}", term))
    return term


def app_spine(n):
    """\\x. x x ... x, n applications: safe."""
    spine = NVar("x")
    for _ in range(n):
        spine = NApp(spine, NVar("x"))
    return NLam("x", spine)


def test_deep_and_wide_terms_at_default_recursion_limit():
    assert sys.getrecursionlimit() < DEEP
    chain, catches, spine = binder_chain(DEEP), catch_chain(DEEP // 2), app_spine(DEEP)
    assert is_safe(chain) and is_safe(spine)
    assert not is_safe(catches)
    for term in (chain, catches, spine):
        assert use_sets(term) == UseSets(frozenset(), {})
    assert use_sets(spine.body) == UseSets(frozenset({"x"}), {})
    open_label = catches.body.body  # under catch k0, so k0 is free
    assert not is_safe(open_label)
    assert use_sets(open_label) == UseSets(frozenset(), {"k0": frozenset()})
