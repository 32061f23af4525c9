import random

import pytest

from coroutine_vm.debruijn import to_debruijn_ct, to_debruijn_gs
from coroutine_vm.errors import NotVisibleError, UnboundNameError, WorkbenchError, flatten_path
from coroutine_vm.gen import gen_named_ct, gen_named_gs
from coroutine_vm.parser import parse_ct, parse_gs
from coroutine_vm.safety import safe_named
from coroutine_vm.terms import (
    App,
    Catch,
    Lam,
    NamedTerm,
    NApp,
    NCatch,
    NLam,
    NThrow,
    NVar,
    Throw,
    Var,
)
from named_terms import shadowed, subterms


def test_identity():
    assert to_debruijn_ct(parse_ct(r"\x. x")) == Lam(Var(0))


def test_capture_example():
    term = parse_ct(r"\x. catch a. \y. throw a x")
    assert to_debruijn_ct(term) == Lam(Catch(Lam(Throw(0, Var(1)))))


def test_capture_example_inner_var():
    term = parse_ct(r"\x. catch a. \y. throw a y")
    assert to_debruijn_ct(term) == Lam(Catch(Lam(Throw(0, Var(0)))))


def test_shadowing_picks_innermost():
    assert to_debruijn_ct(parse_ct(r"\x. \x. x")) == Lam(Lam(Var(0)))
    term = parse_ct(r"\x. catch a. catch a. throw a x")
    assert to_debruijn_ct(term) == Lam(Catch(Catch(Throw(0, Var(0)))))


def test_label_indices_skip_lams():
    term = parse_ct(r"catch a. \x. throw a x")
    assert to_debruijn_ct(term) == Catch(Lam(Throw(0, Var(0))))


def test_unbound_variable():
    with pytest.raises(UnboundNameError) as exc_info:
        to_debruijn_ct(parse_ct(r"\x. y"))
    assert exc_info.value.name == "y"
    assert exc_info.value.path == ("body",)


def test_unbound_label():
    with pytest.raises(UnboundNameError) as exc_info:
        to_debruijn_ct(parse_ct(r"\x. throw a x"))
    assert exc_info.value.name == "a"


def test_gs_identity():
    assert to_debruijn_gs(parse_gs(r"\x. x")) == Lam(Var(0))


def test_gs_capture_example():
    term = parse_gs(r"\x. getctx a. \y. setctx a x")
    assert to_debruijn_gs(term) == Lam(Catch(Lam(Throw(0, Var(0)))))


def test_gs_invisible_variable():
    term = parse_gs(r"\x. getctx a. \y. setctx a y")
    with pytest.raises(NotVisibleError) as exc_info:
        to_debruijn_gs(term)
    assert exc_info.value.name == "y"


def test_gs_restored_snapshot_indexing():
    # after setctx the visible vector is the snapshot, so x is index 0 again
    term = parse_gs(r"\x. getctx a. \y. setctx a (x x)")
    assert to_debruijn_gs(term) == Lam(Catch(Lam(Throw(0, App(Var(0), Var(0))))))


def _rename(term: NamedTerm, mapping: dict[str, str], counter: list[int]) -> NamedTerm:
    """Consistently rename every binder to a fresh name."""
    match term:
        case NVar(name):
            return NVar(mapping.get(name, name))
        case NApp(fn, arg):
            return NApp(_rename(fn, mapping, counter), _rename(arg, mapping, counter))
        case NLam(param, body):
            counter[0] += 1
            fresh = f"r{counter[0]}"
            return NLam(fresh, _rename(body, {**mapping, param: fresh}, counter))
        case NCatch(label, body):
            counter[0] += 1
            fresh = f"r{counter[0]}"
            return NCatch(fresh, _rename(body, {**mapping, label: fresh}, counter))
        case NThrow(label, body):
            return NThrow(mapping.get(label, label), _rename(body, mapping, counter))
    raise TypeError(term)


def test_alpha_invariance():
    rng = random.Random(11)
    for _ in range(300):
        term = gen_named_ct(rng, rng.randint(1, 25), unsafe_ok=True)
        renamed = _rename(term, {}, [0])
        assert to_debruijn_ct(term) == to_debruijn_ct(renamed)


def test_gs_conversion_succeeds_iff_visibility_safe():
    # arbitrary closed terms read in both calculi: the visibility judgment on
    # the catch/throw reading decides whether the getctx/setctx conversion works
    rng = random.Random(13)
    succeeded = failed = 0
    for _ in range(500):
        term = gen_named_ct(rng, rng.randint(1, 25), unsafe_ok=True)
        expected = safe_named(term)
        try:
            to_debruijn_gs(term)
            converted = True
            succeeded += 1
        except NotVisibleError:
            converted = False
            failed += 1
        assert converted == expected
    assert succeeded and failed  # the sample must exercise both outcomes


# ---------------------------------------------------------------------------
# The work-list conversions against the recursive definitions
# ---------------------------------------------------------------------------


def spec_ct(t, lams=(), labels=(), path=None):
    """The recursive conversion over binder tuples, innermost first."""
    match t:
        case NVar(name):
            if name not in lams:
                raise UnboundNameError(name, flatten_path(path))
            return Var(lams.index(name))
        case NApp(fn, arg):
            return App(spec_ct(fn, lams, labels, (path, "fn")), spec_ct(arg, lams, labels, (path, "arg")))
        case NLam(param, body):
            return Lam(spec_ct(body, (param,) + lams, labels, (path, "body")))
        case NCatch(label, body):
            return Catch(spec_ct(body, lams, (label,) + labels, (path, "body")))
        case NThrow(label, body):
            if label not in labels:
                raise UnboundNameError(label, flatten_path(path), kind="label")
            return Throw(labels.index(label), spec_ct(body, lams, labels, (path, "body")))
    raise TypeError(f"not a named catch/throw term: {t!r}")


def spec_gs(t, visible=(), bound=(), snapshots=(), path=None):
    """The recursive conversion over visible and bound tuples and a snapshot tuple."""
    match t:
        case NVar(name):
            if name in visible:
                return Var(visible.index(name))
            if name in bound:
                raise NotVisibleError(name, flatten_path(path))
            raise UnboundNameError(name, flatten_path(path))
        case NApp(fn, arg):
            return App(
                spec_gs(fn, visible, bound, snapshots, (path, "fn")),
                spec_gs(arg, visible, bound, snapshots, (path, "arg")),
            )
        case NLam(param, body):
            return Lam(spec_gs(body, (param,) + visible, (param,) + bound, snapshots, (path, "body")))
        case NCatch(label, body):
            return Catch(spec_gs(body, visible, bound, ((label, visible),) + snapshots, (path, "body")))
        case NThrow(label, body):
            for index, (name, snapshot) in enumerate(snapshots):
                if name == label:
                    return Throw(index, spec_gs(body, snapshot, bound, snapshots, (path, "body")))
            raise UnboundNameError(label, flatten_path(path), kind="label")
    raise TypeError(f"not a named getctx/setctx term: {t!r}")


def outcome(function, term):
    """The result, or the error's class, message and path."""
    try:
        return function(term)
    except WorkbenchError as exc:
        return (type(exc), str(exc), exc.path)


def assert_conversions_match_spec(term):
    assert outcome(to_debruijn_ct, term) == outcome(spec_ct, term)
    assert outcome(to_debruijn_gs, term) == outcome(spec_gs, term)


def test_conversions_match_spec_on_generated_terms():
    rng = random.Random(41)
    outcomes = set()
    for _ in range(1000):
        for term in (gen_named_ct(rng, rng.randint(1, 40), unsafe_ok=True), gen_named_gs(rng, rng.randint(1, 40))):
            for each in (term, shadowed(term, rng)):
                assert_conversions_match_spec(each)
                outcomes.add(type(outcome(to_debruijn_gs, each)))
    assert outcomes == {App, Catch, Lam, tuple}


def test_conversions_match_spec_on_open_subterms():
    rng = random.Random(42)
    errors = set()
    for _ in range(300):
        for term in (gen_named_ct(rng, rng.randint(5, 30), unsafe_ok=True), gen_named_gs(rng, rng.randint(5, 30))):
            for sub in subterms(term):
                assert_conversions_match_spec(sub)
                for function in (to_debruijn_ct, to_debruijn_gs):
                    result = outcome(function, sub)
                    if isinstance(result, tuple):
                        errors.add((result[0], "label" in result[1], bool(result[2])))
    assert {(UnboundNameError, False, True), (UnboundNameError, True, True), (NotVisibleError, False, True)} <= errors


def test_conversions_match_spec_on_shadowing_and_corpus(corpus_dir):
    terms = [parse_ct(src) for src in (r"\x. \x. x", r"catch a. catch a. throw a x", r"\x. catch a. catch a. throw a x")]
    terms.append(parse_gs(r"\x. getctx a. \x. setctx a x"))
    for path in sorted(corpus_dir.glob("*.ct")):
        terms.append(parse_ct(path.read_text(encoding="utf-8")))
    for path in sorted(corpus_dir.glob("**/*.gs")):
        terms.append(parse_gs(path.read_text(encoding="utf-8")))
    for term in terms:
        assert_conversions_match_spec(term)
    # The restored coroutine sees only the outer x, the leftmost visible match.
    assert to_debruijn_gs(terms[3]) == Lam(Catch(Lam(Throw(0, Var(0)))))
    assert to_debruijn_ct(terms[3]) == Lam(Catch(Lam(Throw(0, Var(0)))))


def test_non_term_raises_type_error():
    for function, calculus in ((to_debruijn_ct, "catch/throw"), (to_debruijn_gs, "getctx/setctx")):
        for bad, text in ((NLam("x", 42), "42"), (NApp(NLam("x", NVar("x")), Var(0)), "Var(index=0)")):
            with pytest.raises(TypeError) as exc_info:
                function(bad)
            assert str(exc_info.value) == f"not a named {calculus} term: {text}"
