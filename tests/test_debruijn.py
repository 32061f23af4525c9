import random

import pytest

from coroutine_vm.debruijn import to_debruijn_ct, to_debruijn_gs
from coroutine_vm.errors import NotVisibleError, UnboundNameError
from coroutine_vm.gen import gen_named_ct
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
