import random

import pytest

from coroutine_vm.errors import NotSafeError, OpenMuTermError, UnsafeLocalIndexError
from coroutine_vm.gen import gen_ct_db, gen_gs_db
from coroutine_vm.safety import safe_db
from coroutine_vm.terms import App, Catch, Lam, Throw, Var
from coroutine_vm.translate import down, lift

GS_DEMO = Lam(Catch(Lam(Throw(0, Var(0)))))
CT_DEMO = Lam(Catch(Lam(Throw(0, Var(1)))))
CT_UNSAFE = Lam(Catch(Lam(Throw(0, Var(0)))))


def test_down_capture_demo():
    assert down(GS_DEMO) == CT_DEMO


def test_down_identity():
    assert down(Lam(Var(0))) == Lam(Var(0))


def test_down_nested_lams():
    # without a context switch, local and global indices coincide
    assert down(Lam(Lam(Var(1)))) == Lam(Lam(Var(1)))


def test_down_output_is_safe():
    for term in (GS_DEMO, Lam(Var(0)), Lam(Lam(Var(1)))):
        assert safe_db(down(term))


def test_down_local_index_out_of_range():
    with pytest.raises(UnsafeLocalIndexError):
        down(Lam(Var(1)))


def test_down_label_out_of_range():
    with pytest.raises(OpenMuTermError):
        down(Throw(0, Lam(Var(0))))


def test_lift_capture_demo():
    assert lift(CT_DEMO) == GS_DEMO


def test_lift_identity():
    assert lift(Lam(Var(0))) == Lam(Var(0))


def test_lift_unsafe_rejected_with_path():
    with pytest.raises(NotSafeError) as exc_info:
        lift(CT_UNSAFE)
    assert exc_info.value.path == ("body", "body", "body", "body")


def test_round_trip_from_local_terms():
    rng = random.Random(21)
    for _ in range(400):
        term = gen_gs_db(rng, rng.randint(1, 30))
        translated = down(term)
        assert safe_db(translated)
        assert lift(translated) == term


def test_lift_succeeds_exactly_on_safe_terms():
    rng = random.Random(22)
    lifted = rejected = 0
    for _ in range(400):
        term = gen_ct_db(rng, rng.randint(1, 30))
        expected = safe_db(term)
        try:
            recovered = lift(term)
            assert expected
            assert down(recovered) == term
            lifted += 1
        except NotSafeError:
            assert not expected
            rejected += 1
    assert lifted and rejected


def test_structure_is_preserved():
    term = Catch(App(Throw(0, Lam(Var(0))), Lam(Var(0))))
    translated = down(term)
    assert isinstance(translated, Catch)
    assert isinstance(translated.body, App)
    assert isinstance(translated.body.fn, Throw)
    assert translated.body.fn.label == 0

