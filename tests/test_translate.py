import random

import pytest

from coroutine_vm.errors import NotSafeError, OpenMuTermError, UnsafeLocalIndexError, WorkbenchError, format_path
from coroutine_vm.gen import gen_ct_db, gen_gs_db
from coroutine_vm.plist import plist
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


# The context that the prefix \. catch. \. catch. \. _ builds around its
# body: depth 3, every binder visible, and one snapshot per capture, newest
# first. Each body is walked under the explicit context and under the prefix;
# a body restoring a snapshot reads a vector out of the table argument.
PREFIX_DEPTH = 5


def under_prefix(body):
    return Lam(Catch(Lam(Catch(Lam(body)))))


def prefix_context():
    return 3, plist([3, 2, 1]), plist([plist([2, 1]), plist([1])])


def outcome(function, *args):
    """The result, or the error's class, path and message with its path cut out."""
    try:
        return function(*args)
    except WorkbenchError as exc:
        return type(exc), exc.path, str(exc).replace(format_path(exc.path), "PATH")


@pytest.mark.parametrize("body", [
    Var(2),
    Throw(1, Var(0)),
    Throw(1, Var(2)),
    Throw(0, Var(1)),
    Throw(1, Var(1)),
    Throw(2, Var(0)),
    App(Var(0), Throw(0, Lam(Var(3)))),
    Catch(Throw(0, Throw(2, Lam(Var(1))))),
])
@pytest.mark.parametrize("function", [down, lift, safe_db])
def test_context_arguments_match_the_prefix_that_builds_them(function, body):
    expected = outcome(function, under_prefix(body))
    if isinstance(expected, tuple):
        error, path, message = expected
        assert path[:PREFIX_DEPTH] == ("body",) * PREFIX_DEPTH
        expected = error, path[PREFIX_DEPTH:], message
    elif not isinstance(expected, bool):
        for _ in range(PREFIX_DEPTH):
            expected = expected.body
    assert outcome(function, body, *prefix_context()) == expected
