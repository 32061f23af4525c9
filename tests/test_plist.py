import signal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coroutine_vm.plist import NIL, plist
from conftest import TEST_TIME_LIMIT


def test_nil_is_empty():
    assert len(NIL) == 0 and NIL.length == 0
    assert plist([]) is NIL
    assert not NIL
    assert list(NIL) == []


def test_cons_and_order():
    l = plist([1, 2, 3])
    assert list(l) == [1, 2, 3]
    assert l.head == 1
    assert list(l.cons(0)) == [0, 1, 2, 3]


def test_tail_sharing():
    base = plist(["a"])
    extended = base.cons("b")
    assert extended.tail is base
    assert list(base) == ["a"]  # cons never mutates


def test_indexing_errors():
    l = plist([10, 20])
    assert l[0] == 10 and l[1] == 20
    with pytest.raises(IndexError):
        l[2]
    with pytest.raises(IndexError):
        l[-1]
    with pytest.raises(TypeError):
        l[0.5]  # would walk past NIL, whose tail is NIL, for ever


def test_equality_is_structural():
    assert plist([1, 2]) == plist([1, 2])
    assert plist([1, 2]) != plist([2, 1])
    assert plist([]) == NIL


def test_immutable():
    l = plist([1])
    for name in ("head", "tail", "length"):
        with pytest.raises(AttributeError):
            setattr(l, name, 5)
        with pytest.raises(AttributeError):
            setattr(l.cons(0), name, 5)
    with pytest.raises(AttributeError):
        l.extra = 5


@given(st.lists(st.integers()))
def test_round_trip(xs):
    assert list(plist(xs)) == xs
    assert len(plist(xs)) == plist(xs).length == len(xs)


def test_indexing_reaches_every_position():
    xs = list(range(41))
    assert [plist(xs)[i] for i in xs] == xs


@given(st.lists(st.integers(), min_size=1), st.data())
def test_indexing_matches_list(xs, data):
    i = data.draw(st.integers(min_value=0, max_value=len(xs) - 1))
    assert plist(xs)[i] == xs[i]


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_a_test_that_never_ends_fails_at_the_time_limit():
    # conftest arms a timer for every test; cut it short and loop for ever
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= TEST_TIME_LIMIT
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    node = plist([1])
    with pytest.raises(pytest.fail.Exception, match="time limit"):
        while node is not None:  # NIL.tail is NIL: never None
            node = node.tail
