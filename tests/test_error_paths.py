"""Every raise site that reports a term path, each under a mixed path.

Each failing node sits below steps of all three kinds, in an order that reads
differently reversed or cut short, so the path and the message pin how the
path is put together, not only where the error is.
"""

import pytest

from coroutine_vm.debruijn import to_debruijn_ct, to_debruijn_gs
from coroutine_vm.errors import NotSafeError, NotVisibleError, OpenMuTermError, UnboundNameError, UnsafeLocalIndexError
from coroutine_vm.safety import is_safe, safe_db, safe_named, use_sets
from coroutine_vm.terms import App, Catch, Lam, NApp, NCatch, NLam, NThrow, NVar, Throw, Var, is_closed_ct, is_scoped_gs, print_term
from coroutine_vm.translate import down, lift

N_ID = NLam("x", NVar("x"))
ID = Lam(Var(0))


def n_under_mixed(node):
    """(\\x. x) (\\y. node y): node is at root.arg.body.fn."""
    return NApp(N_ID, NLam("y", NApp(node, NVar("y"))))


def under_mixed(node):
    """The index form of n_under_mixed."""
    return App(ID, Lam(App(node, Var(0))))


MIXED = ("arg", "body", "fn")
# (\x. x) (\x. catch a. (\y. restore a y) x): y is bound but not visible where it occurs.
HIDDEN = NApp(N_ID, NLam("x", NCatch("a", NApp(NLam("y", NThrow("a", NVar("y"))), NVar("x")))))
HIDDEN_DB = App(ID, Lam(Catch(App(Lam(Throw(0, Var(0))), Var(0)))))
HIDDEN_PATH = ("arg", "body", "body", "fn", "body", "body")

CASES = [
    pytest.param(to_debruijn_ct, n_under_mixed(NVar("z")), UnboundNameError, MIXED,
                 "unbound variable 'z' at root.arg.body.fn", id="ct-unbound-variable"),
    pytest.param(to_debruijn_ct, n_under_mixed(NThrow("a", NVar("y"))), UnboundNameError, MIXED,
                 "unbound label 'a' at root.arg.body.fn", id="ct-unbound-label"),
    pytest.param(to_debruijn_gs, HIDDEN, NotVisibleError, HIDDEN_PATH,
                 "variable 'y' is bound but not visible in the current coroutine at root.arg.body.body.fn.body.body",
                 id="gs-not-visible"),
    pytest.param(to_debruijn_gs, n_under_mixed(NVar("z")), UnboundNameError, MIXED,
                 "unbound variable 'z' at root.arg.body.fn", id="gs-unbound-variable"),
    pytest.param(to_debruijn_gs, n_under_mixed(NThrow("a", NVar("y"))), UnboundNameError, MIXED,
                 "unbound label 'a' at root.arg.body.fn", id="gs-unbound-label"),
    pytest.param(safe_named, n_under_mixed(NThrow("a", NVar("y"))), OpenMuTermError, MIXED,
                 "context label 'a' not in scope (table has 0 entries) at root.arg.body.fn", id="safe_named-open-label"),
    pytest.param(safe_db, under_mixed(Throw(0, Var(0))), OpenMuTermError, MIXED,
                 "context label 0 not in scope (table has 0 entries) at root.arg.body.fn", id="safe_db-open-label"),
    pytest.param(down, under_mixed(Var(3)), UnsafeLocalIndexError, MIXED,
                 "local index 3 out of range (visible vector has length 1) at root.arg.body.fn", id="down-local-index"),
    pytest.param(down, under_mixed(Throw(0, Var(0))), OpenMuTermError, MIXED,
                 "context label 0 not in scope (table has 0 entries) at root.arg.body.fn", id="down-open-label"),
    pytest.param(lift, HIDDEN_DB, NotSafeError, HIDDEN_PATH,
                 "variable #0 at root.arg.body.body.fn.body.body is not visible in its coroutine", id="lift-not-safe"),
    pytest.param(lift, under_mixed(Throw(0, Var(0))), OpenMuTermError, MIXED,
                 "context label 0 not in scope (table has 0 entries) at root.arg.body.fn", id="lift-open-label"),
]


@pytest.mark.parametrize("function, term, error, path, message", CASES)
def test_error_reports_path_of_failing_node(function, term, error, path, message):
    with pytest.raises(error) as exc_info:
        function(term)
    assert type(exc_info.value) is error
    assert exc_info.value.path == path
    assert str(exc_info.value) == message


# A negative index or label is out of range like one past the end: it raises
# the layer's own error with its path, or the judgment answers False.
NEGATIVE = [
    pytest.param(down, under_mixed(Var(-1)), UnsafeLocalIndexError, MIXED,
                 "local index -1 out of range (visible vector has length 1) at root.arg.body.fn", id="down-variable"),
    pytest.param(down, under_mixed(Catch(Throw(-1, Var(0)))), OpenMuTermError, MIXED + ("body",),
                 "context label -1 not in scope (table has 1 entry) at root.arg.body.fn.body", id="down-label"),
    pytest.param(lift, under_mixed(Catch(Throw(-1, Var(0)))), OpenMuTermError, MIXED + ("body",),
                 "context label -1 not in scope (table has 1 entry) at root.arg.body.fn.body", id="lift-label"),
    pytest.param(safe_db, under_mixed(Catch(Throw(-1, Var(0)))), OpenMuTermError, MIXED + ("body",),
                 "context label -1 not in scope (table has 1 entry) at root.arg.body.fn.body", id="safe_db-label"),
    pytest.param(lift, under_mixed(Var(-1)), NotSafeError, MIXED,
                 "variable #-1 at root.arg.body.fn is not visible in its coroutine", id="lift-variable"),
    pytest.param(safe_db, under_mixed(Var(-1)), None, None, None, id="safe_db-variable"),
    pytest.param(is_scoped_gs, under_mixed(Catch(Throw(-1, Var(0)))), None, None, None, id="is_scoped_gs-label"),
]


@pytest.mark.parametrize("function, term, error, path, message", NEGATIVE)
def test_negative_index_or_label_is_out_of_range(function, term, error, path, message):
    if error is None:
        assert function(term) is False
        return
    with pytest.raises(error) as exc_info:
        function(term)
    assert type(exc_info.value) is error
    assert exc_info.value.path == path
    assert str(exc_info.value) == message


def test_error_at_root_has_empty_path():
    with pytest.raises(UnboundNameError) as exc_info:
        to_debruijn_ct(NVar("z"))
    assert exc_info.value.path == ()
    assert str(exc_info.value) == "unbound variable 'z' at root"


# Two faults side by side, each term at root.arg.body.fn: the left one is the
# one reported, since the walks visit subterms left to right and stop at the
# first fault. A judgment that answers False at a fault raises nothing for a
# fault to its right.
AT_FN_FN = "root.arg.body.fn.fn"
TWO_FAULTS = [
    pytest.param(down, App(Var(3), Var(4)), UnsafeLocalIndexError, MIXED + ("fn",),
                 f"local index 3 out of range (visible vector has length 1) at {AT_FN_FN}", id="down-two-indices"),
    pytest.param(down, App(Var(3), Throw(0, Var(0))), UnsafeLocalIndexError, MIXED + ("fn",),
                 f"local index 3 out of range (visible vector has length 1) at {AT_FN_FN}", id="down-index-then-label"),
    pytest.param(down, App(Throw(0, Var(0)), Var(3)), OpenMuTermError, MIXED + ("fn",),
                 f"context label 0 not in scope (table has 0 entries) at {AT_FN_FN}", id="down-label-then-index"),
    pytest.param(down, App(Var(3), NVar("y")), UnsafeLocalIndexError, MIXED + ("fn",),
                 f"local index 3 out of range (visible vector has length 1) at {AT_FN_FN}", id="down-index-then-type"),
    pytest.param(down, App(NVar("x"), Var(3)), TypeError, None,
                 "not a getctx/setctx term: NVar(name='x')", id="down-type-then-index"),
    pytest.param(lift, App(Var(5), Var(6)), NotSafeError, MIXED + ("fn",),
                 f"variable #5 at {AT_FN_FN} is not visible in its coroutine", id="lift-two-variables"),
    pytest.param(lift, App(Var(5), Throw(0, Var(0))), NotSafeError, MIXED + ("fn",),
                 f"variable #5 at {AT_FN_FN} is not visible in its coroutine", id="lift-variable-then-label"),
    pytest.param(lift, App(Throw(0, Var(0)), Var(5)), OpenMuTermError, MIXED + ("fn",),
                 f"context label 0 not in scope (table has 0 entries) at {AT_FN_FN}", id="lift-label-then-variable"),
    pytest.param(lift, App(NVar("x"), Var(5)), TypeError, None,
                 "not a catch/throw term: NVar(name='x')", id="lift-type-then-variable"),
    pytest.param(safe_db, App(Throw(0, Var(0)), Throw(1, Var(0))), OpenMuTermError, MIXED + ("fn",),
                 f"context label 0 not in scope (table has 0 entries) at {AT_FN_FN}", id="safe_db-two-labels"),
    pytest.param(safe_db, App(Lam(Throw(2, Var(0))), Throw(1, Var(0))), OpenMuTermError, MIXED + ("fn", "body"),
                 f"context label 2 not in scope (table has 0 entries) at {AT_FN_FN}.body", id="safe_db-deeper-left-label"),
    pytest.param(safe_db, App(Throw(0, Var(0)), Var(5)), OpenMuTermError, MIXED + ("fn",),
                 f"context label 0 not in scope (table has 0 entries) at {AT_FN_FN}", id="safe_db-label-then-variable"),
    pytest.param(safe_db, App(NVar("x"), Throw(0, Var(0))), TypeError, None,
                 "not a catch/throw term: NVar(name='x')", id="safe_db-type-then-label"),
    pytest.param(is_closed_ct, App(NVar("x"), NVar("y")), TypeError, None,
                 "not a catch/throw term: NVar(name='x')", id="is_closed_ct-two-types"),
    pytest.param(is_closed_ct, App(NVar("x"), Var(5)), TypeError, None,
                 "not a catch/throw term: NVar(name='x')", id="is_closed_ct-type-then-variable"),
    pytest.param(is_scoped_gs, App(NVar("x"), NVar("y")), TypeError, None,
                 "not a getctx/setctx term: NVar(name='x')", id="is_scoped_gs-two-types"),
    pytest.param(is_scoped_gs, App(NVar("x"), Throw(0, Var(0))), TypeError, None,
                 "not a getctx/setctx term: NVar(name='x')", id="is_scoped_gs-type-then-label"),
]


@pytest.mark.parametrize("function, faults, error, path, message", TWO_FAULTS)
def test_leftmost_of_two_faults_is_reported(function, faults, error, path, message):
    with pytest.raises(error) as exc_info:
        function(under_mixed(faults))
    assert type(exc_info.value) is error
    assert str(exc_info.value) == message
    if path is not None:
        assert exc_info.value.path == path


FALSE_BEFORE_FAULT = [
    pytest.param(safe_db, App(Var(5), Throw(0, Var(0))), id="safe_db-variable-then-label"),
    pytest.param(safe_db, App(Var(5), NVar("y")), id="safe_db-variable-then-type"),
    pytest.param(is_closed_ct, App(Var(5), NVar("y")), id="is_closed_ct-variable-then-type"),
    pytest.param(is_closed_ct, App(Throw(0, Var(0)), NVar("y")), id="is_closed_ct-label-then-type"),
    pytest.param(is_scoped_gs, App(Var(5), NVar("y")), id="is_scoped_gs-variable-then-type"),
    pytest.param(is_scoped_gs, App(Throw(0, Var(0)), NVar("y")), id="is_scoped_gs-label-then-type"),
]


@pytest.mark.parametrize("function, faults", FALSE_BEFORE_FAULT)
def test_false_at_the_left_fault_hides_the_right_one(function, faults):
    assert function(under_mixed(faults)) is False


# The same node object at two positions, safe at the first and failing at the
# second: the path is the second position's, so no walk may find the failing
# node by its identity.
SHARED_NVAR = NVar("x")
SHARED_NTHROW = NThrow("a", NVar("x"))
SHARED_THROW = Throw(0, Var(0))
SHARED_VAR = Var(0)
SHARED = [
    pytest.param(to_debruijn_ct, NApp(NLam("x", SHARED_NVAR), SHARED_NVAR), UnboundNameError,
                 "unbound variable 'x' at root.arg", id="to_debruijn_ct"),
    pytest.param(to_debruijn_gs, NApp(NLam("x", SHARED_NVAR), SHARED_NVAR), UnboundNameError,
                 "unbound variable 'x' at root.arg", id="to_debruijn_gs"),
    pytest.param(safe_named, NApp(NLam("x", NCatch("a", SHARED_NTHROW)), SHARED_NTHROW), OpenMuTermError,
                 "context label 'a' not in scope (table has 0 entries) at root.arg", id="safe_named"),
    pytest.param(safe_db, App(Lam(Catch(SHARED_THROW)), SHARED_THROW), OpenMuTermError,
                 "context label 0 not in scope (table has 0 entries) at root.arg", id="safe_db"),
    pytest.param(down, App(Lam(SHARED_VAR), SHARED_VAR), UnsafeLocalIndexError,
                 "local index 0 out of range (visible vector has length 0) at root.arg", id="down"),
    pytest.param(lift, App(Lam(SHARED_VAR), SHARED_VAR), NotSafeError,
                 "variable #0 at root.arg is not visible in its coroutine", id="lift"),
]


@pytest.mark.parametrize("function, term, error, message", SHARED)
def test_a_shared_subterm_fails_at_its_second_position(function, term, error, message):
    with pytest.raises(error) as exc_info:
        function(term)
    assert type(exc_info.value) is error
    assert exc_info.value.path == ("arg",)
    assert str(exc_info.value) == message


class MyVar(Var):
    __slots__ = ()


class MyApp(NApp):
    __slots__ = ()


MY_VAR = under_mixed(MyVar(0))
MY_APP = NLam("x", MyApp(NVar("x"), NVar("x")))
MY_APP_TEXT = "MyApp(fn=NVar(name='x'), arg=NVar(name='x'))"
SUBCLASS_REJECTED = [
    pytest.param(down, MY_VAR, "not a getctx/setctx term: MyVar(index=0)", id="down"),
    pytest.param(lift, MY_VAR, "not a catch/throw term: MyVar(index=0)", id="lift"),
    pytest.param(safe_db, MY_VAR, "not a catch/throw term: MyVar(index=0)", id="safe_db"),
    pytest.param(is_closed_ct, MY_VAR, "not a catch/throw term: MyVar(index=0)", id="is_closed_ct"),
    pytest.param(is_scoped_gs, MY_VAR, "not a getctx/setctx term: MyVar(index=0)", id="is_scoped_gs"),
    pytest.param(lambda term: print_term(term, "ct"), MY_VAR, "not a term: MyVar(index=0)", id="print_term"),
    pytest.param(is_safe, MY_APP, f"not a named catch/throw term: {MY_APP_TEXT}", id="is_safe"),
    pytest.param(use_sets, MY_APP, f"not a named catch/throw term: {MY_APP_TEXT}", id="use_sets"),
    pytest.param(safe_named, MY_APP, f"not a named catch/throw term: {MY_APP_TEXT}", id="safe_named"),
    pytest.param(to_debruijn_ct, MY_APP, f"not a named catch/throw term: {MY_APP_TEXT}", id="to_debruijn_ct"),
    pytest.param(to_debruijn_gs, MY_APP, f"not a named getctx/setctx term: {MY_APP_TEXT}", id="to_debruijn_gs"),
]


@pytest.mark.parametrize("function, term, message", SUBCLASS_REJECTED)
def test_a_subclass_of_a_term_class_is_not_a_term(function, term, message):
    # every layer dispatches on the exact class, as the machines do
    with pytest.raises(TypeError) as exc_info:
        function(term)
    assert str(exc_info.value) == message


CLOSED_TERM_LAYERS = [
    *(pytest.param(function, N_ID, id=function.__name__)
      for function in (is_safe, use_sets, safe_named, to_debruijn_ct, to_debruijn_gs)),
    *(pytest.param(function, ID, id=function.__name__)
      for function in (safe_db, down, lift, is_closed_ct, is_scoped_gs)),
]


@pytest.mark.parametrize("function, term", CLOSED_TERM_LAYERS)
def test_a_term_layer_takes_the_term_alone(function, term):
    # every layer judges or converts a closed term from the empty context
    assert function(term) is not None
    with pytest.raises(TypeError, match=r"takes 1 positional argument but 2 were given"):
        function(term, 0)
