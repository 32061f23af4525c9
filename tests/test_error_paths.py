"""Every raise site that reports a term path, each under a mixed path.

Each failing node sits below steps of all three kinds, in an order that reads
differently reversed or cut short, so the path and the message pin how the
path is put together, not only where the error is.
"""

import pytest

from coroutine_vm.debruijn import to_debruijn_ct, to_debruijn_gs
from coroutine_vm.errors import NotSafeError, NotVisibleError, OpenMuTermError, UnboundNameError, UnsafeLocalIndexError
from coroutine_vm.safety import safe_db, safe_named
from coroutine_vm.terms import App, Catch, Lam, NApp, NCatch, NLam, NThrow, NVar, Throw, Var
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


def test_error_at_root_has_empty_path():
    with pytest.raises(UnboundNameError) as exc_info:
        to_debruijn_ct(NVar("z"))
    assert exc_info.value.path == ()
    assert str(exc_info.value) == "unbound variable 'z' at root"
