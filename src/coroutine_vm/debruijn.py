"""Named → index conversion for both calculi.

The catch/throw conversion is the standard one over two separate binder
stacks. The getctx/setctx conversion additionally enforces the visibility
discipline: it threads the list of variables visible in the current coroutine
(Lam pushes, a capture snapshots it per label, a restore brings a snapshot
back) and indexes each variable by its position in that list. A bound but
invisible variable is the named-level unsafety signal and raises
NotVisibleError rather than UnboundNameError.
"""

from __future__ import annotations

from .errors import NotVisibleError, PathLink, UnboundNameError, flatten_path
from .terms import (
    App,
    Catch,
    Lam,
    NamedTermCT,
    NamedTermGS,
    NApp,
    NCatch,
    NLam,
    NThrow,
    NVar,
    TermCT,
    TermGS,
    Throw,
    Var,
)


def to_debruijn_ct(t: NamedTermCT) -> TermCT:
    """Convert a closed named catch/throw term; indices count intervening binders."""
    return _ct(t, (), (), None)


def _ct(t: NamedTermCT, lams: tuple[str, ...], labels: tuple[str, ...], path: PathLink) -> TermCT:
    match t:
        case NVar(name):
            if name not in lams:
                raise UnboundNameError(name, flatten_path(path))
            return Var(lams.index(name))
        case NApp(fn, arg):
            return App(_ct(fn, lams, labels, (path, "fn")), _ct(arg, lams, labels, (path, "arg")))
        case NLam(param, body):
            return Lam(_ct(body, (param,) + lams, labels, (path, "body")))
        case NCatch(label, body):
            return Catch(_ct(body, lams, (label,) + labels, (path, "body")))
        case NThrow(label, body):
            if label not in labels:
                raise UnboundNameError(label, flatten_path(path), kind="label")
            return Throw(labels.index(label), _ct(body, lams, labels, (path, "body")))
    raise TypeError(f"not a named catch/throw term: {t!r}")


def to_debruijn_gs(t: NamedTermGS) -> TermGS:
    """Convert a closed, visibility-respecting named getctx/setctx term.

    Raises NotVisibleError when a variable is bound by an enclosing Lam but
    absent from the visible list of the coroutine where it occurs.
    """
    return _gs(t, (), (), (), None)


def _gs(
    t: NamedTermGS,
    visible: tuple[str, ...],
    bound: tuple[str, ...],
    snapshots: tuple[tuple[str, tuple[str, ...]], ...],
    path: PathLink,
) -> TermGS:
    match t:
        case NVar(name):
            if name in visible:
                return Var(visible.index(name))
            if name in bound:
                raise NotVisibleError(name, flatten_path(path))
            raise UnboundNameError(name, flatten_path(path))
        case NApp(fn, arg):
            return App(
                _gs(fn, visible, bound, snapshots, (path, "fn")),
                _gs(arg, visible, bound, snapshots, (path, "arg")),
            )
        case NLam(param, body):
            return Lam(_gs(body, (param,) + visible, (param,) + bound, snapshots, (path, "body")))
        case NCatch(label, body):
            return Catch(_gs(body, visible, bound, ((label, visible),) + snapshots, (path, "body")))
        case NThrow(label, body):
            for index, (name, snapshot) in enumerate(snapshots):
                if name == label:
                    return Throw(index, _gs(body, snapshot, bound, snapshots, (path, "body")))
            raise UnboundNameError(label, flatten_path(path), kind="label")
    raise TypeError(f"not a named getctx/setctx term: {t!r}")
