"""Static translation between the two index calculi.

down rewrites local indices (positions in the current coroutine's visible
vector) into global indices (binder counts), producing a catch/throw term
that is safe by construction. lift is its constructive inverse: it succeeds
exactly on safe catch/throw terms and recovers the unique getctx/setctx
source. Structure is preserved one-for-one; only variable indices change.
"""

from __future__ import annotations

from .errors import NotSafeError, OpenMuTermError, PathLink, UnsafeLocalIndexError, flatten_path
from .plist import NIL, PList
from .terms import App, Catch, Lam, TermCT, TermGS, Throw, Var


def down(t: TermGS, depth: int = 0, vec: PList = NIL, table: PList = NIL) -> TermCT:
    """Translate local indices to global ones through the visibility vector.

    A variable at local index l refers to the binder at depth vec[l], i.e. to
    global index depth - vec[l]. Raises UnsafeLocalIndexError when l is out of
    the vector, OpenMuTermError when a label is out of the table.
    """
    return _down(t, depth, vec, table, None)


def _down(t: TermGS, depth: int, vec: PList, table: PList, path: PathLink) -> TermCT:
    match t:
        case Var(index):
            if index >= len(vec):
                raise UnsafeLocalIndexError(index, len(vec), flatten_path(path))
            return Var(depth - vec[index])
        case App(fn, arg):
            return App(
                _down(fn, depth, vec, table, (path, "fn")),
                _down(arg, depth, vec, table, (path, "arg")),
            )
        case Lam(body):
            return Lam(_down(body, depth + 1, vec.cons(depth + 1), table, (path, "body")))
        case Catch(body):
            return Catch(_down(body, depth, vec, table.cons(vec), (path, "body")))
        case Throw(label, body):
            if label >= len(table):
                raise OpenMuTermError(label, len(table), flatten_path(path))
            return Throw(label, _down(body, depth, table[label], table, (path, "body")))
    raise TypeError(f"not a getctx/setctx term: {t!r}")


def lift(t: TermCT, depth: int = 0, vec: PList = NIL, table: PList = NIL) -> TermGS:
    """Recover the getctx/setctx source of a safe catch/throw term.

    The variable at global index g refers to the binder at depth depth - g;
    its local index is the position of that depth in vec (unique because the
    vector is strictly decreasing). Raises NotSafeError at the first variable
    whose binder is not visible; lift succeeds iff safe_db holds.
    """
    return _lift(t, depth, vec, table, None)


def _lift(t: TermCT, depth: int, vec: PList, table: PList, path: PathLink) -> TermGS:
    match t:
        case Var(index):
            wanted = depth - index
            for position, entry in enumerate(vec):
                if entry == wanted:
                    return Var(position)
            raise NotSafeError(index, flatten_path(path))
        case App(fn, arg):
            return App(
                _lift(fn, depth, vec, table, (path, "fn")),
                _lift(arg, depth, vec, table, (path, "arg")),
            )
        case Lam(body):
            assert not vec or depth + 1 > vec.head, "visibility vector must stay strictly decreasing"
            return Lam(_lift(body, depth + 1, vec.cons(depth + 1), table, (path, "body")))
        case Catch(body):
            return Catch(_lift(body, depth, vec, table.cons(vec), (path, "body")))
        case Throw(label, body):
            if label >= len(table):
                raise OpenMuTermError(label, len(table), flatten_path(path))
            return Throw(label, _lift(body, depth, table[label], table, (path, "body")))
    raise TypeError(f"not a catch/throw term: {t!r}")
