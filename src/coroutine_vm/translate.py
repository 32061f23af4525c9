"""Static translation between the two index calculi.

down rewrites local indices (positions in the current coroutine's visible
vector) into global indices (binder counts), producing a catch/throw term
that is safe by construction. lift is its constructive inverse: it succeeds
exactly on safe catch/throw terms and recovers the unique getctx/setctx
source. Structure is preserved one-for-one; only variable indices change.

Both walk the term on an explicit work list, so they run at any nesting
depth. A node is visited from a (node, depth, vec, table) tuple; the node
itself, pushed under its subterms' visits, is the marker that builds its
image from theirs on the `out` stack once they are done. Subterms are
visited left to right, so the first error raised is the one a recursive
walk would raise; no path is carried, and errors.path_at rebuilds the
failing node's from the count of visits when raising. Each dispatches on
the exact class of a node, so a subclass of a term class raises TypeError.
The two are written apart on purpose: each is the other's check.
"""

from __future__ import annotations

from .errors import NotSafeError, OpenMuTermError, UnsafeLocalIndexError, path_at
from .plist import NIL, PList
from .terms import App, Catch, Lam, TermCT, TermGS, Throw, Var


def down(t: TermGS, depth: int = 0, vec: PList = NIL, table: PList = NIL) -> TermCT:
    """Translate local indices to global ones through the visibility vector.

    A variable at local index l refers to the binder at depth vec[l], i.e. to
    global index depth - vec[l]. Raises UnsafeLocalIndexError when l is out of
    the vector, OpenMuTermError when a label is out of the table.
    """
    out: list[TermCT] = []
    todo: list = [(t, depth, vec, table)]
    visits = 0
    push, pop = todo.append, todo.pop
    while todo:
        item = pop()
        cls = type(item)
        if cls is tuple:
            node, depth, vec, table = item
            visits += 1
            cls = type(node)
            if cls is Var:
                index = node.index
                if index >= vec.length:
                    raise UnsafeLocalIndexError(index, vec.length, path_at(t, visits))
                out.append(Var(depth - vec[index]))
                continue
            push(node)
            if cls is App:
                push((node.arg, depth, vec, table))
                push((node.fn, depth, vec, table))
            elif cls is Lam:
                depth += 1
                push((node.body, depth, vec.cons(depth), table))
            elif cls is Catch:
                push((node.body, depth, vec, table.cons(vec)))
            elif cls is Throw:
                label = node.label
                if label >= table.length:
                    raise OpenMuTermError(label, table.length, path_at(t, visits))
                push((node.body, depth, table[label], table))
            else:
                raise TypeError(f"not a getctx/setctx term: {node!r}")
        elif cls is App:
            arg = out.pop()
            out[-1] = App(out[-1], arg)
        elif cls is Throw:
            out[-1] = Throw(item.label, out[-1])
        else:  # a Lam or a Catch, around the image of its body
            out[-1] = cls(out[-1])
    return out[0]


def lift(t: TermCT, depth: int = 0, vec: PList = NIL, table: PList = NIL) -> TermGS:
    """Recover the getctx/setctx source of a safe catch/throw term.

    The variable at global index g refers to the binder at depth depth - g;
    its local index is the position of that depth in vec (unique because the
    vector is strictly decreasing). Raises NotSafeError at the first variable
    whose binder is not visible; lift succeeds iff safe_db holds.
    """
    out: list[TermGS] = []
    todo: list = [(t, depth, vec, table)]
    visits = 0
    push, pop = todo.append, todo.pop
    while todo:
        item = pop()
        cls = type(item)
        if cls is tuple:
            node, depth, vec, table = item
            visits += 1
            cls = type(node)
            if cls is Var:
                wanted = depth - node.index
                position = 0
                while vec.length and vec.head != wanted:
                    vec = vec.tail
                    position += 1
                if not vec.length:
                    raise NotSafeError(node.index, path_at(t, visits))
                out.append(Var(position))
                continue
            push(node)
            if cls is App:
                push((node.arg, depth, vec, table))
                push((node.fn, depth, vec, table))
            elif cls is Lam:
                depth += 1
                assert not vec.length or depth > vec.head, "visibility vector must stay strictly decreasing"
                push((node.body, depth, vec.cons(depth), table))
            elif cls is Catch:
                push((node.body, depth, vec, table.cons(vec)))
            elif cls is Throw:
                label = node.label
                if label >= table.length:
                    raise OpenMuTermError(label, table.length, path_at(t, visits))
                push((node.body, depth, table[label], table))
            else:
                raise TypeError(f"not a catch/throw term: {node!r}")
        elif cls is App:
            arg = out.pop()
            out[-1] = App(out[-1], arg)
        elif cls is Throw:
            out[-1] = Throw(item.label, out[-1])
        else:  # a Lam or a Catch, around the image of its body
            out[-1] = cls(out[-1])
    return out[0]
