"""Static translation between the two index calculi.

down rewrites local indices (positions in the current coroutine's visible
vector) into global indices (binder counts), producing a catch/throw term
that is safe by construction. lift is its constructive inverse: it succeeds
exactly on safe catch/throw terms and recovers the unique getctx/setctx
source. Structure is preserved one-for-one; only variable indices change.

Both walk the term from the empty context on an explicit work list, so they
run at any nesting depth. A node is visited from a (node, depth, vec, table)
tuple, vec and table as linked tuples (entry, rest), None when empty; the node
itself, pushed under its subterms' visits, is the marker that builds its image
from theirs on the `out` stack once they are done. Subterms are visited left
to right, so the first error raised is the one a recursive walk would raise;
errors.path_at rebuilds the failing node's path from the count of visits. Each
dispatches on the exact class of a node, so a subclass of a term class raises
TypeError. The two are written apart on purpose: each checks the other.
"""

from __future__ import annotations

from .errors import NotSafeError, OpenMuTermError, UnsafeLocalIndexError, path_at
from .terms import App, Catch, Lam, TermCT, TermGS, Throw, Var


def down(t: TermGS) -> TermCT:
    """Translate local indices to global ones through the visibility vector.

    A variable at local index l refers to the binder at depth vec[l], i.e. to
    global index depth - vec[l]. Raises UnsafeLocalIndexError when l is out of
    the vector, OpenMuTermError when a label is out of the table.
    """
    out: list[TermCT] = []
    todo: list = [(t, 0, None, None)]
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
                index = k = node.index
                try:  # to the cell at index, eight cells a turn
                    while k > 7:
                        vec, k = vec[1][1][1][1][1][1][1][1], k - 8
                    while k:
                        vec, k = vec[1], k - 1
                    out.append(Var(depth - vec[0]))
                    continue
                except TypeError:  # walked past the end: None has no cells
                    vec, n = item[2], 0  # the visit's vec, whose length the message gives
                    while vec is not None:
                        vec, n = vec[1], n + 1
                    raise UnsafeLocalIndexError(index, n, path_at(t, visits)) from None
            push(node)
            if cls is App:
                push((node.arg, depth, vec, table))
                push((node.fn, depth, vec, table))
            elif cls is Lam:
                depth += 1
                push((node.body, depth, (depth, vec), table))
            elif cls is Catch:
                push((node.body, depth, vec, (vec, table)))
            elif cls is Throw:
                label, snapshot, n = node.label, table, 0
                while snapshot is not None and n != label:
                    snapshot, n = snapshot[1], n + 1
                if snapshot is None:
                    raise OpenMuTermError(label, n, path_at(t, visits))
                push((node.body, depth, snapshot[0], table))
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


def lift(t: TermCT) -> TermGS:
    """Recover the getctx/setctx source of a safe catch/throw term.

    The variable at global index g refers to the binder at depth depth - g;
    its local index is the position of that depth in vec (unique because the
    vector is strictly decreasing). Raises NotSafeError at the first variable
    whose binder is not visible; lift succeeds iff safe_db holds.
    """
    out: list[TermGS] = []
    todo: list = [(t, 0, None, None)]
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
                wanted, position = depth - node.index, 0
                while vec is not None and vec[0] != wanted:
                    vec, position = vec[1], position + 1
                if vec is None:
                    raise NotSafeError(node.index, path_at(t, visits))
                out.append(Var(position))
                continue
            push(node)
            if cls is App:
                push((node.arg, depth, vec, table))
                push((node.fn, depth, vec, table))
            elif cls is Lam:
                depth += 1
                push((node.body, depth, (depth, vec), table))
            elif cls is Catch:
                push((node.body, depth, vec, (vec, table)))
            elif cls is Throw:
                label, snapshot, n = node.label, table, 0
                while snapshot is not None and n != label:
                    snapshot, n = snapshot[1], n + 1
                if snapshot is None:
                    raise OpenMuTermError(label, n, path_at(t, visits))
                push((node.body, depth, snapshot[0], table))
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
