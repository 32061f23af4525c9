"""Named → index conversion for both calculi.

The catch/throw conversion is the standard one over two separate binder
stacks. The getctx/setctx conversion additionally enforces the visibility
discipline: it threads the list of variables visible in the current coroutine
(Lam pushes, a capture snapshots it per label, a restore brings a snapshot
back) and indexes each variable by its position in that list. A bound but
invisible variable is the named-level unsafety signal and raises
NotVisibleError rather than UnboundNameError.

Both walk the term on an explicit work list, so they run at any nesting
depth, and no binder copies the binders around it. A node is visited from a
(node, ..., path) tuple; the node itself, pushed under its subterms' visits,
is the marker that builds its index form from theirs once they are done, on
the `out` stack, and leaves its scope. Subterms are visited left to right,
so the first error raised is the one a recursive walk would raise.
"""

from __future__ import annotations

from .errors import NotVisibleError, UnboundNameError, flatten_path
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
    """Convert a closed named catch/throw term; indices count intervening binders.

    Each name maps to the stack of depths of its binders in scope, one dict
    for Lam binders and one for labels, so a variable's index is the current
    depth minus its innermost binder's depth.
    """
    lams: dict[str, list[int]] = {}
    labels: dict[str, list[int]] = {}
    lam_depth = label_depth = 0
    out: list[TermCT] = []
    todo: list = [(t, None)]
    push, pop = todo.append, todo.pop
    while todo:
        item = pop()
        cls = type(item)
        if cls is tuple:
            node, path = item
            cls = type(node)
            if cls is NVar:
                depths = lams.get(node.name)
                if not depths:
                    raise UnboundNameError(node.name, flatten_path(path))
                out.append(Var(lam_depth - depths[-1]))
            elif cls is NApp:
                push(node)
                push((node.arg, (path, "arg")))
                push((node.fn, (path, "fn")))
            elif cls is NLam:
                lam_depth += 1
                lams.setdefault(node.param, []).append(lam_depth)
                push(node)
                push((node.body, (path, "body")))
            elif cls is NCatch:
                label_depth += 1
                labels.setdefault(node.label, []).append(label_depth)
                push(node)
                push((node.body, (path, "body")))
            elif cls is NThrow:
                depths = labels.get(node.label)
                if not depths:
                    raise UnboundNameError(node.label, flatten_path(path), kind="label")
                push(label_depth - depths[-1])
                push((node.body, (path, "body")))
            else:
                raise TypeError(f"not a named catch/throw term: {node!r}")
        elif cls is NApp:
            arg = out.pop()
            out[-1] = App(out[-1], arg)
        elif cls is NLam:
            lams[item.param].pop()
            lam_depth -= 1
            out[-1] = Lam(out[-1])
        elif cls is NCatch:
            labels[item.label].pop()
            label_depth -= 1
            out[-1] = Catch(out[-1])
        else:  # a Throw's label index
            out[-1] = Throw(item, out[-1])
    return out[0]


def to_debruijn_gs(t: NamedTermGS) -> TermGS:
    """Convert a closed, visibility-respecting named getctx/setctx term.

    Raises NotVisibleError when a variable is bound by an enclosing Lam but
    absent from the visible list of the coroutine where it occurs.

    Each visit carries the visible variables as a linked list (name, length,
    rest) and the bound ones as a linked list (name, rest), None when empty.
    A variable's index is its leftmost position in the visible list. Each
    label maps to the stack of its captures in scope, (capture depth,
    visible list) each.
    """
    snapshots: dict[str, list[tuple[int, tuple | None]]] = {}
    depth = 0
    out: list[TermGS] = []
    todo: list = [(t, None, None, None)]
    push, pop = todo.append, todo.pop
    while todo:
        item = pop()
        cls = type(item)
        if cls is tuple:
            node, visible, bound, path = item
            cls = type(node)
            if cls is NVar:
                name = node.name
                cell = visible
                while cell is not None and cell[0] != name:
                    cell = cell[2]
                if cell is None:
                    while bound is not None and bound[0] != name:
                        bound = bound[1]
                    if bound is not None:
                        raise NotVisibleError(name, flatten_path(path))
                    raise UnboundNameError(name, flatten_path(path))
                out.append(Var(visible[1] - cell[1]))
            elif cls is NApp:
                push(node)
                push((node.arg, visible, bound, (path, "arg")))
                push((node.fn, visible, bound, (path, "fn")))
            elif cls is NLam:
                param = node.param
                push(node)
                push((node.body, (param, visible[1] + 1 if visible else 1, visible), (param, bound), (path, "body")))
            elif cls is NCatch:
                depth += 1
                snapshots.setdefault(node.label, []).append((depth, visible))
                push(node)
                push((node.body, visible, bound, (path, "body")))
            elif cls is NThrow:
                stack = snapshots.get(node.label)
                if not stack:
                    raise UnboundNameError(node.label, flatten_path(path), kind="label")
                captured, snapshot = stack[-1]
                push(depth - captured)
                push((node.body, snapshot, bound, (path, "body")))
            else:
                raise TypeError(f"not a named getctx/setctx term: {node!r}")
        elif cls is NApp:
            arg = out.pop()
            out[-1] = App(out[-1], arg)
        elif cls is NLam:
            out[-1] = Lam(out[-1])
        elif cls is NCatch:
            snapshots[item.label].pop()
            depth -= 1
            out[-1] = Catch(out[-1])
        else:  # a Throw's label index
            out[-1] = Throw(item, out[-1])
    return out[0]
