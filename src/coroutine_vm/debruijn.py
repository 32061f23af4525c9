"""Named → index conversion for both calculi.

The catch/throw conversion is the standard one over two separate binder
stacks. The getctx/setctx conversion additionally enforces the visibility
discipline: it threads the list of variables visible in the current coroutine
(Lam pushes, a capture snapshots it per label, a restore brings a snapshot
back) and indexes each variable by its position in that list. A bound but
invisible variable is the named-level unsafety signal and raises
NotVisibleError rather than UnboundNameError.

Both walk the term on an explicit work list, so they run at any nesting
depth, and no binder copies the binders around it. The node itself, pushed
under its subterms' visits, is the marker that builds its index form from
theirs once they are done, on the `out` stack, and leaves its scope.
Subterms are visited left to right, so the first error raised is the one a
recursive walk would raise; no path is carried, and errors.path_at rebuilds
the failing node's from the count of visits when raising.
"""

from __future__ import annotations

from .errors import NotVisibleError, UnboundNameError, path_at
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

_DONE = object()  # the next entry down is a marker, not a node to visit


def to_debruijn_ct(t: NamedTermCT) -> TermCT:
    """Convert a closed named catch/throw term; indices count intervening binders.

    Each name maps to the stack of depths of its binders in scope, one dict
    for Lam binders and one for labels, so a variable's index is the current
    depth minus its innermost binder's depth. A visit needs no context, so
    the work list holds bare nodes, and each marker lies under _DONE.
    """
    lams: dict[str, list[int]] = {}
    labels: dict[str, list[int]] = {}
    lam_depth = label_depth = visits = 0
    out: list[TermCT] = []
    todo: list = [t]
    push, pop = todo.append, todo.pop
    while todo:
        node = pop()
        if node is _DONE:
            node = pop()
            cls = type(node)
            if cls is NApp:
                arg = out.pop()
                out[-1] = App(out[-1], arg)
            elif cls is NLam:
                lams[node.param].pop()
                lam_depth -= 1
                out[-1] = Lam(out[-1])
            elif cls is NCatch:
                labels[node.label].pop()
                label_depth -= 1
                out[-1] = Catch(out[-1])
            else:
                out[-1] = Throw(label_depth - labels[node.label][-1], out[-1])
            continue
        visits += 1
        cls = type(node)
        if cls is NVar:
            depths = lams.get(node.name)
            if not depths:
                raise UnboundNameError(node.name, path_at(t, visits))
            out.append(Var(lam_depth - depths[-1]))
            continue
        push(node)
        push(_DONE)
        if cls is NApp:
            push(node.arg)
            push(node.fn)
            continue
        if cls is NLam:
            lam_depth += 1
            lams.setdefault(node.param, []).append(lam_depth)
        elif cls is NCatch:
            label_depth += 1
            labels.setdefault(node.label, []).append(label_depth)
        elif cls is NThrow:
            if not labels.get(node.label):
                raise UnboundNameError(node.label, path_at(t, visits), kind="label")
        else:
            raise TypeError(f"not a named catch/throw term: {node!r}")
        push(node.body)
    return out[0]


def to_debruijn_gs(t: NamedTermGS) -> TermGS:
    """Convert a closed, visibility-respecting named getctx/setctx term.

    Raises NotVisibleError when a variable is bound by an enclosing Lam but
    absent from the visible list of the coroutine where it occurs.

    Each visit carries the visible variables as a linked list (name, length,
    rest), None when empty. A variable's index is its leftmost position in
    the visible list. Each label maps to the stack of its captures in scope,
    (capture depth, visible list) each. Whether a variable missing from its
    list is bound at all is asked only then, of the binders on its path.
    """
    snapshots: dict[str, list[tuple[int, tuple | None]]] = {}
    depth = visits = 0
    out: list[TermGS] = []
    todo: list = [(t, None)]
    push, pop = todo.append, todo.pop
    while todo:
        item = pop()
        cls = type(item)
        if cls is tuple:
            node, visible = item
            visits += 1
            cls = type(node)
            if cls is NVar:
                name = node.name
                cell = visible
                while cell is not None and cell[0] != name:
                    cell = cell[2]
                if cell is None:
                    path, scope = path_at(t, visits), t
                    for step in path:
                        if type(scope) is NLam and scope.param == name:
                            raise NotVisibleError(name, path)
                        scope = getattr(scope, step)
                    raise UnboundNameError(name, path)
                out.append(Var(visible[1] - cell[1]))
                continue
            push(node)
            if cls is NApp:
                push((node.arg, visible))
                push((node.fn, visible))
            elif cls is NLam:
                push((node.body, (node.param, visible[1] + 1 if visible else 1, visible)))
            elif cls is NCatch:
                depth += 1
                snapshots.setdefault(node.label, []).append((depth, visible))
                push((node.body, visible))
            elif cls is NThrow:
                stack = snapshots.get(node.label)
                if not stack:
                    raise UnboundNameError(node.label, path_at(t, visits), kind="label")
                push((node.body, stack[-1][1]))
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
        else:
            out[-1] = Throw(depth - snapshots[item.label][-1][0], out[-1])
    return out[0]
