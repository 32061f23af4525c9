"""Safety judgments for catch/throw terms.

A term is *safe* when no coroutine touches the local environment of another
coroutine. Three equivalent formulations are implemented independently and
cross-checked by the test suite:

  * use_sets / is_safe: synthesize, per free label, the set of variables the
    corresponding coroutine uses, then require that no Lam binder occurs in a
    use set of a label free in its body. One bottom-up pass over an explicit
    stack builds each node's sets once and tests each binder on the way up,
    so both take time linear in the term at any nesting depth;
  * safe_named: thread the lexical scope and the visible binders per
    coroutine down the term, and test at each variable that its binder is
    visible. It walks an explicit work list and the lists are linked, so a
    binder conses two tuples and the walk runs at any nesting depth;
  * safe_db: the index-form judgment over depth vectors, used by
    the translation and the machines. It walks the same way, with binder
    depths for names and one linked vector per label in scope.

All three take the term alone. safe_named and safe_db carry no path: they
count their visits, and errors.path_at rebuilds the path when raising. Keep
the three independent: they are each other's oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OpenMuTermError, path_at
from .terms import (
    App,
    Catch,
    Lam,
    NamedTermCT,
    NApp,
    NCatch,
    NLam,
    NThrow,
    NVar,
    TermCT,
    Throw,
    Var,
)

# ---------------------------------------------------------------------------
# Use sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UseSets:
    """Variables used by the current coroutine and by each free label's coroutine."""

    current: frozenset[str]
    per_label: dict[str, frozenset[str]]


def use_sets(t: NamedTermCT) -> UseSets:
    current, per_label = _use_walk(t, check=False)
    return UseSets(frozenset(current), {label: frozenset(names) for label, names in per_label.items()})


def is_safe(t: NamedTermCT) -> bool:
    """True iff for every subterm \\x. u and every label free in u, x is not in u's use set for that label."""
    return _use_walk(t, check=True) is not None


def _use_walk(t: NamedTermCT, check: bool) -> tuple[set[str], dict[str, set[str]]] | None:
    """The use sets of t, each node's built once from its subterms' sets.

    A pre-order pass lists the nodes; walking that list backwards meets every
    node after its subterms, whose sets are then on top of `done`. Each set
    belongs to the one node that consumes it, so it is updated in place and
    a union pours the smaller set into the larger. With check, the walk stops
    with None at the first NLam whose parameter is in its body's use set of
    some label.
    """
    order = []
    todo = [t]
    while todo:
        node = todo.pop()
        order.append(node)
        cls = type(node)
        if cls is NApp:
            todo.append(node.arg)
            todo.append(node.fn)
        elif cls is NLam or cls is NCatch or cls is NThrow:
            todo.append(node.body)
        elif cls is not NVar:
            raise TypeError(f"not a named catch/throw term: {node!r}")
    done: list[tuple[set[str], dict[str, set[str]]]] = []
    for node in reversed(order):
        cls = type(node)
        if cls is NVar:
            done.append(({node.name}, {}))
        elif cls is NApp:
            current, per_label = done.pop()  # fn's sets; arg's lie below
            arg_current, arg_per_label = done[-1]
            done[-1] = (_union(current, arg_current), _merge(per_label, arg_per_label))
        elif cls is NLam:
            param = node.param
            current, per_label = done[-1]
            if check and any(param in names for names in per_label.values()):
                return None
            current.discard(param)
            for names in per_label.values():
                names.discard(param)
        elif cls is NCatch:
            current, per_label = done[-1]
            caught = per_label.pop(node.label, None)
            if caught is not None:
                done[-1] = (_union(current, caught), per_label)
        else:
            current, per_label = done[-1]
            target = per_label.get(node.label)
            per_label[node.label] = current if target is None else _union(target, current)
            done[-1] = (set(), per_label)
    return done[0]


def _union(a: set[str], b: set[str]) -> set[str]:
    if len(a) < len(b):
        a, b = b, a
    a |= b
    return a


def _merge(a: dict[str, set[str]], b: dict[str, set[str]]) -> dict[str, set[str]]:
    if len(a) < len(b):
        a, b = b, a
    for label, names in b.items():
        mine = a.get(label)
        a[label] = names if mine is None else _union(mine, names)
    return a

# ---------------------------------------------------------------------------
# Visibility form on named terms
# ---------------------------------------------------------------------------


def safe_named(t: NamedTermCT) -> bool:
    """Visibility judgment: every variable's binder must be visible in its own coroutine.

    The walk starts from the empty context, so a free variable is invisible
    and a free label raises OpenMuTermError.

    Each visit carries its lexical scope, linked (name, rest), and its
    visible list, linked (cell, rest), of the scope cells of the binders its
    coroutine sees; None when empty. A variable denotes the innermost scope
    cell of its name and is visible iff that cell is in the visible list.
    Each label maps to the stack of its visible lists in scope: a capture
    pushes one, and the capture node, queued under its body, pops it once
    the body is done. Subterms are visited left to right and the walk stops
    at the first invisible variable, so the error raised, if any, is the one
    a recursive walk would raise.
    """
    v_mu: dict = {}
    todo: list = [(t, None, None)]
    visits = 0
    push, pop = todo.append, todo.pop
    while todo:
        item = pop()
        if type(item) is not tuple:  # a capture whose body is done
            v_mu[item.label].pop()
            continue
        node, scope, v = item
        visits += 1
        cls = type(node)
        if cls is NVar:
            name = node.name
            while scope is not None and scope[0] != name:
                scope = scope[1]
            if scope is None:
                return False
            while v is not None and v[0] is not scope:
                v = v[1]
            if v is None:
                return False
        elif cls is NApp:
            push((node.arg, scope, v))
            push((node.fn, scope, v))
        elif cls is NLam:
            scope = (node.param, scope)
            push((node.body, scope, (scope, v)))
        elif cls is NCatch:
            v_mu.setdefault(node.label, []).append(v)
            push(node)
            push((node.body, scope, v))
        elif cls is NThrow:
            stack = v_mu.get(node.label)
            if not stack:
                raise OpenMuTermError(node.label, sum(1 for s in v_mu.values() if s), path_at(t, visits))
            push((node.body, scope, stack[-1]))
        else:
            raise TypeError(f"not a named catch/throw term: {node!r}")
    return True


# ---------------------------------------------------------------------------
# Index form
# ---------------------------------------------------------------------------


def safe_db(t: TermCT) -> bool:
    """Index-form safety judgment.

    depth counts Lam binders from the root; vec holds the binder depths
    visible in the current coroutine (newest first, strictly decreasing);
    table holds one such vector per label in scope. A variable at index g
    refers to the binder at depth depth - g and is safe iff that depth is a
    member of vec.

    Each visit is a (node, depth, vec, table) tuple on a work list, vec and
    table linked tuples (entry, rest). It answers False at the first unsafe
    variable from the left, so an open label to its right raises nothing.
    """
    todo: list = [(t, 0, None, None)]
    visits = 0
    push, pop = todo.append, todo.pop
    while todo:
        node, depth, vec, table = pop()
        visits += 1
        cls = type(node)
        if cls is Var:
            wanted = depth - node.index
            while vec is not None and vec[0] != wanted:
                vec = vec[1]
            if vec is None:
                return False
        elif cls is App:
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
    return True
