"""Seeded random term generators.

Every generator emits closed terms and is deterministic for a given Random
instance. The getctx/setctx generators thread the visible-variable state the
same way the visibility judgment does (Lam pushes, getctx snapshots, setctx
restores), choosing variables from the visible list only, so their output is
well-scoped by construction and translates without error. The catch/throw
generators come in two flavors: visibility-respecting (safe by construction)
and arbitrary-closed (variables drawn from all binders in scope, so a mix of
safe and unsafe terms, which is what the equivalence and lift suites need).
The index-form generators are the named ones followed by index conversion.

Binder names are globally distinct within one term (x0, x1, ... / k0, k1,
...), which keeps the shadowing question out of the equivalence suites.
"""

from __future__ import annotations

import random
from itertools import count

from .debruijn import to_debruijn_ct, to_debruijn_gs
from .terms import (
    NamedTermCT,
    NamedTermGS,
    NApp,
    NCatch,
    NLam,
    NThrow,
    NVar,
    TermCT,
    TermGS,
)

# Relative weights for feasible constructors.
_W_VAR, _W_APP, _W_LAM, _W_CAPTURE, _W_RESTORE = 5, 4, 3, 2, 2


def _pick(rng: random.Random, choices: list[tuple[str, int]]) -> str:
    names = [name for name, _ in choices]
    weights = [w for _, w in choices]
    return rng.choices(names, weights=weights, k=1)[0]


def _draw(rng: random.Random, cells: tuple):
    """A uniform item of a linked tuple (item, length, rest), drawn as rng.choice draws from a sequence."""
    n = rng.randrange(cells[1])
    while n:
        cells, n = cells[2], n - 1
    return cells[0]


def _gen_named(rng, size, safe_only):
    """Shared generator for the named terms: draws in pre-order on an explicit stack.

    A subterm still to draw is (size, visible, bound, labels): the names
    visible in the current coroutine, every Lam binder in scope (what
    unsafe-ok variables draw from) and the (label, visible-snapshot) pairs,
    each a linked tuple (item, length, rest), newest first, None when empty,
    so a binder adds one cell. Each node drawn is recorded as (constructor,
    name), and the term is built from the records in reverse.
    """
    var_ids, label_ids = count(), count()
    drawn = []
    todo = [(size, None, None, None)]
    while todo:
        size, visible, bound, labels = todo.pop()
        var_pool = visible if safe_only else bound
        choices = []
        if var_pool:
            choices.append(("var", _W_VAR))
        if size >= 3:
            choices.append(("app", _W_APP))
        if size >= 2:
            choices.append(("lam", _W_LAM))
            choices.append(("capture", _W_CAPTURE))
            if labels:
                choices.append(("restore", _W_RESTORE))
        if var_pool and size <= 1:
            kind = "var"
        else:
            kind = _pick(rng, choices or [("lam", 1)])  # no choices: no binder in scope yet, introduce one

        match kind:
            case "var":
                drawn.append((NVar, _draw(rng, var_pool)))
            case "app":
                left = rng.randint(1, size - 2)
                drawn.append((NApp, None))
                todo.append((size - 1 - left, visible, bound, labels))  # the argument, drawn after the function
                todo.append((left, visible, bound, labels))
            case "lam":
                param = f"x{next(var_ids)}"
                drawn.append((NLam, param))
                visible = (param, visible[1] + 1 if visible else 1, visible)
                bound = (param, bound[1] + 1 if bound else 1, bound)
                todo.append((size - 1, visible, bound, labels))
            case "capture":
                label = f"k{next(label_ids)}"
                drawn.append((NCatch, label))
                labels = ((label, visible), labels[1] + 1 if labels else 1, labels)
                todo.append((size - 1, visible, bound, labels))
            case "restore":
                label, snapshot = _draw(rng, labels)
                drawn.append((NThrow, label))
                todo.append((size - 1, snapshot if safe_only else visible, bound, labels))

    built = []  # a node's parts are on top when its record comes up
    for cls, name in reversed(drawn):
        if cls is NApp:
            built.append(NApp(built.pop(), built.pop()))  # the function is on top
        else:
            built.append(cls(name) if cls is NVar else cls(name, built.pop()))
    return built.pop()


def gen_named_ct(rng: random.Random, size: int, unsafe_ok: bool = False) -> NamedTermCT:
    """A closed named catch/throw term; with unsafe_ok, safety is not enforced."""
    return _gen_named(rng, max(1, size), safe_only=not unsafe_ok)


def gen_named_gs(rng: random.Random, size: int) -> NamedTermGS:
    """A closed, visibility-respecting named getctx/setctx term."""
    return _gen_named(rng, max(1, size), safe_only=True)


def gen_gs_db(rng: random.Random, size: int) -> TermGS:
    """A closed, well-scoped index-form getctx/setctx term."""
    return to_debruijn_gs(gen_named_gs(rng, size))


def gen_ct_db(rng: random.Random, size: int) -> TermCT:
    """A closed index-form catch/throw term, arbitrary (often unsafe)."""
    return to_debruijn_ct(gen_named_ct(rng, size, unsafe_ok=True))
