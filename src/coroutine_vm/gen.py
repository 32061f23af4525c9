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


class _Names:
    def __init__(self):
        self.vars = 0
        self.labels = 0

    def var(self) -> str:
        self.vars += 1
        return f"x{self.vars - 1}"

    def label(self) -> str:
        self.labels += 1
        return f"k{self.labels - 1}"


def _gen_named(rng, size, names, visible, bound, labels, safe_only):
    """Shared recursion for the named generators.

    visible: names visible in the current coroutine (newest first).
    bound: every Lam binder in scope (what unsafe-ok variables draw from).
    labels: (label, visible-snapshot) pairs, newest first.
    """
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
    if not choices or (size <= 1 and var_pool):
        if var_pool:
            return NVar(rng.choice(var_pool))
        choices = [("lam", 1)]  # no binder in scope yet: introduce one

    match _pick(rng, choices):
        case "var":
            return NVar(rng.choice(var_pool))
        case "app":
            left = rng.randint(1, size - 2)
            fn = _gen_named(rng, left, names, visible, bound, labels, safe_only)
            arg = _gen_named(rng, size - 1 - left, names, visible, bound, labels, safe_only)
            return NApp(fn, arg)
        case "lam":
            param = names.var()
            body = _gen_named(rng, size - 1, names, (param,) + visible, (param,) + bound, labels, safe_only)
            return NLam(param, body)
        case "capture":
            label = names.label()
            body = _gen_named(rng, size - 1, names, visible, bound, ((label, visible),) + labels, safe_only)
            return NCatch(label, body)
        case "restore":
            label, snapshot = labels[rng.randrange(len(labels))]
            restored = snapshot if safe_only else visible
            body = _gen_named(rng, size - 1, names, restored, bound, labels, safe_only)
            return NThrow(label, body)
    raise AssertionError("unreachable")


def gen_named_ct(rng: random.Random, size: int, unsafe_ok: bool = False) -> NamedTermCT:
    """A closed named catch/throw term; with unsafe_ok, safety is not enforced."""
    return _gen_named(rng, max(1, size), _Names(), (), (), (), safe_only=not unsafe_ok)


def gen_named_gs(rng: random.Random, size: int) -> NamedTermGS:
    """A closed, visibility-respecting named getctx/setctx term."""
    return _gen_named(rng, max(1, size), _Names(), (), (), (), safe_only=True)


def gen_gs_db(rng: random.Random, size: int) -> TermGS:
    """A closed, well-scoped index-form getctx/setctx term."""
    return to_debruijn_gs(gen_named_gs(rng, size))


def gen_ct_db(rng: random.Random, size: int) -> TermCT:
    """A closed index-form catch/throw term, arbitrary (often unsafe)."""
    return to_debruijn_ct(gen_named_ct(rng, size, unsafe_ok=True))
