"""Lock-step simulation checks between the three machines.

The it machine is the pivot: a *star* image rewrites one of its states into a
ct-machine state (translating every embedded term through the closure's own
depth/vector/table), a *diamond* image rewrites it into a gs-machine state
(flattening the global environment into local ones). Both images are
functional, so checking the simulation means computing the image of the i-th
it state and comparing it structurally with the i-th state of the other
machine, plus requiring that both runs end the same way at the same step.
The image of state i depends on state i alone, so lockstep steps the
machines together, checks each step as it goes and stops at the first
failure; it builds no list of past states.

Machine states share almost all structure from one step to the next, so the
mappers memoize by object identity (closure, spine, and translation caches
live for one lockstep call) and state comparison is a pair-memoized DAG
equality; per step, only newly created structure costs anything.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import Any, Callable

from .machines import (
    ClosureCT,
    ClosureGS,
    ClosureIT,
    RULE_FINAL,
    RULE_STUCK,
    State,
    StateCT,
    StateGS,
    StateIT,
    applicable_rules,
    initial_ct,
    initial_gs,
    initial_it,
    resolve_max_steps,
    step_ct,
    step_gs,
    step_it,
)
from .plist import NIL, PList
from .terms import TermGS, print_term
from .translate import down

PAIRS = ("star", "diamond", "composed")

# Closure nesting grows one level per machine step; recursion through the
# mappers takes a few frames per level, so give long runs headroom.
_RECURSION_HEADROOM = 20_000


def _ensure_recursion_headroom():
    if sys.getrecursionlimit() < _RECURSION_HEADROOM:
        sys.setrecursionlimit(_RECURSION_HEADROOM)


class SimulationMaps:
    """Identity-keyed caches for the star/diamond mappers.

    Values pin the objects they were computed from, so ids stay valid for the
    cache's lifetime (one lockstep run, or whatever the caller chooses).
    """

    def __init__(self):
        self.down_by_site: dict[tuple, tuple] = {}
        self.star_by_closure: dict[int, tuple] = {}
        self.star_closure_lists: dict[int, tuple] = {}
        self.star_stack_lists: dict[int, tuple] = {}
        self.diamond_by_closure: dict[int, tuple] = {}
        self.diamond_closure_lists: dict[int, tuple] = {}
        self.diamond_stack_lists: dict[int, tuple] = {}
        self.flatten_by_site: dict[tuple, tuple] = {}


def _map_spine(pl: PList, item_fn: Callable[[Any], Any], cache: dict[int, tuple]) -> PList:
    """Map item_fn over a persistent list, reusing any already-mapped suffix."""
    pending = []
    node = pl
    while node is not NIL and id(node) not in cache:
        pending.append(node)
        node = node.tail
    out = NIL if node is NIL else cache[id(node)][1]
    for cell in reversed(pending):
        out = out.cons(item_fn(cell.head))
        cache[id(cell)] = (cell, out)
    return out

# ---------------------------------------------------------------------------
# star: it-machine state -> ct-machine state
# ---------------------------------------------------------------------------


def _down_cached(term, depth: int, vec: PList, table: PList, maps: SimulationMaps):
    key = (id(term), depth, id(vec), id(table))
    hit = maps.down_by_site.get(key)
    if hit is not None:
        return hit[4]
    translated = down(term, depth, vec, table)
    maps.down_by_site[key] = (term, depth, vec, table, translated)
    return translated


def star_closure(c: ClosureIT, maps: SimulationMaps | None = None) -> ClosureCT:
    """Translate the closure's term through its own indirection context and
    map its environments element-wise."""
    maps = maps or SimulationMaps()
    _ensure_recursion_headroom()
    return _star_closure(c, maps)


def _star_closure(c: ClosureIT, maps: SimulationMaps) -> ClosureCT:
    hit = maps.star_by_closure.get(id(c))
    if hit is not None:
        return hit[1]
    mapped = ClosureCT(
        _down_cached(c.term, c.depth, c.vec, c.table, maps),
        _star_env(c.env, maps),
        _map_spine(c.mu_env, lambda stack: _star_env(stack, maps), maps.star_stack_lists),
    )
    maps.star_by_closure[id(c)] = (c, mapped)
    return mapped


def _star_env(env: PList, maps: SimulationMaps) -> PList:
    return _map_spine(env, lambda c: _star_closure(c, maps), maps.star_closure_lists)


def star_state(s: StateIT, maps: SimulationMaps | None = None) -> StateCT:
    maps = maps or SimulationMaps()
    _ensure_recursion_headroom()
    mapped = _star_closure(s.closure(), maps)
    return StateCT(mapped.term, mapped.env, mapped.mu_env, _star_env(s.stack, maps))

# ---------------------------------------------------------------------------
# diamond: it-machine state -> gs-machine state
# ---------------------------------------------------------------------------


def flatten(depth: int, env: PList, vec: PList, maps: SimulationMaps | None = None) -> PList:
    """Extract the local environment selected by a vector from the global one.

    Each binder depth k in the vector picks the global closure env[depth - k]
    and maps it through diamond; order is preserved. Raises IndexError if the
    vector points outside the environment (a broken machine state).
    """
    maps = maps or SimulationMaps()
    _ensure_recursion_headroom()
    return _flatten(depth, env, vec, maps)


def _flatten(depth: int, env: PList, vec: PList, maps: SimulationMaps) -> PList:
    key = (depth, id(env), id(vec))
    hit = maps.flatten_by_site.get(key)
    if hit is not None:
        return hit[3]
    out = NIL
    for k in reversed(list(vec)):
        out = out.cons(_diamond_closure(env[depth - k], maps))
    maps.flatten_by_site[key] = (depth, env, vec, out)
    return out


def diamond_closure(c: ClosureIT, maps: SimulationMaps | None = None) -> ClosureGS:
    """Carry the term unchanged; flatten the vector/table into local
    environments and map the label stacks element-wise."""
    maps = maps or SimulationMaps()
    _ensure_recursion_headroom()
    return _diamond_closure(c, maps)


def _diamond_closure(c: ClosureIT, maps: SimulationMaps) -> ClosureGS:
    hit = maps.diamond_by_closure.get(id(c))
    if hit is not None:
        return hit[1]
    local_envs = NIL
    for vec in reversed(list(c.table)):
        local_envs = local_envs.cons(_flatten(c.depth, c.env, vec, maps))
    mapped = ClosureGS(
        c.term,
        _flatten(c.depth, c.env, c.vec, maps),
        local_envs,
        _map_spine(c.mu_env, lambda stack: _diamond_env(stack, maps), maps.diamond_stack_lists),
    )
    maps.diamond_by_closure[id(c)] = (c, mapped)
    return mapped


def _diamond_env(env: PList, maps: SimulationMaps) -> PList:
    return _map_spine(env, lambda c: _diamond_closure(c, maps), maps.diamond_closure_lists)


def diamond_state(s: StateIT, maps: SimulationMaps | None = None) -> StateGS:
    maps = maps or SimulationMaps()
    _ensure_recursion_headroom()
    mapped = _diamond_closure(s.closure(), maps)
    return StateGS(mapped.term, mapped.lenv, mapped.lenv_mu, mapped.mu_env, _diamond_env(s.stack, maps))

# ---------------------------------------------------------------------------
# DAG-aware structural equality
# ---------------------------------------------------------------------------

_FIELDS_CACHE: dict[type, tuple[str, ...]] = {}


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELDS_CACHE.get(cls)
    if names is None:
        names = tuple(f.name for f in fields(cls))
        _FIELDS_CACHE[cls] = names
    return names


def deep_eq(a: Any, b: Any, memo: set[tuple[int, int]] | None = None) -> bool:
    """Structural equality over states/closures/terms/spines.

    Iterative, with a seen-pair memo: shared substructure is compared once,
    so the cost is proportional to the object graphs, not their unfoldings.
    The memo assumes acyclic values (machine states always are). A memo may
    be reused across calls only while every call has returned True: a False
    return leaves partially-checked pairs in it.
    """
    memo = set() if memo is None else memo
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, (int, str)):
            if x != y:
                return False
            continue
        pair = (id(x), id(y))
        if pair in memo:
            continue
        memo.add(pair)
        if isinstance(x, PList):
            if len(x) != len(y):
                return False
            todo.append((x.tail, y.tail))
            todo.append((x.head, y.head))
            continue
        names = _field_names(type(x))
        for name in names:
            todo.append((getattr(x, name), getattr(y, name)))
    return True

# ---------------------------------------------------------------------------
# Lock-step runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LockstepReport:
    """Outcome of driving two (or three) machines in lock step."""

    pair: str
    steps_checked: int  # transitions verified on each machine
    outcome: str  # "both_halted", "fuel_exhausted", "diverged"
    diverged_at: int | None = None
    left: str | None = None  # mapped it-machine state at the divergence
    right: str | None = None  # actual state of the other machine
    detail: str | None = None

    @property
    def all_related(self) -> bool:
        return self.outcome != "diverged"

    def to_dict(self) -> dict:
        out = {"pair": self.pair, "steps_checked": self.steps_checked, "outcome": self.outcome}
        if self.outcome == "diverged":
            out.update(diverged_at=self.diverged_at, left=self.left, right=self.right, detail=self.detail)
        return out


def describe_state(s: State) -> str:
    """One-line state summary for divergence reports."""
    term = print_term(s.term)
    if isinstance(s, StateCT):
        shape = f"env={len(s.env)} labels={len(s.mu_env)} stack={len(s.stack)}"
    elif isinstance(s, StateGS):
        shape = f"lenv={len(s.lenv)} labels={len(s.lenv_mu)}/{len(s.mu_env)} stack={len(s.stack)}"
    else:
        shape = (
            f"depth={s.depth} vec={list(s.vec)} table=[{len(s.table)} vecs] "
            f"env={len(s.env)} labels={len(s.mu_env)} stack={len(s.stack)}"
        )
    return f"<{term} | {shape}>"


_HALTS = (RULE_FINAL, RULE_STUCK)


def _run_end(rule: str, i: int, fuel: int) -> str:
    """How a run stands once its state at step i has taken rule."""
    if rule in _HALTS:
        return rule
    return "fuel" if i >= fuel else "running"


def lockstep(t: TermGS, pair: str = "composed", max_steps: int | None = None) -> LockstepReport:
    """Run the it machine on t and the ct and/or gs machine alongside it.

    star: the ct machine runs the translated term and every it state must map
    to the corresponding ct state. diamond: likewise against the gs machine on
    t itself. composed: both against one it run (which forces the ct and gs
    runs to halt at the same step). At each step the images are compared (ct
    before gs), then every state must have exactly one applicable rule, then
    all runs must go on, or all end the same way; the first failure is
    reported. A stuck outcome is always a divergence (well-scoped closed
    inputs never get stuck).
    """
    if pair not in PAIRS:
        raise ValueError(f"unknown pair {pair!r} (expected one of {PAIRS})")
    _ensure_recursion_headroom()
    fuel = resolve_max_steps(max_steps)
    maps = SimulationMaps()
    eq_memo: set[tuple[int, int]] = set()

    it_initial = initial_it(t)  # rejects open terms before down sees them
    partners = []  # (name, step function, image of an it state)
    states = []  # the partners' current states, then the it machine's
    if pair in ("star", "composed"):
        partners.append(("ct", step_ct, lambda s: star_state(s, maps)))
        states.append(initial_ct(down(t)))
    if pair in ("diamond", "composed"):
        partners.append(("gs", step_gs, lambda s: diamond_state(s, maps)))
        states.append(initial_gs(t))
    states.append(it_initial)

    i = 0
    while True:
        it_state = states[-1]
        for (name, _, image_of), state in zip(partners, states):
            image = image_of(it_state)
            if not deep_eq(image, state, eq_memo):
                detail = f"it-state image differs from {name} state at step {i}"
                return _diverged(pair, i, describe_state(image), describe_state(state), detail)
        for state in states:
            n_rules = len(applicable_rules(state))
            if n_rules != 1:
                detail = "rule dispatch was not deterministic"
                return _diverged(pair, i, describe_state(state), f"{n_rules} rules apply", detail)

        it_rule, states[-1] = step_it(it_state)
        for k, (name, step, _) in enumerate(partners):
            rule, states[k] = step(states[k])
            if rule != it_rule and (rule in _HALTS or it_rule in _HALTS):
                left = f"it run: {_run_end(it_rule, i, fuel)} after {i} steps"
                right = f"{name} run: {_run_end(rule, i, fuel)} after {i} steps"
                return _diverged(pair, i, left, right, "runs did not end the same way at the same step")
            if rule == RULE_STUCK:
                left, right = f"it run: stuck ({states[-1]})", f"{name} run: stuck ({states[k]})"
                return _diverged(pair, i, left, right, "both machines got stuck (input was not well-scoped)")
        if it_rule == RULE_FINAL:
            return LockstepReport(pair, i, "both_halted")
        if i >= fuel:
            return LockstepReport(pair, i, "fuel_exhausted")
        i += 1


def _diverged(pair: str, i: int, left: str, right: str, detail: str) -> LockstepReport:
    return LockstepReport(pair, i, "diverged", diverged_at=i, left=left, right=right, detail=detail)
