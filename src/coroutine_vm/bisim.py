"""Lock-step simulation checks between the three machines.

The it machine is the pivot. Two simulation relations tie its states (and
closures) to those of the other machines:

  * R_star(c, d) relates an it state c to a ct state d. d.term must be
    down(c.term) in c's own depth/vector/table context. A variable at local
    index l is the ct variable depth - vec[l], with l inside vec; a capture
    stays a capture and pushes vec onto the table; a restore stays a restore
    to the same label, which must be in the table, and switches to
    table[label].
    env, mu_env and the stack are related pointwise.
  * R_diamond(c, g) relates an it state c to a gs state g. The terms are
    the same object or structurally equal. g.lenv has one entry per entry k
    of vec, related to the global closure env[depth - k]; g.lenv_mu has one
    local environment per table vector, selected the same way. The label
    stacks and the stack are related pointwise.

Both relations check exact types, spine lengths, ints and every field. A
broken index (outside the vector, the table or the environment) makes them
false. Nothing is built: the terms are walked together rather than
translated, and each check runs on an explicit work list, so it needs no
recursion however deeply closures nest.

lockstep steps the machines together, checks the relations at every step
and stops at the first failure; it keeps no past states. Consecutive states
share almost all structure, so one memo of proven pairs, keyed by object
identity and pinning both sides, leaves a step only its new structure to
check. The memo keeps two generations: every _MEMO_GENERATION steps the
young one becomes the old one and the old one is dropped, and a hit in the
old one is promoted. That bounds memory; a pair that aged out is only
checked again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machines import (
    CALCULUS,
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
from .terms import App, Catch, Lam, TermGS, Throw, Var, print_term
from .translate import down

PAIRS = ("star", "diamond", "composed")

# Lock-step steps per memo generation; the memo holds the pairs proven in the
# last two generations.
_MEMO_GENERATION = 4096


class RelationMemo:
    """Pairs already proven related, keyed by (kind, id, id, ...).

    Each entry pins the objects its ids name, so an id stays valid while its
    key is held. A pair is recorded when it is first visited, before its
    parts are checked, so a memo may be reused only while every check that
    used it has returned True.
    """

    __slots__ = ("young", "old")

    def __init__(self):
        self.young: dict[tuple, tuple] = {}
        self.old: dict[tuple, tuple] = {}

    def age(self):
        """Start a new generation: pairs not seen in the last two are dropped."""
        self.old, self.young = self.young, {}

    def first_visit(self, key: tuple, pins: tuple) -> bool:
        """Record key; False if it was already proven (an old hit is promoted)."""
        young = self.young
        if key in young:
            return False
        young[key] = pins
        return self.old.pop(key, None) is None

# ---------------------------------------------------------------------------
# The relations
# ---------------------------------------------------------------------------

# Work items are (kind, it side, other side, context...). A list kind relates
# two lists pointwise by its element kind.
_STAR_CLOSURE, _STAR_ENV, _STAR_LABELS, _STAR_TERM = range(4)
_DIAMOND_CLOSURE, _DIAMOND_ENV, _DIAMOND_LABELS, _DIAMOND_LOCAL, _DIAMOND_TABLE = range(4, 9)
_ELEMENT = {
    _STAR_ENV: _STAR_CLOSURE,
    _STAR_LABELS: _STAR_ENV,
    _DIAMOND_ENV: _DIAMOND_CLOSURE,
    _DIAMOND_LABELS: _DIAMOND_ENV,
}


def R_star(it: StateIT | ClosureIT, ct: StateCT | ClosureCT, memo: RelationMemo | None = None) -> bool:
    """Does the ct state (or closure) simulate the it state (or closure)?"""
    memo = RelationMemo() if memo is None else memo
    if type(ct) is not (StateCT if type(it) is StateIT else ClosureCT):
        return False
    todo: list[tuple] = []
    if type(it) is StateIT:
        todo.append((_STAR_ENV, it.stack, ct.stack))
    return _star_fields(it, ct, todo, memo) and _prove(todo, memo)


def R_diamond(it: StateIT | ClosureIT, gs: StateGS | ClosureGS, memo: RelationMemo | None = None) -> bool:
    """Does the gs state (or closure) simulate the it state (or closure)?"""
    memo = RelationMemo() if memo is None else memo
    if type(gs) is not (StateGS if type(it) is StateIT else ClosureGS):
        return False
    todo: list[tuple] = []
    if type(it) is StateIT:
        todo.append((_DIAMOND_ENV, it.stack, gs.stack))
    return _diamond_fields(it, gs, todo) and _prove(todo, memo)


def _star_fields(x, y, todo: list, memo: RelationMemo) -> bool:
    todo.append((_STAR_ENV, x.env, y.env))
    todo.append((_STAR_LABELS, x.mu_env, y.mu_env))
    return _star_term(x.term, y.term, x.depth, x.vec, x.table, memo)


def _diamond_fields(x, y, todo: list) -> bool:
    todo.append((_DIAMOND_LOCAL, x.vec, y.lenv, x.depth, x.env))
    todo.append((_DIAMOND_TABLE, x.table, y.lenv_mu, x.depth, x.env))
    todo.append((_DIAMOND_LABELS, x.mu_env, y.mu_env))
    return x.term is y.term or _same_term(x.term, y.term)


def _prove(todo: list, memo: RelationMemo) -> bool:
    """Check every work item; True iff all of them hold."""
    first_visit = memo.first_visit
    push = todo.append
    while todo:
        item = todo.pop()
        kind, x, y = item[0], item[1], item[2]
        element = _ELEMENT.get(kind)
        if element is not None:
            if type(y) is not PList or x.length != y.length:
                return False
            while x is not NIL and first_visit((kind, id(x), id(y)), (x, y)):
                push((element, x.head, y.head))
                x, y = x.tail, y.tail
        elif kind == _STAR_CLOSURE:
            if type(y) is not ClosureCT:
                return False
            if first_visit((kind, id(x), id(y)), (x, y)) and not _star_fields(x, y, todo, memo):
                return False
        elif kind == _DIAMOND_CLOSURE:
            if type(y) is not ClosureGS:
                return False
            if first_visit((kind, id(x), id(y)), (x, y)) and not _diamond_fields(x, y, todo):
                return False
        elif kind == _DIAMOND_LOCAL:
            # x is a vector that selects the local environment y from the
            # global environment env at depth.
            depth, env = item[3], item[4]
            if type(y) is not PList or y.length != x.length:
                return False
            while x is not NIL and first_visit((kind, id(x), id(y), depth, id(env)), (x, y, env)):
                selected = depth - x.head
                if not 0 <= selected < env.length:
                    return False
                push((_DIAMOND_CLOSURE, env[selected], y.head))
                x, y = x.tail, y.tail
        else:  # _DIAMOND_TABLE: x a table of vectors, y the local environments they select
            depth, env = item[3], item[4]
            if type(y) is not PList or y.length != x.length:
                return False
            while x is not NIL and first_visit((kind, id(x), id(y), depth, id(env)), (x, y, env)):
                push((_DIAMOND_LOCAL, x.head, y.head, depth, env))
                x, y = x.tail, y.tail
    return True


def _star_term(x, y, depth: int, vec: PList, table: PList, memo: RelationMemo) -> bool:
    """Is the ct term y down of the it term x at depth/vec/table?"""
    if not memo.first_visit((_STAR_TERM, id(x), id(y), depth, id(vec), id(table)), (x, y, vec, table)):
        return True
    todo = [(x, y, depth, vec, table)]
    while todo:
        x, y, depth, vec, table = todo.pop()
        kind = type(x)
        if type(y) is not kind:  # down keeps every node's class
            return False
        if kind is Var:
            local = x.index
            if not 0 <= local < vec.length:
                return False
            if type(y.index) is not int or y.index != depth - vec[local]:
                return False
        elif kind is App:
            todo.append((x.fn, y.fn, depth, vec, table))
            todo.append((x.arg, y.arg, depth, vec, table))
        elif kind is Lam:
            todo.append((x.body, y.body, depth + 1, vec.cons(depth + 1), table))
        elif kind is Catch:
            todo.append((x.body, y.body, depth, vec, table.cons(vec)))
        elif kind is Throw:
            label = x.label
            if type(y.label) is not int or y.label != label:
                return False
            if not 0 <= label < table.length:
                return False
            todo.append((x.body, y.body, depth, table[label], table))
        else:
            return False
    return True


def _same_term(x, y) -> bool:
    """Structural equality of two index terms, exact types included."""
    todo = [(x, y)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, int):
            if x != y:
                return False
            continue
        todo.extend((getattr(x, name), getattr(y, name)) for name in type(x).__match_args__)
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
    left: str | None = None  # it-machine state at the divergence
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
    """One-line state summary for divergence reports, its term in the machine's calculus."""
    if isinstance(s, StateCT):
        machine, shape = "ct", f"env={len(s.env)} labels={len(s.mu_env)} stack={len(s.stack)}"
    elif isinstance(s, StateGS):
        machine, shape = "gs", f"lenv={len(s.lenv)} labels={len(s.lenv_mu)}/{len(s.mu_env)} stack={len(s.stack)}"
    else:
        machine = "it"
        shape = (
            f"depth={s.depth} vec={list(s.vec)} table=[{len(s.table)} vecs] "
            f"env={len(s.env)} labels={len(s.mu_env)} stack={len(s.stack)}"
        )
    return f"<{print_term(s.term, CALCULUS[machine])} | {shape}>"


_HALTS = (RULE_FINAL, RULE_STUCK)


def _run_end(rule: str, i: int, fuel: int) -> str:
    """How a run stands once its state at step i has taken rule."""
    if rule in _HALTS:
        return rule
    return "fuel" if i >= fuel else "running"


def lockstep(t: TermGS, pair: str = "composed", max_steps: int | None = None) -> LockstepReport:
    """Run the it machine on t and the ct and/or gs machine alongside it.

    star: the ct machine runs the translated term and every it state must be
    R_star-related to the corresponding ct state. diamond: likewise by
    R_diamond against the gs machine on t itself. composed: both against one
    it run (which forces the ct and gs runs to halt at the same step). At
    each step the relations are checked (ct before gs), then every state
    must have exactly one applicable rule, then all runs must go on, or all
    end the same way, and last every step function must have returned the
    rule that applies; the first failure is reported. A stuck outcome is
    always a divergence (well-scoped closed inputs never get stuck).
    """
    if pair not in PAIRS:
        raise ValueError(f"unknown pair {pair!r} (expected one of {PAIRS})")
    fuel = resolve_max_steps(max_steps)
    memo = RelationMemo()

    it_initial = initial_it(t)  # rejects open terms before down sees them
    partners = []  # (name, step function, relation to an it state)
    states = []  # the partners' current states, then the it machine's
    if pair in ("star", "composed"):
        partners.append(("ct", step_ct, R_star))
        states.append(initial_ct(down(t)))
    if pair in ("diamond", "composed"):
        partners.append(("gs", step_gs, R_diamond))
        states.append(initial_gs(t))
    states.append(it_initial)
    names = [name for name, _, _ in partners] + ["it"]

    i = 0
    while True:
        if i % _MEMO_GENERATION == 0:
            memo.age()
        it_state = states[-1]
        for (name, _, related), state in zip(partners, states):
            if not related(it_state, state, memo):
                detail = f"it-state image differs from {name} state at step {i}"
                return _diverged(pair, i, describe_state(it_state), describe_state(state), detail)
        applicable = []
        for state in states:
            rules = applicable_rules(state)
            if len(rules) != 1:
                detail = "rule dispatch was not deterministic"
                return _diverged(pair, i, describe_state(state), f"{len(rules)} rules apply", detail)
            applicable.append(rules[0])

        stepped = states[:]
        it_rule, states[-1] = step_it(it_state)
        taken = []
        for k, (name, step, _) in enumerate(partners):
            rule, states[k] = step(states[k])
            taken.append(rule)
            if rule != it_rule and (rule in _HALTS or it_rule in _HALTS):
                left = f"it run: {_run_end(it_rule, i, fuel)} after {i} steps"
                right = f"{name} run: {_run_end(rule, i, fuel)} after {i} steps"
                return _diverged(pair, i, left, right, "runs did not end the same way at the same step")
            if rule == RULE_STUCK:
                left, right = f"it run: stuck ({states[-1]})", f"{name} run: stuck ({states[k]})"
                return _diverged(pair, i, left, right, "both machines got stuck (input was not well-scoped)")
        taken.append(it_rule)
        for name, rule, expected, state in zip(names, taken, applicable, stepped):
            if rule != expected:
                detail = f"{name} step returned rule {rule} where rule {expected} applies at step {i}"
                return _diverged(pair, i, describe_state(state), f"{name} step: {rule}", detail)
        if it_rule == RULE_FINAL:
            return LockstepReport(pair, i, "both_halted")
        if i >= fuel:
            return LockstepReport(pair, i, "fuel_exhausted")
        i += 1


def _diverged(pair: str, i: int, left: str, right: str, detail: str) -> LockstepReport:
    return LockstepReport(pair, i, "diverged", diverged_at=i, left=left, right=right, detail=detail)
