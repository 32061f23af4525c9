"""Lock-step simulation checks between the three machines.

The it machine is the pivot. Two simulation relations tie its states to
those of the other machines. A closure is a state with stack=NIL, so the
same relations relate closures, whose two empty stacks need no check:

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
    local environment per table vector, selected the same way. A vector
    must not increase from one entry to the next (the it machine's vectors
    strictly decrease); one that does is not related. The label
    stacks and the stack are related pointwise.

Both relations check exact types, spine lengths, ints and every field. A
broken index (outside the vector, the table or the environment) makes them
false. Nothing is built: the terms are walked together rather than
translated, and each check runs on an explicit work list, so it needs no
recursion however deeply closures nest.

lockstep steps the machines together, checks the relations at every step
and stops at the first failure; it keeps no past states. Consecutive states
share almost all structure, so one memo of proven pairs, a dict keyed by
object identity whose entries pin both sides, leaves a step only its new
structure to check. A vector and the local environment it selects are keyed
by the cell of env their first entry selects from, which a binder leaves in
place. Each field's key is built once, where the field is read, so a field
already proven costs one probe; only a pair not yet proven goes on the work
list. A key in the memo is a pair proven since the memo was last cleared:
lockstep clears it every _MEMO_GENERATION steps, which bounds memory, and
the live state is then proven once more.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machines import (
    RULE_FINAL,
    RULE_STUCK,
    State,
    StateCT,
    StateGS,
    StateIT,
    _not_a_state,
    applicable_rules,
    initial_ct,
    initial_gs,
    initial_it,
    resolve_max_steps,
    step,
)
from .plist import NIL, PList
from .terms import App, Catch, Lam, TermGS, Throw, Var, print_term
from .translate import down

PAIRS = ("star", "diamond", "composed")

# Lock-step steps between two clears of the memo of proven pairs.
_MEMO_GENERATION = 4096

# ---------------------------------------------------------------------------
# The relations
# ---------------------------------------------------------------------------

# The memo is a dict of pairs proven since it was last cleared, keyed by
# (kind, id, id, ...). Each entry pins the objects its ids name, so an id
# stays valid while its key is held. A pair is recorded when it is first
# probed, before its parts are checked, so a memo may be reused only while
# every check that used it has returned True.
#
# A pair of fields is probed where it is read: its key is built there, once,
# and a proven pair costs that one dict probe. A pair not yet proven is
# recorded and becomes a work item (kind, it side, other side, context...),
# which is also its entry. A list kind relates two lists pointwise by its
# element kind: the walk records each further pair of cells and stops at the
# first one already proven. Two empty lists are related without a key.
_STAR_CLOSURE, _STAR_ENV, _STAR_LABELS, _STAR_TERM = range(4)
_DIAMOND_CLOSURE, _DIAMOND_ENV, _DIAMOND_LABELS, _DIAMOND_LOCAL, _DIAMOND_TABLE = range(4, 9)
_ELEMENT = {
    _STAR_ENV: _STAR_CLOSURE,
    _STAR_LABELS: _STAR_ENV,
    _DIAMOND_ENV: _DIAMOND_CLOSURE,
    _DIAMOND_LABELS: _DIAMOND_ENV,
}


def R_star(it: StateIT, ct: StateCT, memo: dict | None = None) -> bool:
    """Does the ct state simulate the it state? Either may be a closure, a state with stack=NIL."""
    memo = {} if memo is None else memo
    if type(it) is not StateIT or type(ct) is not StateCT:
        return False
    todo: list[tuple] = []
    return _star_fields(it, ct, todo, memo) and (not todo or _prove(todo, memo))


def R_diamond(it: StateIT, gs: StateGS, memo: dict | None = None) -> bool:
    """Does the gs state simulate the it state? Either may be a closure, a state with stack=NIL."""
    memo = {} if memo is None else memo
    if type(it) is not StateIT or type(gs) is not StateGS:
        return False
    todo: list[tuple] = []
    return _diamond_fields(it, gs, todo, memo) and (not todo or _prove(todo, memo))


def _star_fields(x, y, todo: list, memo: dict) -> bool:
    """Probe the stack (NIL on two closures: no key), environment, label and term pairs; queue the new ones."""
    a, b = x.stack, y.stack
    if a is not NIL or b is not NIL:
        key = (_STAR_ENV, id(a), id(b))
        if key not in memo:
            todo.append(memo.setdefault(key, (_STAR_ENV, a, b)))
    a, b = x.env, y.env
    if a is not NIL or b is not NIL:
        key = (_STAR_ENV, id(a), id(b))
        if key not in memo:
            todo.append(memo.setdefault(key, (_STAR_ENV, a, b)))
    a, b = x.mu_env, y.mu_env
    if a is not NIL or b is not NIL:
        key = (_STAR_LABELS, id(a), id(b))
        if key not in memo:
            todo.append(memo.setdefault(key, (_STAR_LABELS, a, b)))
    a, b, depth, vec, table = x.term, y.term, x.depth, x.vec, x.table
    key = (_STAR_TERM, id(a), id(b), depth, id(vec), id(table))
    if key in memo:
        return True
    memo[key] = (a, b, vec, table)
    return _star_term(a, b, depth, vec, table)


def _diamond_fields(x, y, todo: list, memo: dict) -> bool:
    """Probe the stack (NIL on two closures: no key), local environment, table and label pairs; queue the new ones."""
    a, b = x.stack, y.stack
    if a is not NIL or b is not NIL:
        key = (_DIAMOND_ENV, id(a), id(b))
        if key not in memo:
            todo.append(memo.setdefault(key, (_DIAMOND_ENV, a, b)))
    depth, env = x.depth, x.env
    a, b = x.vec, y.lenv
    if a is not NIL or b is not NIL:
        cell = _selected_cell(a, depth, env)
        if cell is None:
            return False
        key = (_DIAMOND_LOCAL, id(a), id(b), id(cell))
        if key not in memo:
            todo.append(memo.setdefault(key, (_DIAMOND_LOCAL, a, b, cell)))
    a, b = x.table, y.lenv_mu
    if a is not NIL or b is not NIL:
        key = (_DIAMOND_TABLE, id(a), id(b), depth, id(env))
        if key not in memo:
            todo.append(memo.setdefault(key, (_DIAMOND_TABLE, a, b, depth, env)))
    a, b = x.mu_env, y.mu_env
    if a is not NIL or b is not NIL:
        key = (_DIAMOND_LABELS, id(a), id(b))
        if key not in memo:
            todo.append(memo.setdefault(key, (_DIAMOND_LABELS, a, b)))
    return x.term is y.term or x.term == y.term


def _prove(todo: list, memo: dict) -> bool:
    """Check every work item, each a recorded pair; True iff all of them hold."""
    push = todo.append
    while todo:
        item = todo.pop()
        kind, x, y = item[0], item[1], item[2]
        if kind == _STAR_CLOSURE:
            if type(x) is not StateIT or type(y) is not StateCT or not _star_fields(x, y, todo, memo):
                return False
            continue
        if kind == _DIAMOND_CLOSURE:
            if type(x) is not StateIT or type(y) is not StateGS or not _diamond_fields(x, y, todo, memo):
                return False
            continue
        if type(y) is not PList or x.length != y.length:
            return False
        if kind < _DIAMOND_LOCAL:
            element = _ELEMENT[kind]
            while x is not NIL:
                a, b = x.head, y.head
                if a is not NIL or b is not NIL:
                    key = (element, id(a), id(b))
                    if key not in memo:
                        push(memo.setdefault(key, (element, a, b)))
                x, y = x.tail, y.tail
                if x is NIL:
                    break
                key = (kind, id(x), id(y))
                if key in memo:
                    break
                memo[key] = (x, y)
            continue
        if kind == _DIAMOND_LOCAL:
            # x a vector, y the local environment it selects, cell the
            # global environment from the closure x's head selects on. Each
            # further entry selects from the cell its predecessor selected,
            # at their distance.
            cell = item[3]
            while True:
                a, b = cell.head, y.head
                key = (_DIAMOND_CLOSURE, id(a), id(b))
                if key not in memo:
                    push(memo.setdefault(key, (_DIAMOND_CLOSURE, a, b)))
                entry = x.head
                x, y = x.tail, y.tail
                if x is NIL:
                    break
                cell = _selected_cell(x, entry, cell)
                if cell is None:
                    return False
                key = (kind, id(x), id(y), id(cell))
                if key in memo:
                    break
                memo[key] = (x, y, cell)
            continue
        # _DIAMOND_TABLE: x a table of vectors, y the local environments
        # they select from the global environment env at depth.
        depth, env = item[3], item[4]
        while x is not NIL:
            a, b = x.head, y.head
            if a is not NIL or b is not NIL:
                cell = _selected_cell(a, depth, env)
                if cell is None:
                    return False
                key = (_DIAMOND_LOCAL, id(a), id(b), id(cell))
                if key not in memo:
                    push(memo.setdefault(key, (_DIAMOND_LOCAL, a, b, cell)))
            x, y = x.tail, y.tail
            if x is NIL:
                break
            key = (kind, id(x), id(y), depth, id(env))
            if key in memo:
                break
            memo[key] = (x, y, env)
    return True


def _selected_cell(vec: PList, depth: int, env: PList) -> PList | None:
    """env from the closure the head of vec selects at depth on, that is
    from env[depth - vec.head]; None when vec is empty or selects nothing.

    A vector/local environment pair is keyed by this cell, not by depth and
    env: a binder pushes one closure onto env and raises the depth by one,
    which leaves every selected cell in place, so the pairs below it stay
    proven. The key fixes what the later entries select only if none of
    them exceeds the head, so a vector with an increasing step is not
    related; the it machine's vectors strictly decrease.
    """
    if vec is NIL:
        return None
    selected = depth - vec.head
    if not 0 <= selected < env.length:
        return None
    while selected:
        env = env.tail
        selected -= 1
    return env


def _star_term(x, y, depth: int, vec: PList, table: PList) -> bool:
    """Is the ct term y down of the it term x at depth/vec/table?"""
    todo = [(x, y, depth, vec, table)]
    while todo:
        x, y, depth, vec, table = todo.pop()
        kind = type(x)
        if type(y) is not kind:  # down keeps every node's class
            return False
        if kind is Var:
            local = x.index
            if type(local) is not int or not 0 <= local < vec.length:
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
            if type(label) is not int or not 0 <= label < table.length:
                return False
            if type(y.label) is not int or y.label != label:
                return False
            todo.append((x.body, y.body, depth, table[label], table))
        else:
            return False
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
    cls = type(s)
    if cls is StateCT:
        calculus, shape = "ct", f"env={len(s.env)} labels={len(s.mu_env)} stack={len(s.stack)}"
    elif cls is StateGS:
        calculus, shape = "gs", f"lenv={len(s.lenv)} labels={len(s.lenv_mu)}/{len(s.mu_env)} stack={len(s.stack)}"
    elif cls is StateIT:
        calculus, shape = "gs", (f"depth={s.depth} vec={list(s.vec)} table=[{len(s.table)} vecs] "
                                 f"env={len(s.env)} labels={len(s.mu_env)} stack={len(s.stack)}")
    else:
        raise _not_a_state(s)
    return f"<{print_term(s.term, calculus)} | {shape}>"


_HALTS = (RULE_FINAL, RULE_STUCK)
_ABSENT = (None,)  # the one "rule" of an absent partner


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
    memo: dict = {}
    it = initial_it(t)  # rejects open terms before down sees them
    ct = None if pair == "diamond" else initial_ct(down(t))  # None: not in the pair
    gs = None if pair == "star" else initial_gs(t)
    ct_rule = gs_rule = ct_next = gs_next = None  # an absent partner stays None

    i = 0
    while True:
        if i % _MEMO_GENERATION == 0:
            memo.clear()
        if ct is not None and not R_star(it, ct, memo):
            return _image_differs(pair, i, it, ct, "ct")
        if gs is not None and not R_diamond(it, gs, memo):
            return _image_differs(pair, i, it, gs, "gs")
        ct_rules = _ABSENT if ct is None else applicable_rules(ct)
        gs_rules = _ABSENT if gs is None else applicable_rules(gs)
        it_rules = applicable_rules(it)
        if len(ct_rules) != 1 or len(gs_rules) != 1 or len(it_rules) != 1:
            return _not_one_rule(pair, i, ((ct, ct_rules), (gs, gs_rules), (it, it_rules)))

        it_rule, it_next = step(it)
        if ct is not None:
            ct_rule, ct_next = step(ct)
        if gs is not None:
            gs_rule, gs_next = step(gs)
        # Unless a run ends or a step returned a rule other than the one
        # that applies, every run goes on: nothing more to check.
        if (it_rule in _HALTS or ct_rule in _HALTS or gs_rule in _HALTS
                or ct_rule != ct_rules[0] or gs_rule != gs_rules[0] or it_rule != it_rules[0]):
            report = _step_failure(pair, i, fuel, (
                ("ct", ct, ct_rules, ct_rule, ct_next),
                ("gs", gs, gs_rules, gs_rule, gs_next),
                ("it", it, it_rules, it_rule, it_next),
            ))
            if report is not None:
                return report
        if it_rule == RULE_FINAL:
            return LockstepReport(pair, i, "both_halted")
        if i >= fuel:
            return LockstepReport(pair, i, "fuel_exhausted")
        i += 1
        it, ct, gs = it_next, ct_next, gs_next


def _image_differs(pair: str, i: int, it: StateIT, state: State, name: str) -> LockstepReport:
    detail = f"it-state image differs from {name} state at step {i}"
    return _diverged(pair, i, describe_state(it), describe_state(state), detail)


def _not_one_rule(pair: str, i: int, candidates: tuple) -> LockstepReport:
    """The first (state, its applicable rules) pair without exactly one rule."""
    state, rules = next((state, rules) for state, rules in candidates if len(rules) != 1)
    return _diverged(pair, i, describe_state(state), f"{len(rules)} rules apply", "rule dispatch was not deterministic")


def _step_failure(pair: str, i: int, fuel: int, steps: tuple) -> LockstepReport | None:
    """The first failure among one step's (machine, state, applicable rules,
    rule returned, successor) records, partners first and the it machine
    last; None when the runs go on or all end the same way."""
    _, _, _, it_rule, it_next = steps[-1]
    for name, state, _, rule, successor in steps[:-1]:
        if state is None:
            continue
        if rule != it_rule and (rule in _HALTS or it_rule in _HALTS):
            left = f"it run: {_run_end(it_rule, i, fuel)} after {i} steps"
            right = f"{name} run: {_run_end(rule, i, fuel)} after {i} steps"
            return _diverged(pair, i, left, right, "runs did not end the same way at the same step")
        if rule == RULE_STUCK:
            left, right = f"it run: stuck ({it_next})", f"{name} run: stuck ({successor})"
            return _diverged(pair, i, left, right, "both machines got stuck (input was not well-scoped)")
    for name, state, rules, rule, _ in steps:
        if rule != rules[0]:
            detail = f"{name} step returned rule {rule} where rule {rules[0]} applies at step {i}"
            return _diverged(pair, i, describe_state(state), f"{name} step: {rule}", detail)
    return None


def _run_end(rule: str, i: int, fuel: int) -> str:
    """How a run stands once its state at step i has taken rule."""
    if rule in _HALTS:
        return rule
    return "fuel" if i >= fuel else "running"


def _diverged(pair: str, i: int, left: str, right: str, detail: str) -> LockstepReport:
    return LockstepReport(pair, i, "diverged", diverged_at=i, left=left, right=right, detail=detail)
