"""Three environment machines and a fuel-bounded runner.

All three are Krivine-style: weak head reduction, arguments pushed as
closures, an abstraction meeting an empty stack is the final configuration.
Each machine has one record, its state class. A closure (an environment,
label-stack or stack entry, or the final value) is a state with stack=NIL.

  * ct machine: catch/throw terms with global indices; catch snapshots the
    current stack per label, throw reinstates a snapshot.
  * gs machine: getctx/setctx terms with local indices; a label maps to a
    (local environment, stack) pair, so getctx/setctx capture and restore
    both.
  * it machine: getctx/setctx terms with the global environment of the ct
    machine plus the depth/vector/table indirection that resolves local
    indices at run time.

The calculi share one syntax, so the machine, not the term, says which
indexing a term uses: CALCULUS maps each machine to the calculus it runs and
prints. The CLI takes the calculus from the file extension.

A state is a configuration, the tuple of its fields, as in Krivine's
machine; every machine's last two fields are its label stack and its stack.
Each machine is one entry of MACHINES: its state class, its initial-state
builder and its rule table, a dict from term class to a rule, with every
rule written once. A rule takes a configuration splatted, rule(term,
*fields), and returns (RULE_* tag, next configuration) for a transition,
(RULE_FINAL, None) or (RULE_STUCK, reason); an index or label outside
0 <= i < length gets stuck. trace and step drive the same tables: trace
steps plain tuples, and step takes a record, whose exact class picks the
table, and returns the next record (the state itself for RULE_FINAL). The
exact class of the term, type(term), picks the rule, so a subclass of a state or
term class has no rule and raises TypeError. applicable_rules is written
from the rules' guards and never reads the tables: it is the independent
oracle that the determinism checks hold the tables to.

Rules are pure and never mutate. Environments, stacks, vectors and tables
are persistent lists, so every capture is O(1) and shares structure.

State records are namedtuples that equal only a record of their own class
(see _record), built only where a state is kept: a closure an app rule
pushes, step's result and the end state of a run. A trace event is a record
of what its step adds; its step is its index and its machine is the run's.
trace, the one loop that runs a single machine, hands each event to emit
as its step is taken, so its memory stays flat as the fuel grows; run
collects the events when asked. trace prints each subterm's head once per
call, not once per step: the machines never build terms, so every head is a
subterm of the input.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable

from .errors import OpenTermError, WorkbenchError
from .plist import NIL, PList
from .terms import (
    KEYWORDS,
    App,
    Catch,
    Lam,
    Term,
    TermCT,
    TermGS,
    Throw,
    Var,
    is_closed_ct,
    is_scoped_gs,
    print_term,
)

UNBOUND_VAR = "unbound_var"
UNBOUND_MU = "unbound_mu"

RULE_VAR = "var"
RULE_APP = "app"
RULE_LAM = "lam"
RULE_CAPTURE = "catch_or_get"
RULE_RESTORE = "throw_or_set"
RULE_FINAL = "final"
RULE_STUCK = "stuck"

DEFAULT_MAX_STEPS = 1_000_000
MAX_STEPS_ENV_VAR = "COROUTINE_VM_MAX_STEPS"


def resolve_max_steps(max_steps: int | None) -> int:
    """The fuel for one run: max_steps, else $COROUTINE_VM_MAX_STEPS or the default."""
    if max_steps is None:
        raw = os.environ.get(MAX_STEPS_ENV_VAR)
        try:
            max_steps = int(raw) if raw else DEFAULT_MAX_STEPS
        except ValueError:
            raise WorkbenchError(f"{MAX_STEPS_ENV_VAR} must be an integer, got {raw!r}") from None
    if type(max_steps) is not int:
        raise WorkbenchError(f"max steps must be an integer, got {max_steps!r}")
    if max_steps < 0:
        raise WorkbenchError(f"max steps must not be negative, got {max_steps}")
    return max_steps

# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

_new = tuple.__new__  # builds a record from its configuration, without a __new__ call


def _record_eq(self, other) -> bool:
    """tuple.__eq__'s answer, on a work list: a record equals only a record of
    its own class, field by field, and a PList a PList of its length, head and
    tail; any other pair compares by ==. A pair met twice is compared once, so
    shared structure costs one walk."""
    todo, seen = [(self, other)], set()
    while todo:
        x, y = todo.pop()
        cls = type(x)
        if x is y or (id(x), id(y)) in seen:
            continue
        if cls is type(y) and (cls is PList or cls.__eq__ is _record_eq):
            if cls is PList and x.length != y.length:
                return False
            seen.add((id(x), id(y)))
            todo += ((x.tail, y.tail), (x.head, y.head)) if cls is PList else zip(x, y)
        elif cls.__eq__ is _record_eq or not x == y:
            return False
    return True


def _record(name: str, fields: str) -> type:
    """A namedtuple class whose instances equal only instances of it (see _record_eq).

    __eq__ and __ne__ are set once the class is made, so the tuple hash stays."""
    cls = namedtuple(name, fields, module=__name__)
    cls.__eq__, cls.__ne__ = _record_eq, lambda self, other: not _record_eq(self, other)
    return cls


# Every field but term and StateIT.depth is a PList. env (global) and lenv
# (local) hold closures, states with stack=NIL; mu_env holds stacks; lenv_mu
# (local environments) and table (vectors) hold one entry per label of mu_env;
# vec holds binder depths, strictly decreasing.
StateCT = _record("StateCT", "term env mu_env stack")
StateGS = _record("StateGS", "term lenv lenv_mu mu_env stack")
StateIT = _record("StateIT", "term depth vec table env mu_env stack")

State = StateCT | StateGS | StateIT

Step = tuple[str, tuple | str | None]  # (rule, next configuration, None or reason)
Rule = Callable[..., Step]  # (term, *other fields) -> step

# ---------------------------------------------------------------------------
# Transition rules
# ---------------------------------------------------------------------------


def _ct_var(t: Var, env: PList, mu_env: PList, stack: PList) -> Step:
    if not 0 <= t.index < env.length:
        return RULE_STUCK, UNBOUND_VAR
    entered: StateCT = env[t.index]
    return RULE_VAR, (entered.term, entered.env, entered.mu_env, stack)


def _ct_app(t: App, env: PList, mu_env: PList, stack: PList) -> Step:
    return RULE_APP, (t.fn, env, mu_env, stack.cons(_new(StateCT, (t.arg, env, mu_env, NIL))))


def _ct_lam(t: Lam, env: PList, mu_env: PList, stack: PList) -> Step:
    if stack is NIL:
        return RULE_FINAL, None
    return RULE_LAM, (t.body, env.cons(stack.head), mu_env, stack.tail)


def _ct_catch(t: Catch, env: PList, mu_env: PList, stack: PList) -> Step:
    return RULE_CAPTURE, (t.body, env, mu_env.cons(stack), stack)


def _ct_throw(t: Throw, env: PList, mu_env: PList, stack: PList) -> Step:
    if not 0 <= t.label < mu_env.length:
        return RULE_STUCK, UNBOUND_MU
    return RULE_RESTORE, (t.body, env, mu_env, mu_env[t.label])


def _gs_var(t: Var, lenv: PList, lenv_mu: PList, mu_env: PList, stack: PList) -> Step:
    if not 0 <= t.index < lenv.length:
        return RULE_STUCK, UNBOUND_VAR
    entered: StateGS = lenv[t.index]
    return RULE_VAR, (entered.term, entered.lenv, entered.lenv_mu, entered.mu_env, stack)


def _gs_app(t: App, lenv: PList, lenv_mu: PList, mu_env: PList, stack: PList) -> Step:
    return RULE_APP, (t.fn, lenv, lenv_mu, mu_env, stack.cons(_new(StateGS, (t.arg, lenv, lenv_mu, mu_env, NIL))))


def _gs_lam(t: Lam, lenv: PList, lenv_mu: PList, mu_env: PList, stack: PList) -> Step:
    if stack is NIL:
        return RULE_FINAL, None
    return RULE_LAM, (t.body, lenv.cons(stack.head), lenv_mu, mu_env, stack.tail)


def _gs_get(t: Catch, lenv: PList, lenv_mu: PList, mu_env: PList, stack: PList) -> Step:
    return RULE_CAPTURE, (t.body, lenv, lenv_mu.cons(lenv), mu_env.cons(stack), stack)


def _gs_set(t: Throw, lenv: PList, lenv_mu: PList, mu_env: PList, stack: PList) -> Step:
    if lenv_mu.length != mu_env.length or not 0 <= t.label < lenv_mu.length:
        return RULE_STUCK, UNBOUND_MU
    return RULE_RESTORE, (t.body, lenv_mu[t.label], lenv_mu, mu_env, mu_env[t.label])


def _it_var(t: Var, depth: int, vec: PList, table: PList, env: PList, mu_env: PList, stack: PList) -> Step:
    if not 0 <= t.index < vec.length:
        return RULE_STUCK, UNBOUND_VAR
    resolved = depth - vec[t.index]
    if not 0 <= resolved < env.length:
        return RULE_STUCK, UNBOUND_VAR
    entered: StateIT = env[resolved]
    return RULE_VAR, (entered.term, entered.depth, entered.vec, entered.table, entered.env, entered.mu_env, stack)


def _it_app(t: App, depth: int, vec: PList, table: PList, env: PList, mu_env: PList, stack: PList) -> Step:
    pushed = _new(StateIT, (t.arg, depth, vec, table, env, mu_env, NIL))
    return RULE_APP, (t.fn, depth, vec, table, env, mu_env, stack.cons(pushed))


def _it_lam(t: Lam, depth: int, vec: PList, table: PList, env: PList, mu_env: PList, stack: PList) -> Step:
    if stack is NIL:
        return RULE_FINAL, None
    deeper = depth + 1
    return RULE_LAM, (t.body, deeper, vec.cons(deeper), table, env.cons(stack.head), mu_env, stack.tail)


def _it_get(t: Catch, depth: int, vec: PList, table: PList, env: PList, mu_env: PList, stack: PList) -> Step:
    return RULE_CAPTURE, (t.body, depth, vec, table.cons(vec), env, mu_env.cons(stack), stack)


def _it_set(t: Throw, depth: int, vec: PList, table: PList, env: PList, mu_env: PList, stack: PList) -> Step:
    if table.length != mu_env.length or not 0 <= t.label < table.length:
        return RULE_STUCK, UNBOUND_MU
    return RULE_RESTORE, (t.body, depth, table[t.label], table, env, mu_env, mu_env[t.label])

# ---------------------------------------------------------------------------
# Initial states
# ---------------------------------------------------------------------------


def initial_ct(t: TermCT) -> StateCT:
    if not is_closed_ct(t):
        raise OpenTermError("ct machine needs a closed term (variable and label indices in range)")
    return StateCT(t, NIL, NIL, NIL)


def initial_gs(t: TermGS) -> StateGS:
    if not is_scoped_gs(t):
        raise OpenTermError("gs machine needs a closed, well-scoped term")
    return StateGS(t, NIL, NIL, NIL, NIL)


def initial_it(t: TermGS) -> StateIT:
    if not is_scoped_gs(t):
        raise OpenTermError("it machine needs a closed, well-scoped term")
    return StateIT(t, 0, NIL, NIL, NIL, NIL, NIL)

# ---------------------------------------------------------------------------
# The machines: one table, one step function
# ---------------------------------------------------------------------------

# Each machine by name: its state class, initial-state builder and rule table.
MACHINES: dict[str, tuple[type, Callable[[Term], State], dict[type, Rule]]] = {
    "ct": (StateCT, initial_ct, {Var: _ct_var, App: _ct_app, Lam: _ct_lam, Catch: _ct_catch, Throw: _ct_throw}),
    "gs": (StateGS, initial_gs, {Var: _gs_var, App: _gs_app, Lam: _gs_lam, Catch: _gs_get, Throw: _gs_set}),
    "it": (StateIT, initial_it, {Var: _it_var, App: _it_app, Lam: _it_lam, Catch: _it_get, Throw: _it_set}),
}
# What step reads: each state class's machine and rule table.
BY_STATE: dict[type, tuple[str, dict[type, Rule]]] = {cls: (name, rules) for name, (cls, _, rules) in MACHINES.items()}
# The calculus each machine runs: the one that prints its terms.
CALCULUS = {"ct": "ct", "gs": "gs", "it": "gs"}


def _not_a_term(machine: str, term: object) -> TypeError:
    capture, restore, _, _ = KEYWORDS[CALCULUS[machine]]
    return TypeError(f"not a {capture}/{restore} term: {term!r}")


def _not_a_state(s: object) -> TypeError:
    return TypeError(f"not a machine state: {s!r}")


def step(s: State) -> Step:
    """One transition of whichever machine s is a state of."""
    try:
        machine, rules = BY_STATE[type(s)]
    except KeyError:
        raise _not_a_state(s) from None
    t = s.term
    try:
        rule = rules[type(t)]
    except KeyError:
        raise _not_a_term(machine, t) from None
    name, successor = rule(*s)
    if name == RULE_STUCK:
        return name, successor
    return name, s if name == RULE_FINAL else _new(type(s), successor)

# ---------------------------------------------------------------------------
# Guard-based rule oracle (for the determinism checks)
# ---------------------------------------------------------------------------


def _var_guard(s: State) -> bool:
    index = s.term.index
    if type(index) is not int or index < 0:
        return False
    if type(s) is StateCT:
        return index < s.env.length
    if type(s) is StateGS:
        return index < s.lenv.length
    return index < s.vec.length and 0 <= s.depth - s.vec[index] < s.env.length


def _restore_guard(s: State) -> bool:
    label = s.term.label
    if type(label) is not int or label < 0:
        return False
    if type(s) is StateCT:
        return label < s.mu_env.length
    labels = s.lenv_mu if type(s) is StateGS else s.table
    return labels.length == s.mu_env.length and label < labels.length


def applicable_rules(s: State) -> list[str]:
    """Names of every rule whose guard holds in s.

    Written as independent guard checks (not a table lookup) so the
    determinism property "exactly one rule applies in every reachable state"
    is tested against something other than the rule tables' own dispatch.
    Classes are tested exactly, as in step: a value of no state class raises
    step's TypeError, a term of no term class has no rule, and both guards
    of an abstraction are evaluated. An index or label guard holds only for
    an int >= 0, the only kind step can use.
    """
    state = type(s)
    if state is not StateCT and state is not StateGS and state is not StateIT:
        raise _not_a_state(s)
    cls = type(s.term)
    if cls is Var:
        return [RULE_VAR] if _var_guard(s) else []
    if cls is App:
        return [RULE_APP]
    if cls is Lam:
        rules = []
        if s.stack is not NIL:
            rules.append(RULE_LAM)
        if s.stack is NIL:
            rules.append(RULE_FINAL)
        return rules
    if cls is Catch:
        return [RULE_CAPTURE]
    if cls is Throw and _restore_guard(s):
        return [RULE_RESTORE]
    return []

# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


# One machine transition (or the terminal configuration); event i of a run's trace is step i.
TraceEvent = _record("TraceEvent", "rule head stack_depth mu_count")


def _event_json(self, step: int, machine: str) -> str:
    """The golden-trace line of this event as step `step` of `machine`: compact JSON, sorted keys.

    The rule is a RULE_* name, which needs no escape."""
    return '{"head":%s,"machine":%s,"mu_count":%d,"rule":"%s","stack_depth":%d,"step":%d}' % (
        json.dumps(self.head), json.dumps(machine), self.mu_count, self.rule, self.stack_depth, step)


TraceEvent.to_json = _event_json


@dataclass(frozen=True)
class RunResult:
    kind: str  # "final", "stuck", "fuel_exhausted"
    steps: int
    closure: State | None = None  # the final state; its stack is NIL
    reason: str | None = None
    last_state: State | None = None
    events: tuple[TraceEvent, ...] | None = None


def trace(term: Term, machine: str, emit: Callable[[TraceEvent], object] | None, max_steps: int | None = None) -> RunResult:
    """Iterate a machine from its initial state until final, stuck, or out of fuel.

    steps counts applied transitions; a term that is already a value finishes
    in 0 steps. Unless emit is None, each event is passed to emit as its step
    is taken: one per transition plus a terminal final/stuck event (fuel
    exhaustion ends the trace without one). The result's events are None.
    Each step looks its rule up in the machine's table, as step does, but
    without calling step: it steps plain configurations and builds a record
    only for the state it returns.
    """
    if machine not in MACHINES:
        raise ValueError(f"unknown machine {machine!r} (expected 'ct', 'gs' or 'it')")
    cls, initial, rules = MACHINES[machine]
    config = initial(term)
    calculus = CALCULUS[machine]
    fuel = resolve_max_steps(max_steps)
    # Printed heads by id(subterm). The machines never build terms, so every
    # state's term is a subterm of `term`, which pins them all for this call.
    heads: dict[int, str] = {}
    steps = 0
    while True:
        t = config[0]
        try:
            apply = rules[type(t)]
        except KeyError:
            raise _not_a_term(machine, t) from None
        rule, successor = apply(*config)
        halted = rule == RULE_FINAL or rule == RULE_STUCK
        if emit is not None and (halted or steps < fuel):
            head = heads.get(id(t))
            if head is None:
                head = heads[id(t)] = print_term(t, calculus)
            # the last two fields of every machine: its label stack and its stack
            emit(_new(TraceEvent, (rule, head, config[-1].length, config[-2].length)))
        if halted or steps >= fuel:
            break
        config = successor
        steps += 1
    state = _new(cls, config)
    if rule == RULE_FINAL:
        return RunResult("final", steps, closure=state)
    if rule == RULE_STUCK:
        return RunResult("stuck", steps, reason=successor, last_state=state)
    return RunResult("fuel_exhausted", steps, last_state=state)


def run(term: Term, machine: str, max_steps: int | None = None, collect_trace: bool = False) -> RunResult:
    """trace's run, with its events collected into the result's events when collect_trace is set."""
    events: list[TraceEvent] = []
    result = trace(term, machine, events.append if collect_trace else None, max_steps)
    return replace(result, events=tuple(events)) if collect_trace else result
