import copy
import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from coroutine_vm import machines, terms
from coroutine_vm.bisim import describe_state, lockstep
from coroutine_vm.debruijn import to_debruijn_ct, to_debruijn_gs
from coroutine_vm.errors import OpenTermError, WorkbenchError
from coroutine_vm.gen import gen_gs_db
from coroutine_vm.machines import (
    CALCULUS,
    MACHINES,
    RULE_APP,
    RULE_CAPTURE,
    RULE_FINAL,
    RULE_LAM,
    RULE_RESTORE,
    RULE_STUCK,
    RULE_VAR,
    UNBOUND_MU,
    UNBOUND_VAR,
    StateCT,
    StateGS,
    StateIT,
    TraceEvent,
    applicable_rules,
    initial_ct,
    initial_gs,
    initial_it,
    resolve_max_steps,
    run,
    step,
    trace,
)
from coroutine_vm.parser import parse, parse_ct, parse_gs
from coroutine_vm.plist import NIL, plist
from coroutine_vm.terms import App, Catch, Lam, NApp, NCatch, NLam, NThrow, NVar, Throw, Var, print_term
from coroutine_vm.translate import down

CT_DEMO = Catch(Throw(0, Lam(Var(0))))
GS_DEMO = Catch(Throw(0, Lam(Var(0))))


def test_ct_demo_hand_trace():
    s0 = initial_ct(CT_DEMO)
    rule, s1 = step(s0)
    assert rule == RULE_CAPTURE
    assert s1 == StateCT(Throw(0, Lam(Var(0))), NIL, plist([NIL]), NIL)
    rule, s2 = step(s1)
    assert rule == RULE_RESTORE
    assert s2 == StateCT(Lam(Var(0)), NIL, plist([NIL]), NIL)
    end = step(s2)
    assert end == (RULE_FINAL, StateCT(Lam(Var(0)), NIL, plist([NIL]), NIL))


def test_gs_demo_hand_trace():
    s0 = initial_gs(GS_DEMO)
    rule, s1 = step(s0)
    assert rule == RULE_CAPTURE
    assert s1 == StateGS(Throw(0, Lam(Var(0))), NIL, plist([NIL]), plist([NIL]), NIL)
    rule, s2 = step(s1)
    assert rule == RULE_RESTORE
    assert s2 == StateGS(Lam(Var(0)), NIL, plist([NIL]), plist([NIL]), NIL)
    assert step(s2)[0] == RULE_FINAL


def test_it_application_hand_trace():
    ident = Lam(Var(0))
    s0 = initial_it(App(ident, ident))
    arg_closure = StateIT(ident, 0, NIL, NIL, NIL, NIL, NIL)
    rule, s1 = step(s0)
    assert rule == RULE_APP
    assert s1 == StateIT(ident, 0, NIL, NIL, NIL, NIL, plist([arg_closure]))
    rule, s2 = step(s1)
    assert rule == RULE_LAM
    assert s2 == StateIT(Var(0), 1, plist([1]), NIL, plist([arg_closure]), NIL, NIL)
    rule, s3 = step(s2)
    assert rule == RULE_VAR
    assert s3 == StateIT(ident, 0, NIL, NIL, NIL, NIL, NIL)
    assert step(s3)[0] == RULE_FINAL


def test_ct_application_rule_shape():
    env = plist([StateCT(Lam(Var(0)), NIL, NIL, NIL)])
    state = StateCT(App(Var(0), Var(0)), env, NIL, NIL)
    rule, out = step(state)
    assert rule == RULE_APP
    assert out.term == Var(0)
    assert out.stack.head == StateCT(Var(0), env, NIL, NIL)
    assert out.stack.head.env is env  # captured by reference, not copied


def test_gs_capture_rule_pushes_both_maps():
    stack = plist([StateGS(Lam(Var(0)), NIL, NIL, NIL, NIL)])
    state = StateGS(Catch(Var(0)), NIL, NIL, NIL, stack)
    _, out = step(state)
    assert out.lenv_mu.head is state.lenv
    assert out.mu_env.head is stack
    assert out.stack is stack


def test_it_lam_rule_threads_depth():
    c = StateIT(Lam(Var(0)), 0, NIL, NIL, NIL, NIL, NIL)
    state = StateIT(Lam(Var(0)), 3, plist([3, 1]), NIL, plist([c]), NIL, plist([c]))
    _, out = step(state)
    assert out.depth == 4
    assert list(out.vec) == [4, 3, 1]
    assert out.env.head is c
    assert not out.stack


def test_final_only_on_lam_with_empty_stack():
    assert step(StateCT(Lam(Var(0)), NIL, NIL, NIL))[0] == RULE_FINAL
    pushed = plist([StateCT(Lam(Var(0)), NIL, NIL, NIL)])
    assert step(StateCT(Lam(Var(0)), NIL, NIL, pushed))[0] == RULE_LAM


def test_stuck_reasons():
    assert step(StateCT(Var(3), NIL, NIL, NIL)) == (RULE_STUCK, "unbound_var")
    assert step(StateCT(Throw(0, Lam(Var(0))), NIL, NIL, NIL)) == (RULE_STUCK, "unbound_mu")
    assert step(StateGS(Var(0), NIL, NIL, NIL, NIL)) == (RULE_STUCK, "unbound_var")
    assert step(StateGS(Throw(0, Var(0)), NIL, NIL, NIL, NIL)) == (RULE_STUCK, "unbound_mu")
    assert step(StateIT(Var(0), 0, NIL, NIL, NIL, NIL, NIL)) == (RULE_STUCK, "unbound_var")
    # vector entry resolving outside the environment is also an unbound variable
    assert step(StateIT(Var(0), 2, plist([1]), NIL, NIL, NIL, NIL)) == (RULE_STUCK, "unbound_var")


def test_initial_rejects_open_terms():
    with pytest.raises(OpenTermError):
        initial_ct(Var(0))
    with pytest.raises(OpenTermError):
        initial_ct(Throw(0, Lam(Var(0))))
    with pytest.raises(OpenTermError):
        initial_gs(Throw(0, Lam(Var(0))))
    with pytest.raises(OpenTermError):
        initial_it(Lam(Var(1)))


def test_initial_ct_rejects_a_variable_out_of_range_under_a_binder():
    # under one binder only variable 0 is in range, and under one catch only label 0
    initial_ct(Lam(Var(0)))
    with pytest.raises(OpenTermError):
        initial_ct(Lam(Var(1)))
    with pytest.raises(OpenTermError):
        initial_ct(Lam(Catch(Throw(1, Var(0)))))


NEGATIVE_VAR = App(Lam(Var(-1)), Lam(Var(0)))
NEGATIVE_LABEL = Catch(Throw(-1, Lam(Var(0))))


@pytest.mark.parametrize("machine", ["ct", "gs", "it"])
@pytest.mark.parametrize("term", [NEGATIVE_VAR, NEGATIVE_LABEL], ids=["variable", "label"])
def test_negative_index_or_label_is_an_open_term(machine, term):
    # out of range like one past the end: the scope check refuses the term before a rule indexes with it
    with pytest.raises(OpenTermError):
        run(term, machine, max_steps=10)


# In range by value, since 0 <= True < 2 and 0 <= 0.0 < 1, but not an int.
NON_INT = [
    App(App(Lam(Lam(Var(True))), Lam(Var(0))), Lam(Var(0))),
    App(Lam(Var(0.0)), Lam(Var(0))),
    Catch(Catch(Throw(True, Lam(Var(0))))),
    Catch(Throw(0.0, Lam(Var(0)))),
]


@pytest.mark.parametrize("machine", ["ct", "gs", "it", "lockstep"])
@pytest.mark.parametrize("term", NON_INT, ids=["bool-variable", "float-variable", "bool-label", "float-label"])
def test_a_non_int_index_or_label_is_an_open_term(machine, term):
    # the scope check refuses the term before a rule indexes a list with it
    with pytest.raises(OpenTermError):
        if machine == "lockstep":
            lockstep(term, "composed", 10)
        else:
            run(term, machine, max_steps=10)


def test_run_counts_transitions():
    assert run(CT_DEMO, "ct", max_steps=100).steps == 2
    assert run(GS_DEMO, "gs", max_steps=100).steps == 2
    assert run(GS_DEMO, "it", max_steps=100).steps == 2
    ident = Lam(Var(0))
    assert run(ident, "gs", max_steps=100).kind == "final"
    assert run(ident, "gs", max_steps=100).steps == 0


def test_run_fuel():
    omega = to_debruijn_ct(parse_ct(r"(\x. x x) (\x. x x)"))
    result = run(omega, "ct", max_steps=50)
    assert result.kind == "fuel_exhausted"
    assert result.steps == 50
    assert run(omega, "ct", max_steps=0).steps == 0
    # a value needs no fuel at all
    assert run(Lam(Var(0)), "ct", max_steps=0).kind == "final"


def test_trace_shape():
    result = run(GS_DEMO, "it", max_steps=100, collect_trace=True)
    assert [e.rule for e in result.events] == ["catch_or_get", "throw_or_set", "final"]
    lines = [json.loads(e.to_json(i, "it")) for i, e in enumerate(result.events)]
    assert [line["step"] for line in lines] == [0, 1, 2]
    assert all(line["machine"] == "it" for line in lines)


def test_trace_lines_are_sorted_compact_json():
    # names the parser takes as \w+ but not ASCII; the heads print as index
    # terms, with backslashes to escape
    term = to_debruijn_gs(parse_gs(r"(\é. é é) (\ñ. getctx κ. setctx κ (ñ ñ))"))
    events = [(i, e, machine) for machine in ("gs", "it") for i, e in enumerate(run(term, machine, 50, True).events)]
    for head in ('λ "x"\t', "\u2028\x00"):
        events += [(7, TraceEvent("final", head, 3, 12), machine) for machine in ("ct", "ït")]
    for i, event, machine in events:
        fields = {"head": event.head, "machine": machine, "mu_count": event.mu_count,
                  "rule": event.rule, "stack_depth": event.stack_depth, "step": i}
        assert event.to_json(i, machine) == json.dumps(fields, sort_keys=True, separators=(",", ":"))


def test_trace_memory_per_event():
    # An event keeps only what its step adds: a four-field tuple record of
    # 80 B plus its slot in the trace, about 90 B on Python 3.11. Keeping its
    # step too (an int of 32 B past 256) takes about 122 B.
    omega = to_debruijn_gs(parse_gs(r"(\x. x x) (\x. x x)"))
    tracemalloc.start()
    try:
        result = run(omega, "it", max_steps=20_000, collect_trace=True)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result.events) == 20_000
    assert kept / len(result.events) <= 100


def test_run_is_deterministic():
    rng = random.Random(3)
    for _ in range(50):
        term = gen_gs_db(rng, rng.randint(1, 30))
        first = run(term, "gs", max_steps=200, collect_trace=True)
        second = run(term, "gs", max_steps=200, collect_trace=True)
        assert first.events == second.events
        assert first.kind == second.kind


def test_exactly_one_rule_applies_in_reachable_states():
    # the guard-based oracle and step's own dispatch agree
    rng = random.Random(4)
    initials = (initial_gs, initial_it, lambda t: initial_ct(down(t)))
    for _ in range(50):
        term = gen_gs_db(rng, rng.randint(1, 30))
        for make_initial in initials:
            state = make_initial(term)
            for _ in range(100):
                assert len(applicable_rules(state)) == 1
                rule, successor = step(state)
                assert applicable_rules(state) == [rule]
                if rule == RULE_FINAL:
                    break
                state = successor


def test_rerun_from_saved_state_reproduces_suffix():
    # pushing onto environments never mutates captured closures: restarting
    # from a saved intermediate state replays the identical suffix
    term = to_debruijn_gs(parse_gs(r"(\f. getctx a. f (setctx a \y. y)) (\z. z z)"))
    state = initial_gs(term)
    states = [state]
    while True:
        rule, successor = step(state)
        if rule in (RULE_FINAL, RULE_STUCK):
            break
        state = successor
        states.append(state)
    assert len(states) > 4
    saved = states[3]
    replay = [saved]
    state = saved
    while True:
        rule, successor = step(state)
        if rule in (RULE_FINAL, RULE_STUCK):
            break
        state = successor
        replay.append(state)
    assert len(replay) == len(states) - 3
    for original, again in zip(states[3:], replay):
        assert original == again


def test_max_steps_env_override(monkeypatch):
    monkeypatch.setenv("COROUTINE_VM_MAX_STEPS", "7")
    assert resolve_max_steps(None) == 7
    omega = to_debruijn_ct(parse_ct(r"(\x. x x) (\x. x x)"))
    result = run(omega, "ct")
    assert result.kind == "fuel_exhausted"
    assert result.steps == 7
    monkeypatch.delenv("COROUTINE_VM_MAX_STEPS")
    assert resolve_max_steps(None) == 1_000_000


def test_negative_fuel_rejected(monkeypatch):
    omega = to_debruijn_ct(parse_ct(r"(\x. x x) (\x. x x)"))
    with pytest.raises(WorkbenchError):
        run(omega, "ct", max_steps=-1)
    monkeypatch.setenv("COROUTINE_VM_MAX_STEPS", "-5")
    with pytest.raises(WorkbenchError):
        run(omega, "ct")
    assert run(omega, "ct", max_steps=3).steps == 3  # an explicit fuel ignores the variable


@pytest.mark.parametrize("fuel", [2.5, True, "4"], ids=repr)
@pytest.mark.parametrize("runner", ["run", "lockstep"])
def test_fuel_must_be_an_int(runner, fuel):
    # a float or a bool compares with 0 but counts no steps (2.5 would run 3
    # and True 1), and a str would fail in the comparison with a bare TypeError
    omega = to_debruijn_gs(parse_gs(r"(\x. x x) (\x. x x)"))
    with pytest.raises(WorkbenchError, match="max steps must be an integer"):
        if runner == "run":
            run(omega, "it", fuel)
        else:
            lockstep(omega, "composed", fuel)


def test_unknown_machine_rejected():
    with pytest.raises(ValueError):
        run(Lam(Var(0)), "cek")


# The ids are those the rows had when the table also held each calculus's capture/restore
# nodes on the other machines; both calculi now share those nodes, so only the NVar rows remain.
WRONG_CALCULUS = [
    pytest.param("ct", NVar("x"), "not a catch/throw term: NVar(name='x')",
                 id="ct-term2-not a catch/throw term: NVar(name='x')"),
    pytest.param("gs", NVar("x"), "not a getctx/setctx term: NVar(name='x')",
                 id="gs-term5-not a getctx/setctx term: NVar(name='x')"),
    pytest.param("it", NVar("x"), "not a getctx/setctx term: NVar(name='x')",
                 id="it-term8-not a getctx/setctx term: NVar(name='x')"),
]


@pytest.mark.parametrize("machine, term, message", WRONG_CALCULUS)
def test_step_functions_reject_terms_of_the_other_calculus(machine, term, message):
    state = {
        "ct": StateCT(term, NIL, NIL, NIL),
        "gs": StateGS(term, NIL, NIL, NIL, NIL),
        "it": StateIT(term, 0, NIL, NIL, NIL, NIL, NIL),
    }[machine]
    with pytest.raises(TypeError) as raised:
        step(state)
    assert str(raised.value) == message


def test_rules_dispatch_on_the_exact_term_class():
    class MyVar(Var):
        __slots__ = ()

    with pytest.raises(TypeError, match=r"^not a catch/throw term: .*MyVar\(index=0\)$"):
        step(StateCT(MyVar(0), plist([StateCT(Lam(Var(0)), NIL, NIL, NIL)]), NIL, NIL))
    with pytest.raises(TypeError, match=r"^not a getctx/setctx term: .*MyVar\(index=0\)$"):
        run(App(Lam(MyVar(0)), Lam(Var(0))), "it", max_steps=10)  # is_scoped_gs rejects the subclass


def test_step_rejects_a_state_of_no_machine():
    class MyStateCT(StateCT):
        __slots__ = ()

    for state in (object(), MyStateCT(Lam(Var(0)), NIL, NIL, NIL)):
        with pytest.raises(TypeError, match=r"^not a machine state: "):
            step(state)


# A state of each machine whose variable #0 is bound, by its term.
BOUND_VAR = {
    "ct": lambda t: StateCT(t, plist([StateCT(Lam(Var(0)), NIL, NIL, NIL)]), NIL, NIL),
    "gs": lambda t: StateGS(t, plist([StateGS(Lam(Var(0)), NIL, NIL, NIL, NIL)]), NIL, NIL, NIL),
    "it": lambda t: StateIT(t, 1, plist([1]), NIL, plist([StateIT(Lam(Var(0)), 0, NIL, NIL, NIL, NIL, NIL)]), NIL, NIL),
}


@pytest.mark.parametrize("machine", sorted(BOUND_VAR))
def test_the_rule_oracle_takes_the_classes_step_takes(machine):
    class MyVar(Var):
        __slots__ = ()

    state = BOUND_VAR[machine](Var(0))
    assert applicable_rules(state) == [RULE_VAR] == [step(state)[0]]
    odd_term = BOUND_VAR[machine](MyVar(0))
    assert applicable_rules(odd_term) == []  # no rule: step raises
    with pytest.raises(TypeError, match=r"^not a \w+/\w+ term: "):
        step(odd_term)
    subclass = type(f"My{type(state).__name__}", (type(state),), {"__slots__": ()})
    odd_state = subclass(*(getattr(state, name) for name in state._fields))
    for value in (odd_state, 42):
        for function in (step, applicable_rules, describe_state):
            with pytest.raises(TypeError, match=r"^not a machine state: "):
                function(value)


# A state of each machine with label #0 in scope, by its term.
ONE_LABEL = {
    "ct": lambda t: StateCT(t, NIL, plist([NIL]), NIL),
    "gs": lambda t: StateGS(t, NIL, plist([NIL]), plist([NIL]), NIL),
    "it": lambda t: StateIT(t, 0, NIL, plist([NIL]), NIL, plist([NIL]), NIL),
}


@pytest.mark.parametrize("machine", sorted(BOUND_VAR))
def test_the_rule_guards_take_only_indices_step_can_use(machine):
    ident = Lam(Var(0))
    for state, rule in ((BOUND_VAR[machine](Var(0)), RULE_VAR), (ONE_LABEL[machine](Throw(0, ident)), RULE_RESTORE)):
        assert applicable_rules(state) == [rule] == [step(state)[0]]
    for bad in (True, -1):  # step cannot index a list with either
        assert applicable_rules(BOUND_VAR[machine](Var(bad))) == []
        assert applicable_rules(ONE_LABEL[machine](Throw(bad, ident))) == []


@pytest.mark.parametrize("machine", sorted(BOUND_VAR))
def test_an_index_or_label_out_of_range_gets_stuck(machine):
    # below the range as above it: the rule gets stuck before it indexes a list
    ident = Lam(Var(0))
    for bad in (-1, 5):
        assert step(BOUND_VAR[machine](Var(bad))) == (RULE_STUCK, UNBOUND_VAR)
        assert step(ONE_LABEL[machine](Throw(bad, ident))) == (RULE_STUCK, UNBOUND_MU)


def _runs_to_compare(corpus_dir):
    """(name, machine, index term): every corpus term on each machine that runs its calculus, then
    seeded random terms on all three (ct on their translation)."""
    files = sorted(corpus_dir.glob("*.ct")) + sorted(corpus_dir.glob("*.gs")) + sorted(corpus_dir.glob("gen/*.gs"))
    out = []
    for path in files:
        calculus = path.suffix[1:]
        try:
            named = parse(path.read_text(encoding="utf-8"), calculus)
            term = to_debruijn_ct(named) if calculus == "ct" else to_debruijn_gs(named)
        except WorkbenchError:
            continue  # e.g. bad.gs, which no machine accepts
        out.extend((path.name, machine, term) for machine in (("ct",) if calculus == "ct" else ("gs", "it")))
    rng = random.Random(7)
    for k in range(100):
        term = gen_gs_db(rng, rng.randint(1, 40))
        out += [(f"random {k}", "ct", down(term)), (f"random {k}", "gs", term), (f"random {k}", "it", term)]
    return out


def test_run_agrees_with_its_step_function(corpus_dir, monkeypatch):
    # run drives the rule tables itself; replay each run with step by hand
    fuel = 300
    runs = _runs_to_compare(corpus_dir)
    assert len(runs) >= 340
    for name, machine, term in runs:
        cls, initial, _ = MACHINES[machine]
        states, rules = [initial(term)], []
        while True:
            rule, successor = step(states[-1])
            rules.append(rule)
            if rule in (RULE_FINAL, RULE_STUCK) or len(states) > fuel:
                break
            states.append(successor)
        result = run(term, machine, max_steps=fuel, collect_trace=True)
        halted = rule in (RULE_FINAL, RULE_STUCK)
        traced = states if halted else states[:-1]  # fuel exhaustion ends the trace without an event
        assert [e.rule for e in result.events] == rules[: len(traced)], (name, machine)
        assert [(e.head, e.stack_depth, e.mu_count) for e in result.events] == [
            (print_term(s.term, CALCULUS[machine]), s.stack.length, s.mu_env.length) for s in traced
        ], (name, machine)
        assert result.steps == len(states) - 1, (name, machine)
        # run keeps records, of the machine's exact class, never a bare configuration
        if rule == RULE_FINAL:
            assert (result.kind, result.closure) == ("final", successor), (name, machine)
            assert type(result.closure) is cls, (name, machine)
        else:
            assert (result.kind, result.last_state) == ("fuel_exhausted", states[-1]), (name, machine)
            assert type(result.last_state) is cls, (name, machine)
        # every state on the way: a run with fuel n stops in state n
        for n, state in enumerate(states[:-1]):
            last = run(term, machine, max_steps=n).last_state
            assert last == state and type(last) is cls, (name, machine, n)
    # no closed term gets stuck, so a restore rule that always sticks stands in for one
    for machine, (cls, initial, table) in MACHINES.items():
        monkeypatch.setitem(table, Throw, lambda *config: (RULE_STUCK, UNBOUND_MU))
        result = run(GS_DEMO, machine, max_steps=fuel)
        _, stuck_at = step(initial(GS_DEMO))
        assert (result.kind, result.reason, result.steps, result.last_state) == ("stuck", UNBOUND_MU, 1, stuck_at)
        assert type(result.last_state) is cls, machine


def test_trace_streams_the_run_that_run_collects(corpus_dir):
    # run is trace with list.append for emit: the same events in order, and
    # the same result but for events, which trace leaves None
    for name, machine, term in _runs_to_compare(corpus_dir):
        for fuel in (0, 1, 7, 2000):
            collected = run(term, machine, max_steps=fuel, collect_trace=True)
            emitted = []
            streamed = trace(term, machine, emitted.append, fuel)
            assert tuple(emitted) == collected.events and streamed.events is None, (name, machine, fuel)
            assert streamed == dataclasses.replace(collected, events=None), (name, machine, fuel)


def test_a_failing_emit_stops_the_run_at_its_first_event(monkeypatch):
    # each event is emitted before the next step's rule is applied, so a
    # closed pipe stops a run at once, not after its last step
    omega = to_debruijn_gs(parse_gs(r"(\x. x x) (\x. x x)"))
    for machine, (_, _, table) in MACHINES.items():
        applied = []
        for cls, rule in list(table.items()):
            monkeypatch.setitem(table, cls, lambda *config, rule=rule: applied.append(rule) or rule(*config))
        emitted = []

        def emit(event):
            emitted.append(event)
            raise BrokenPipeError

        term = down(omega) if machine == "ct" else omega
        with pytest.raises(BrokenPipeError):
            trace(term, machine, emit, 10**7)
        assert (len(applied), len(emitted)) == (1, 1), machine
        assert emitted[0].rule == RULE_APP, machine


RECORD_FIELDS = [
    (StateCT, ("term", "env", "mu_env", "stack")),
    (StateGS, ("term", "lenv", "lenv_mu", "mu_env", "stack")),
    (StateIT, ("term", "depth", "vec", "table", "env", "mu_env", "stack")),
    (TraceEvent, ("rule", "head", "stack_depth", "mu_count")),
    (NVar, ("name",)),
    (NApp, ("fn", "arg")),
    (NLam, ("param", "body")),
    (NCatch, ("label", "body")),
    (NThrow, ("label", "body")),
    (Var, ("index",)),
    (App, ("fn", "arg")),
    (Lam, ("body",)),
    (Catch, ("body",)),
    (Throw, ("label", "body")),
]


@pytest.mark.parametrize("cls, fields", RECORD_FIELDS, ids=[cls.__name__ for cls, _ in RECORD_FIELDS])
def test_machine_records_stay_immutable(cls, fields):
    assert cls.__match_args__ == fields
    values = {name: i for i, name in enumerate(fields)}
    record = cls(**values)
    assert record == cls(*values.values())
    assert not record != cls(*values.values())
    assert hash(record) == hash(cls(*values.values()))
    # equal only to a record of its own class, not to its tuple or a subclass's record
    twin = type(f"My{cls.__name__}", (cls,), {"__slots__": ()})(*values.values())
    for other in (tuple(values.values()), twin):
        assert record != other and not record == other and other != record
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={v}' for n, v in values.items())})"
    if issubclass(cls, tuple):  # a state record or trace event: a namedtuple class
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, -1)
        changed = record._replace(**{fields[-1]: -1})
    else:  # a term: a frozen slots dataclass
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, -1)
        # a name that is no field: FrozenInstanceError, or TypeError from the
        # frozen __setattr__ of a slots dataclass on Python 3.11
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            record.extra = -1
        changed = dataclasses.replace(record, **{fields[-1]: -1})
    assert getattr(changed, fields[-1]) == -1 and getattr(record, fields[-1]) == len(fields) - 1
    assert changed != record and type(changed) is cls
    with pytest.raises(TypeError):
        cls(*values.values(), -1)


def _closure_chain(depth: int, leaf: int = 0) -> StateCT:
    """A ct closure whose environment holds a closure, and so on, depth deep."""
    closure = StateCT(Lam(Var(leaf)), NIL, NIL, NIL)
    for _ in range(depth):
        closure = StateCT(Lam(Var(0)), plist([closure]), NIL, NIL)
    return closure


def test_deep_records_compare_without_recursion():
    # compared by nested calls, each level takes several interpreter frames,
    # so a few hundred levels would reach the recursion limit
    for depth in (300, 5000):
        assert _closure_chain(depth) == _closure_chain(depth)
        assert _closure_chain(depth) != _closure_chain(depth, leaf=1)
        assert _closure_chain(depth) != _closure_chain(depth + 1)


def test_deep_terms_compare_without_recursion():
    # two separate parses share no node, so == walks every level of both
    text = "\\x. " * 2000 + "x"
    named, twin = parse_gs(text), parse_gs(text)
    assert named == twin and not named != twin
    assert named != parse_gs(text.replace("\\x. ", "\\y. ", 1))
    term, other = to_debruijn_gs(named), to_debruijn_gs(twin)
    assert term == other and not term != other
    assert initial_gs(term) == initial_gs(other)
    assert initial_gs(term) != initial_gs(to_debruijn_gs(parse_gs("\\x. " + text)))
    # indices and labels compare by exact class, as the lock-step relations do
    assert Var(1) != Var(True) and not Var(1) == Var(True)
    assert Throw(0, Var(0)) != Throw(False, Var(0))


def test_shared_structure_is_compared_once():
    # each ping-pong capture stacks closures that earlier captures hold too, so
    # comparing the states of two runs as trees doubles the work every few steps
    ping_pong = to_debruijn_gs(parse_gs(r"(\x. x x) (\y. getctx k. setctx k (y y))"))
    start = time.perf_counter()
    a, b = (run(ping_pong, "gs", 400).last_state for _ in range(2))
    assert a == b and not a != b
    assert a != run(ping_pong, "gs", 401).last_state
    assert time.perf_counter() - start < 2


def test_direct_init_rejects_fields_with_defaults():
    with_default = dataclasses.make_dataclass("WithDefault", [("x", int, 0)], frozen=True, slots=True)
    with pytest.raises(TypeError):
        terms._direct_init(with_default)


def test_trace_heads_printed_once_per_subterm(monkeypatch):
    printed = []

    def counting_print_term(term, calculus):
        printed.append(term)
        return print_term(term, calculus)

    monkeypatch.setattr(machines, "print_term", counting_print_term)
    omega_ct = to_debruijn_ct(parse_ct(r"(\x. x x) (\x. x x)"))
    omega_gs = to_debruijn_gs(parse_gs(r"(\x. x x) (\x. x x)"))
    for term, machine in ((omega_ct, "ct"), (omega_gs, "gs"), (omega_gs, "it")):
        printed.clear()
        result = run(term, machine, max_steps=2000, collect_trace=True)
        assert len(result.events) == 2000
        # omega has 9 nodes; each is printed at most once however often the run revisits it
        assert len(printed) == len({id(t) for t in printed}) <= 9
        _, initial, _ = MACHINES[machine]
        state = initial(term)
        for event in result.events:
            assert event.head == print_term(state.term, CALCULUS[machine])
            _, state = step(state)


def test_importing_machines_leaves_the_other_modules_out():
    # the package root imports nothing, so a module pulls in only what it uses
    src = str(Path(machines.__file__).resolve().parent.parent)
    code = "import sys, coroutine_vm.machines; print(*sorted(m for m in sys.modules if m.startswith('coroutine_vm')))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    assert "coroutine_vm.machines" in loaded
    assert not {"coroutine_vm.bisim", "coroutine_vm.gen", "coroutine_vm.cli"} & set(loaded), loaded
