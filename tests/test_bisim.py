import random
import sys
import tracemalloc

import pytest

from coroutine_vm import bisim
from coroutine_vm.bisim import LockstepReport, R_diamond, R_star, lockstep
from coroutine_vm.debruijn import to_debruijn_gs
from coroutine_vm.errors import OpenTermError, WorkbenchError
from coroutine_vm.gen import gen_ct_db, gen_gs_db
from coroutine_vm.machines import (
    MACHINES,
    RULE_FINAL,
    RULE_STUCK,
    StateCT,
    StateGS,
    StateIT,
    applicable_rules,
    initial_ct,
    initial_gs,
    initial_it,
    run,
    step,
)
from coroutine_vm.parser import parse_gs
from coroutine_vm.plist import NIL, plist
from coroutine_vm.terms import App, Catch, Lam, Throw, Var
from coroutine_vm.translate import down

GS_DEMO = Catch(Throw(0, Lam(Var(0))))
IDENT = Lam(Var(0))
OMEGA = App(Lam(App(Var(0), Var(0))), Lam(App(Var(0), Var(0))))
PING_PONG = to_debruijn_gs(parse_gs(r"(\x. x x) (\y. getctx k. setctx k (y y))"))


def _trace(state):
    states = [state]
    while True:
        rule, successor = step(states[-1])
        if rule in (RULE_FINAL, RULE_STUCK):
            return states
        states.append(successor)


def _it(term, depth=0, vec=NIL, table=NIL, env=NIL, mu_env=NIL):
    return StateIT(term, depth, vec, table, env, mu_env, NIL)


# ---------------------------------------------------------------------------
# R_star
# ---------------------------------------------------------------------------


def test_star_of_initial_state_is_initial_compiled_state():
    for term in (IDENT, GS_DEMO, Lam(Lam(Var(1)))):
        assert R_star(initial_it(term), initial_ct(down(term)))
    assert not R_star(initial_it(IDENT), initial_ct(Lam(Lam(Var(0)))))


def test_star_closure_with_empty_environments():
    c = _it(IDENT)
    assert R_star(c, StateCT(IDENT, NIL, NIL, NIL))
    assert not R_star(c, StateCT(IDENT, plist([StateCT(IDENT, NIL, NIL, NIL)]), NIL, NIL))
    assert not R_star(c, StateCT(IDENT, NIL, plist([NIL]), NIL))


def test_star_closure_after_one_bind():
    bound = _it(Var(0), 1, plist([1]), env=plist([_it(IDENT)]))
    assert R_star(bound, StateCT(Var(0), plist([StateCT(IDENT, NIL, NIL, NIL)]), NIL, NIL))
    assert not R_star(bound, StateCT(Var(1), plist([StateCT(IDENT, NIL, NIL, NIL)]), NIL, NIL))
    assert not R_star(bound, StateCT(Var(0), plist([StateCT(Var(0), NIL, NIL, NIL)]), NIL, NIL))
    assert not R_star(bound, StateCT(Var(0), NIL, NIL, NIL))


def test_star_relates_whole_demo_traces():
    it_states = _trace(initial_it(GS_DEMO))
    ct_states = _trace(initial_ct(down(GS_DEMO)))
    assert len(it_states) == len(ct_states) == 3
    memo = {}
    for it_s, ct_s in zip(it_states, ct_states):
        assert R_star(it_s, ct_s, memo)
    assert not R_star(it_states[1], ct_states[2])


def test_star_maps_stacks_elementwise():
    it_states = _trace(initial_it(App(IDENT, IDENT)))
    ct_states = _trace(initial_ct(down(App(IDENT, IDENT))))
    k = next(k for k, s in enumerate(it_states) if len(s.stack) > 0)
    assert R_star(it_states[k], ct_states[k])
    assert not R_star(it_states[k], ct_states[k]._replace(stack=ct_states[k].stack.tail))
    assert not R_star(it_states[k], ct_states[k]._replace(stack=plist([StateCT(Var(0), NIL, NIL, NIL)])))


def test_star_rejects_unsafe_embedded_closure():
    broken = _it(Var(0))  # empty vector: nothing visible
    for index in range(3):
        assert not R_star(broken, StateCT(Var(index), NIL, NIL, NIL))
    holder = _it(IDENT, 1, plist([1]), env=plist([broken]))
    assert not R_star(holder, StateCT(IDENT, plist([StateCT(Var(0), NIL, NIL, NIL)]), NIL, NIL))


def test_star_walks_labels_through_the_table():
    # get. (\. set 0 #0) under an outer binder: the catch pushes vec [1], the
    # inner binder sees depth 2 through [2, 1], the throw switches back to [1]
    term = Catch(Lam(Throw(0, Var(0))))
    c = _it(term, 1, plist([1]), env=plist([_it(IDENT)]))
    env = plist([StateCT(IDENT, NIL, NIL, NIL)])
    assert down(Lam(term)) == Lam(Catch(Lam(Throw(0, Var(1)))))
    assert R_star(c, StateCT(Catch(Lam(Throw(0, Var(1)))), env, NIL, NIL))
    assert not R_star(c, StateCT(Catch(Lam(Throw(0, Var(0)))), env, NIL, NIL))  # vector not switched
    assert not R_star(c, StateCT(Catch(Lam(Throw(1, Var(1)))), env, NIL, NIL))  # label differs
    assert not R_star(_it(Throw(0, Var(0)), 1, plist([1])), StateCT(Throw(0, Var(0)), NIL, NIL, NIL))


def test_star_rejects_a_non_int_index_or_label():
    # True would pass the range checks and then index a plist, which takes only an int
    env = plist([_it(IDENT)])
    ct_env = plist([StateCT(IDENT, NIL, NIL, NIL)])
    assert R_star(_it(Var(1), 1, plist([1, 0]), env=env), StateCT(Var(1), ct_env, NIL, NIL))
    assert not R_star(_it(Var(True), 1, plist([1, 0]), env=env), StateCT(Var(1), ct_env, NIL, NIL))
    labels = plist([NIL])
    ct = StateCT(Catch(Throw(1, IDENT)), NIL, labels, NIL)
    assert R_star(_it(Catch(Throw(1, IDENT)), table=plist([NIL]), mu_env=labels), ct)
    assert not R_star(_it(Catch(Throw(True, IDENT)), table=plist([NIL]), mu_env=labels), ct)


def test_relations_check_the_class_of_the_it_side():
    # an it closure's environment entry must be an it closure: not another machine's, not a state with a stack
    wrong = (StateCT(IDENT, NIL, NIL, NIL), StateGS(IDENT, NIL, NIL, NIL, NIL),
             _it(IDENT)._replace(stack=plist([_it(IDENT)])))
    for inner, related in ((_it(IDENT), True),) + tuple((entry, False) for entry in wrong):
        it = _it(Var(0), 1, plist([1]), env=plist([inner]))
        assert R_star(it, StateCT(Var(0), plist([StateCT(IDENT, NIL, NIL, NIL)]), NIL, NIL)) is related
        assert R_diamond(it, StateGS(Var(0), plist([StateGS(IDENT, NIL, NIL, NIL, NIL)]), NIL, NIL, NIL)) is related
    # nor is the it side itself of another class: False, not an error
    ct, gs, it = (run(IDENT, machine).closure for machine in ("ct", "gs", "it"))
    assert R_star(it, ct) and R_diamond(it, gs)
    for other in (ct, gs, object()):
        assert R_star(other, ct) is False
        assert R_diamond(other, gs) is False


# ---------------------------------------------------------------------------
# R_diamond: the local environments a vector selects ("flatten")
# ---------------------------------------------------------------------------


def test_flatten_empty_vector():
    c = _it(IDENT, 5, env=plist([_it(IDENT)]))
    assert R_diamond(c, StateGS(IDENT, NIL, NIL, NIL, NIL))
    assert not R_diamond(c, StateGS(IDENT, plist([StateGS(IDENT, NIL, NIL, NIL, NIL)]), NIL, NIL, NIL))


def test_flatten_singleton():
    c = _it(Var(0), 1, plist([1]), env=plist([_it(IDENT)]))
    assert R_diamond(c, StateGS(Var(0), plist([StateGS(IDENT, NIL, NIL, NIL, NIL)]), NIL, NIL, NIL))
    assert not R_diamond(c, StateGS(Var(0), NIL, NIL, NIL, NIL))
    assert not R_diamond(c._replace(vec=plist([3])), StateGS(Var(0), plist([StateGS(IDENT, NIL, NIL, NIL, NIL)]), NIL, NIL, NIL))


def test_flatten_preserves_order():
    c1 = _it(IDENT)
    c2 = _it(Lam(Lam(Var(0))))
    env = plist([c2, c1])  # newest first: depth 2 binder at position 0
    g1 = StateGS(c1.term, NIL, NIL, NIL, NIL)
    g2 = StateGS(c2.term, NIL, NIL, NIL, NIL)
    c = _it(Var(0), 2, plist([2, 1]), env=env)
    assert R_diamond(c, StateGS(Var(0), plist([g2, g1]), NIL, NIL, NIL))
    assert not R_diamond(c, StateGS(Var(0), plist([g1, g2]), NIL, NIL, NIL))
    # each table vector selects a label's local environment the same way
    tabled = c._replace(table=plist([plist([1]), NIL]), mu_env=plist([NIL, NIL]))
    assert R_diamond(tabled, StateGS(Var(0), plist([g2, g1]), plist([plist([g1]), NIL]), plist([NIL, NIL]), NIL))
    assert not R_diamond(tabled, StateGS(Var(0), plist([g2, g1]), plist([plist([g2]), NIL]), plist([NIL, NIL]), NIL))


def test_diamond_of_initial_state_is_initial_gs_state():
    for term in (IDENT, GS_DEMO):
        assert R_diamond(initial_it(term), initial_gs(term))
    assert not R_diamond(initial_it(IDENT), initial_gs(GS_DEMO))


def test_diamond_relates_whole_demo_traces():
    it_states = _trace(initial_it(GS_DEMO))
    gs_states = _trace(initial_gs(GS_DEMO))
    assert len(it_states) == len(gs_states) == 3
    memo = {}
    for it_s, gs_s in zip(it_states, gs_states):
        assert R_diamond(it_s, gs_s, memo)
    assert not R_diamond(it_states[2], gs_states[1])


def test_diamond_after_lam_bind():
    it_states = _trace(initial_it(App(IDENT, IDENT)))
    bound = it_states[2]  # after the lam rule
    assert bound.depth == 1
    gs_bound = StateGS(bound.term, plist([StateGS(IDENT, NIL, NIL, NIL, NIL)]), NIL, NIL, NIL)
    assert gs_bound == _trace(initial_gs(App(IDENT, IDENT)))[2]
    assert R_diamond(bound, gs_bound)
    assert not R_diamond(bound, gs_bound._replace(lenv=NIL))


def test_diamond_carries_term_unchanged():
    c = _it(GS_DEMO)
    assert R_diamond(c, StateGS(GS_DEMO, NIL, NIL, NIL, NIL))
    assert R_diamond(c, StateGS(Catch(Throw(0, Lam(Var(0)))), NIL, NIL, NIL, NIL))  # equal, not shared
    assert not R_diamond(c, StateGS(Catch(Throw(1, Lam(Var(0)))), NIL, NIL, NIL, NIL))
    # the gs machine runs the term itself, not its translation: here down moves x from 0 to 1
    shifted = to_debruijn_gs(parse_gs(r"\x. getctx a. \y. setctx a x"))
    assert down(shifted) == Lam(Catch(Lam(Throw(0, Var(1))))) != shifted
    assert R_diamond(_it(shifted), StateGS(shifted, NIL, NIL, NIL, NIL))
    assert not R_diamond(_it(shifted), StateGS(down(shifted), NIL, NIL, NIL, NIL))


def test_diamond_rejects_an_extra_label_environment():
    # one lenv_mu entry per table vector: an extra local environment, with
    # the label stacks left as they are, is not related, before a getctx
    # (empty table) and after one
    it_states = _trace(initial_it(GS_DEMO))
    gs_states = _trace(initial_gs(GS_DEMO))
    for k in (0, 1):  # state 1 is the one the getctx made
        it_s, gs_s = it_states[k], gs_states[k]
        assert len(it_s.table) == len(gs_s.lenv_mu) == len(gs_s.mu_env) == k
        assert R_diamond(it_s, gs_s)
        assert not R_diamond(it_s, gs_s._replace(lenv_mu=gs_s.lenv_mu.cons(NIL)))
        assert not R_diamond(it_s, gs_s._replace(lenv_mu=gs_s.lenv_mu.cons(gs_s.lenv)))


def test_state_maps_are_functional():
    # the relation holds along whole runs, under fresh memos and a shared one alike
    rng = random.Random(77)
    for _ in range(20):
        term = gen_gs_db(rng, rng.randint(3, 30))
        it_states = _trace(initial_it(term))[:20]
        ct_states = _trace(initial_ct(down(term)))[:20]
        gs_states = _trace(initial_gs(term))[:20]
        shared = {}
        for it_s, ct_s, gs_s in zip(it_states, ct_states, gs_states):
            assert R_star(it_s, ct_s, {}) and R_star(it_s, ct_s, {})
            assert R_diamond(it_s, gs_s, {}) and R_diamond(it_s, gs_s, {})
            assert R_star(it_s, ct_s, shared) and R_diamond(it_s, gs_s, shared)


def test_a_vector_with_an_increasing_step_is_not_related():
    # every it state's vectors strictly decrease; a pair is keyed by the
    # cell its vector's head selects, which fixes the cells the later
    # entries select only if none of them exceeds the head
    c1, c2 = _it(IDENT), _it(Lam(Lam(Var(0))))
    g1, g2 = StateGS(c1.term, NIL, NIL, NIL, NIL), StateGS(c2.term, NIL, NIL, NIL, NIL)
    c = _it(Var(0), 2, plist([1, 2]), env=plist([c2, c1]))
    assert not R_diamond(c, StateGS(Var(0), plist([g1, g2]), NIL, NIL, NIL))
    assert R_diamond(c._replace(vec=plist([2, 2])), StateGS(Var(0), plist([g2, g2]), NIL, NIL, NIL))
    assert not R_diamond(c._replace(vec=plist([2, 2])), StateGS(Var(0), plist([g2, g1]), NIL, NIL, NIL))


def test_a_binder_step_reproves_only_its_new_pairs():
    # Under n binders the vector has n entries. A binder pushes one closure
    # and raises the depth, which leaves every cell the older entries
    # select in place, so re-proving after it adds a bounded number of
    # memo entries, not one per entry.
    n = 400
    term = to_debruijn_gs(parse_gs("(" + "".join(f"\\x{i}. " for i in range(n)) + "x0)" + " (\\z. z)" * n))
    it, ct, gs = initial_it(term), initial_ct(down(term)), initial_gs(term)
    while it.depth < n - 1 or type(it.term) is not Lam:
        (_, it), (_, ct), (_, gs) = step(it), step(ct), step(gs)
    assert len(it.vec) == n - 1 and len(it.stack) == 1
    memo = {}
    assert R_star(it, ct, memo) and R_diamond(it, gs, memo)
    before = len(memo)
    (_, it), (_, ct), (_, gs) = step(it), step(ct), step(gs)
    assert len(it.vec) == n
    assert R_star(it, ct, memo) and R_diamond(it, gs, memo)
    assert len(memo) - before < 10


# ---------------------------------------------------------------------------
# Exact structure and sharing
# ---------------------------------------------------------------------------


def test_relation_ignores_sharing_differences():
    c = _it(Var(0), 2, plist([2, 1]), env=plist([_it(IDENT), _it(IDENT)]))
    shared = StateGS(IDENT, NIL, NIL, NIL, NIL)
    assert R_diamond(c, StateGS(Var(0), plist([shared, shared]), NIL, NIL, NIL))
    rebuilt = [StateGS(Lam(Var(0)), NIL, NIL, NIL, NIL) for _ in range(2)]
    assert R_diamond(c, StateGS(Var(0), plist(rebuilt), NIL, NIL, NIL))
    ct_env = plist([StateCT(Lam(Var(0)), NIL, NIL, NIL), StateCT(IDENT, NIL, NIL, NIL)])
    assert R_star(c._replace(term=Lam(Var(1))), StateCT(Lam(Var(1)), ct_env, NIL, NIL))


def test_relation_detects_differences():
    gs_ident = StateGS(IDENT, NIL, NIL, NIL, NIL)
    assert not R_diamond(_it(IDENT), StateGS(Lam(Lam(Var(0))), NIL, NIL, NIL, NIL))
    assert not R_diamond(_it(Var(0), 1, plist([1]), env=plist([_it(IDENT)])), StateGS(Var(1), plist([gs_ident]), NIL, NIL, NIL))
    assert not R_diamond(_it(Var(0)), StateGS(Lam(Var(0)), NIL, NIL, NIL, NIL))
    assert not R_diamond(_it(IDENT), StateGS(IDENT, NIL, NIL, plist([NIL]), NIL))
    assert not R_diamond(_it(IDENT, mu_env=plist([NIL])), StateGS(IDENT, NIL, NIL, plist([NIL, NIL]), NIL))
    # exact types: a ct closure is not a gs closure, True is not 1; a stack entry is not an empty stack
    assert not R_diamond(_it(IDENT), StateCT(IDENT, NIL, NIL, NIL))
    assert not R_star(_it(Var(0), 1, plist([0])), StateCT(Var(True), NIL, NIL, NIL))
    assert R_star(_it(Var(0), 1, plist([0])), StateCT(Var(1), NIL, NIL, NIL))
    assert not R_star(initial_it(IDENT), StateCT(IDENT, NIL, NIL, plist([StateCT(IDENT, NIL, NIL, NIL)])))


def test_relation_on_dags_with_heavy_sharing():
    # environments whose unfolding doubles at each level are still checked once per node
    it_c, ct_c, gs_c = _it(IDENT), StateCT(IDENT, NIL, NIL, NIL), StateGS(IDENT, NIL, NIL, NIL, NIL)
    for depth in range(2, 202):
        it_c = _it(Var(0), depth, plist([depth, depth - 1]), env=plist([it_c] * depth))
        ct_c = StateCT(Var(0), plist([ct_c] * depth), NIL, NIL)
        gs_c = StateGS(Var(0), plist([gs_c, gs_c]), NIL, NIL, NIL)
    assert R_star(it_c, ct_c)
    assert R_diamond(it_c, gs_c)
    assert not R_star(it_c, StateCT(Var(0), plist([ct_c] * 200), NIL, NIL))
    assert not R_diamond(it_c, StateGS(Var(0), plist([gs_c, gs_c]), NIL, NIL, NIL))


# ---------------------------------------------------------------------------
# lockstep
# ---------------------------------------------------------------------------


def test_lockstep_identity():
    report = lockstep(IDENT, "star", 100)
    assert report.outcome == "both_halted"
    assert report.steps_checked == 0


def test_lockstep_demo_composed():
    report = lockstep(GS_DEMO, "composed", 100)
    assert report.outcome == "both_halted"
    assert report.steps_checked == 2
    assert report.all_related


def test_lockstep_omega_exhausts_fuel_all_related():
    for pair in ("star", "diamond", "composed"):
        report = lockstep(OMEGA, pair, 50)
        assert report.outcome == "fuel_exhausted"
        assert report.steps_checked == 50
        assert report.all_related


def test_lockstep_rejects_open_terms():
    with pytest.raises(OpenTermError):
        lockstep(Var(0), "star", 10)


def test_lockstep_bad_pair():
    with pytest.raises(ValueError):
        lockstep(IDENT, "rhombus", 10)


def test_lockstep_rejects_negative_fuel():
    with pytest.raises(WorkbenchError):
        lockstep(OMEGA, "composed", -1)


def test_lockstep_random_terms_all_related():
    rng = random.Random(31)
    for _ in range(150):
        term = gen_gs_db(rng, rng.randint(1, 35))
        report = lockstep(term, "composed", 200)
        assert report.all_related, (term, report)


def test_lockstep_detects_tampered_machine(monkeypatch):
    # drop a stack entry mid-run: the checker must flag the divergence
    calls = {"n": 0}

    def tampered(state):
        rule, s = step(state)
        if type(state) is not StateCT:
            return rule, s
        calls["n"] += 1
        if calls["n"] == 3 and rule not in (RULE_FINAL, RULE_STUCK) and s.stack:
            return rule, StateCT(s.term, s.env, s.mu_env, s.stack.tail)
        return rule, s

    monkeypatch.setattr(bisim, "step", tampered)
    term = App(App(IDENT, IDENT), App(IDENT, IDENT))
    report = lockstep(term, "star", 100)
    assert report.outcome == "diverged"
    assert report.diverged_at == report.steps_checked == 3  # call 3 steps state 2 into state 3
    assert report.detail == "it-state image differs from ct state at step 3"
    assert report.left.endswith("stack=1>") and report.right.endswith("stack=0>")


def test_lockstep_detects_early_halt(monkeypatch):
    calls = {"n": 0}

    def early_final(state):
        if type(state) is StateGS:
            calls["n"] += 1
            if calls["n"] == 2:
                return RULE_FINAL, state
        return step(state)

    monkeypatch.setattr(bisim, "step", early_final)
    report = lockstep(GS_DEMO, "diamond", 100)
    assert report.outcome == "diverged"
    assert report.diverged_at == 1
    assert "did not end the same way" in report.detail


def _fault_at_call(machine, at, fault, inner=step):
    # call number `at` on a state of `machine` steps its state `at - 1`: replace its (rule, successor);
    # every other call, on any machine, goes to inner unchanged
    calls = {"n": 0}

    def faulty(state):
        rule, successor = inner(state)
        if type(state) is not MACHINES[machine][0]:
            return rule, successor
        calls["n"] += 1
        return fault(rule, successor) if calls["n"] == at else (rule, successor)

    return faulty


def test_lockstep_reports_both_machines_stuck(monkeypatch):
    it_stuck = _fault_at_call("it", 2, lambda *_: (RULE_STUCK, "it-reason"))
    monkeypatch.setattr(bisim, "step", _fault_at_call("gs", 2, lambda *_: (RULE_STUCK, "gs-reason"), it_stuck))
    report = lockstep(GS_DEMO, "diamond", 100)
    assert report.outcome == "diverged"
    assert report.diverged_at == report.steps_checked == 1
    assert report.detail == "both machines got stuck (input was not well-scoped)"
    assert (report.left, report.right) == ("it run: stuck (it-reason)", "gs run: stuck (gs-reason)")


def test_lockstep_composed_reports_earliest_divergence(monkeypatch):
    def extra_stack_entry(extra):
        return lambda rule, s: (rule, s._replace(stack=s.stack.cons(extra)))

    ct_fault = extra_stack_entry(initial_ct(down(IDENT)))
    monkeypatch.setattr(bisim, "step", _fault_at_call("ct", 4, ct_fault))
    alone = lockstep(OMEGA, "composed", 50)
    assert (alone.diverged_at, alone.detail) == (4, "it-state image differs from ct state at step 4")

    gs_fault = extra_stack_entry(initial_gs(IDENT))
    monkeypatch.setattr(bisim, "step", _fault_at_call("gs", 2, gs_fault, _fault_at_call("ct", 4, ct_fault)))
    report = lockstep(OMEGA, "composed", 50)
    assert report.outcome == "diverged"
    assert report.diverged_at == report.steps_checked == 2
    assert report.detail == "it-state image differs from gs state at step 2"


@pytest.mark.parametrize("machine, pair", [("ct", "star"), ("gs", "diamond"), ("gs", "composed"), ("it", "composed")])
def test_lockstep_checks_the_rule_each_step_returns(monkeypatch, machine, pair):
    # every var step tagged as app: the states stay right, only the returned rule is wrong
    def mistagged(state):
        rule, successor = step(state)
        if type(state) is not MACHINES[machine][0]:
            return rule, successor
        return ("app" if rule == "var" else rule), successor

    monkeypatch.setattr(bisim, "step", mistagged)
    report = lockstep(OMEGA, pair, 50)
    assert report.outcome == "diverged"
    assert report.diverged_at == report.steps_checked == 3  # omega: app, lam, app, then var
    assert report.detail == f"{machine} step returned rule app where rule var applies at step 3"
    state = {"ct": initial_ct(down(OMEGA)), "gs": initial_gs(OMEGA), "it": initial_it(OMEGA)}[machine]
    for _ in range(3):
        state = step(state)[1]
    assert (report.left, report.right) == (bisim.describe_state(state), f"{machine} step: app")


@pytest.mark.parametrize("machine, found", [("ct", 2), ("gs", 0), ("it", 2)])
def test_lockstep_requires_exactly_one_applicable_rule(monkeypatch, machine, found):
    # the oracle finds a second rule, or none, for the machine's state at step 4
    calls = {"n": 0}

    def oracle(state):
        rules = applicable_rules(state)
        if type(state) is MACHINES[machine][0]:
            calls["n"] += 1
            if calls["n"] == 5:
                return (rules + [RULE_STUCK])[:found]
        return rules

    monkeypatch.setattr(bisim, "applicable_rules", oracle)
    report = lockstep(OMEGA, "composed", 50)
    assert report.outcome == "diverged"
    assert report.diverged_at == report.steps_checked == 4
    assert report.detail == "rule dispatch was not deterministic"
    assert report.right == f"{found} rules apply"
    state = {"ct": initial_ct(down(OMEGA)), "gs": initial_gs(OMEGA), "it": initial_it(OMEGA)}[machine]
    for _ in range(4):
        state = step(state)[1]
    assert report.left == bisim.describe_state(state)


_EXTRA = {"ct": StateCT(IDENT, NIL, NIL, NIL), "gs": StateGS(IDENT, NIL, NIL, NIL, NIL), "it": _it(IDENT)}


def _field_fault(machine, field):
    """Replace the term, drop the vector's first entry, or push an extra entry onto a list field."""
    if field == "term":
        return lambda rule, s: (rule, s._replace(term=Lam(Lam(Var(0)))))
    if field == "vec":
        return lambda rule, s: (rule, s._replace(vec=s.vec.tail))
    return lambda rule, s: (rule, s._replace(**{field: getattr(s, field).cons(_EXTRA[machine])}))


@pytest.mark.parametrize(
    "machine, field, pair, partner",
    [
        ("ct", "term", "composed", "ct"),
        ("ct", "env", "composed", "ct"),
        ("ct", "stack", "star", "ct"),
        ("gs", "term", "composed", "gs"),
        ("gs", "lenv", "composed", "gs"),
        ("gs", "stack", "diamond", "gs"),
        ("it", "term", "composed", "ct"),
        ("it", "vec", "composed", "ct"),
        ("it", "env", "diamond", "gs"),
        ("it", "stack", "diamond", "gs"),
    ],
)
def test_lockstep_reports_the_faulted_step(monkeypatch, machine, field, pair, partner):
    fault = _field_fault(machine, field)
    monkeypatch.setattr(bisim, "step", _fault_at_call(machine, 6, fault))
    report = lockstep(OMEGA, pair, 50)
    assert report.outcome == "diverged"
    assert report.diverged_at == report.steps_checked == 6
    assert report.detail == f"it-state image differs from {partner} state at step 6"
    states = [initial_it(OMEGA)]
    for _ in range(6):
        states.append(step(states[-1])[1])
    it_state = fault(None, states[6])[1] if machine == "it" else states[6]
    assert report.left == bisim.describe_state(it_state)


@pytest.mark.parametrize(
    "machine, field, pair, partner",
    [("ct", "env", "star", "ct"), ("gs", "lenv", "diamond", "gs"), ("it", "env", "composed", "ct")],
)
def test_memo_aging_hides_no_fault(monkeypatch, machine, field, pair, partner):
    # Eight steps per generation: the memo is cleared at steps 0, 8, 16 and
    # 24, so step 30 reads many pairs proven at steps 24 to 29.
    monkeypatch.setattr(bisim, "_MEMO_GENERATION", 8)
    monkeypatch.setattr(bisim, "step", _fault_at_call(machine, 30, _field_fault(machine, field)))
    report = lockstep(PING_PONG, pair, 50)
    assert report.outcome == "diverged"
    assert report.diverged_at == report.steps_checked == 30
    assert report.detail == f"it-state image differs from {partner} state at step 30"


def test_lockstep_leaves_the_recursion_limit_alone():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        report = lockstep(PING_PONG, "composed", 20_000)
        limit = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(saved)
    assert limit == 1000
    assert (report.outcome, report.steps_checked) == ("fuel_exhausted", 20_000)


def test_memo_holds_only_the_pairs_probed_since_its_last_clear(monkeypatch):
    # lockstep keeps one dict of proven pairs and clears it every
    # _MEMO_GENERATION steps: a pair proven before a clear is not kept past
    # it, and the live state is proven once more after it
    generation = 8
    monkeypatch.setattr(bisim, "_MEMO_GENERATION", generation)
    at_entry, added = [], []

    def recorded(it, ct, memo=None):
        before = set(memo)
        related = R_star(it, ct, memo)
        at_entry.append(before)
        added.append(set(memo) - before)
        return related

    monkeypatch.setattr(bisim, "R_star", recorded)
    assert lockstep(PING_PONG, "star", 5 * generation).outcome == "fuel_exhausted"
    assert len(at_entry) == 5 * generation + 1
    for i, keys in enumerate(at_entry):
        assert keys == set().union(*added[i - i % generation:i])
    for i in range(generation, 5 * generation, generation):
        assert not at_entry[i] and added[i] & at_entry[i - 1]


def test_lockstep_memory_is_bounded(monkeypatch):
    # lockstep clears its memo of proven pairs every _MEMO_GENERATION steps,
    # so a run four generations long may peak above a one-generation run
    # only by the machines' own growth (the ping-pong closures carry one
    # more label per round). Measured on Python 3.11, in a fresh process
    # with the long run first: 0.56 MB at four generations and 0.22 MB at
    # one; 0.79 MB at four without clearing. Image caches that pin every
    # closure ever mapped grow by about 1 KB per step instead: about 14 MB
    # more at four generations.
    peaks = []

    def recorded(it, gs, memo=None):
        related = R_diamond(it, gs, memo)
        peaks[-1] = max(peaks[-1], len(memo))
        return related

    monkeypatch.setattr(bisim, "R_diamond", recorded)

    def peak(steps):
        peaks.append(0)
        tracemalloc.start()
        try:
            assert lockstep(PING_PONG, "composed", steps).outcome == "fuel_exhausted"
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    generation = bisim._MEMO_GENERATION
    assert peak(4 * generation) - peak(generation) < 1_000_000
    # The memo peaks at about one generation's entries in both runs: 1562
    # and 1220 here, against 2480 after four generations without clearing.
    # Its size at the end of a run would read the live state proven again
    # after the last clear, which grows by one label per round.
    long_run, short_run = peaks
    assert long_run < 1.5 * short_run


def test_report_serialization():
    ok = lockstep(GS_DEMO, "composed", 100)
    assert ok.to_dict() == {"pair": "composed", "steps_checked": 2, "outcome": "both_halted"}
    bad = LockstepReport("star", 1, "diverged", diverged_at=1, left="L", right="R", detail="d")
    assert bad.to_dict()["diverged_at"] == 1


def test_ct_machine_tolerates_arbitrary_closed_terms():
    # unsafe terms still run deterministically (no guarantee about sticking)
    rng = random.Random(33)
    kinds = set()
    for _ in range(200):
        term = gen_ct_db(rng, rng.randint(1, 30))
        first = run(term, "ct", max_steps=100, collect_trace=True)
        second = run(term, "ct", max_steps=100, collect_trace=True)
        assert first.kind == second.kind
        assert first.events == second.events
        kinds.add(first.kind)
    assert "final" in kinds
