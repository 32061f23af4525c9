import random
from dataclasses import replace

import pytest

from coroutine_vm import bisim
from coroutine_vm.bisim import (
    LockstepReport,
    SimulationMaps,
    deep_eq,
    diamond_closure,
    diamond_state,
    flatten,
    lockstep,
    star_closure,
    star_state,
)
from coroutine_vm.errors import OpenTermError, UnsafeLocalIndexError, WorkbenchError
from coroutine_vm.gen import gen_ct_db, gen_gs_db
from coroutine_vm.machines import (
    RULE_FINAL,
    RULE_STUCK,
    ClosureGS,
    ClosureIT,
    StateCT,
    initial_ct,
    initial_gs,
    initial_it,
    run,
    step_ct,
    step_gs,
    step_it,
)
from coroutine_vm.plist import NIL, plist
from coroutine_vm.terms import App, GetContext, Lam, SetContext, Var
from coroutine_vm.translate import down

GS_DEMO = GetContext(SetContext(0, Lam(Var(0))))
IDENT = Lam(Var(0))
OMEGA = App(Lam(App(Var(0), Var(0))), Lam(App(Var(0), Var(0))))


def _trace(state, step):
    states = [state]
    while True:
        rule, successor = step(states[-1])
        if rule in (RULE_FINAL, RULE_STUCK):
            return states
        states.append(successor)


# ---------------------------------------------------------------------------
# star
# ---------------------------------------------------------------------------


def test_star_of_initial_state_is_initial_compiled_state():
    for term in (IDENT, GS_DEMO, Lam(Lam(Var(1)))):
        assert deep_eq(star_state(initial_it(term)), initial_ct(down(term)))


def test_star_closure_with_empty_environments():
    c = ClosureIT(IDENT, 0, NIL, NIL, NIL, NIL)
    mapped = star_closure(c)
    assert mapped.term == IDENT
    assert mapped.env is NIL and mapped.mu_env is NIL


def test_star_closure_after_one_bind():
    ident_closure = ClosureIT(IDENT, 0, NIL, NIL, NIL, NIL)
    bound = ClosureIT(Var(0), 1, plist([1]), NIL, plist([ident_closure]), NIL)
    mapped = star_closure(bound)
    assert mapped.term == Var(0)
    assert len(mapped.env) == 1
    assert mapped.env.head.term == IDENT


def test_star_relates_whole_demo_traces():
    it_states = _trace(initial_it(GS_DEMO), step_it)
    ct_states = _trace(initial_ct(down(GS_DEMO)), step_ct)
    assert len(it_states) == len(ct_states) == 3
    maps = SimulationMaps()
    for it_s, ct_s in zip(it_states, ct_states):
        assert deep_eq(star_state(it_s, maps), ct_s)


def test_star_maps_stacks_elementwise():
    it_states = _trace(initial_it(App(IDENT, IDENT)), step_it)
    with_stack = [s for s in it_states if len(s.stack) > 0]
    assert with_stack
    image = star_state(with_stack[0])
    assert isinstance(image, StateCT)
    assert len(image.stack) == len(with_stack[0].stack)


def test_star_rejects_unsafe_embedded_closure():
    broken = ClosureIT(Var(0), 0, NIL, NIL, NIL, NIL)  # empty vector: nothing visible
    with pytest.raises(UnsafeLocalIndexError):
        star_closure(broken)


# ---------------------------------------------------------------------------
# flatten / diamond
# ---------------------------------------------------------------------------


def test_flatten_empty_vector():
    assert flatten(5, plist([ClosureIT(IDENT, 0, NIL, NIL, NIL, NIL)]), NIL) is NIL


def test_flatten_singleton():
    c = ClosureIT(IDENT, 0, NIL, NIL, NIL, NIL)
    out = flatten(1, plist([c]), plist([1]))
    assert list(out) == [ClosureGS(IDENT, NIL, NIL, NIL)]


def test_flatten_preserves_order():
    c1 = ClosureIT(IDENT, 0, NIL, NIL, NIL, NIL)
    c2 = ClosureIT(Lam(Lam(Var(0))), 0, NIL, NIL, NIL, NIL)
    env = plist([c2, c1])  # newest first: depth 2 binder at position 0
    out = flatten(2, env, plist([2, 1]))
    assert [c.term for c in out] == [c2.term, c1.term]


def test_diamond_of_initial_state_is_initial_gs_state():
    for term in (IDENT, GS_DEMO):
        assert deep_eq(diamond_state(initial_it(term)), initial_gs(term))


def test_diamond_relates_whole_demo_traces():
    it_states = _trace(initial_it(GS_DEMO), step_it)
    gs_states = _trace(initial_gs(GS_DEMO), step_gs)
    maps = SimulationMaps()
    for it_s, gs_s in zip(it_states, gs_states):
        assert deep_eq(diamond_state(it_s, maps), gs_s)


def test_diamond_after_lam_bind():
    it_states = _trace(initial_it(App(IDENT, IDENT)), step_it)
    bound = it_states[2]  # after the lam rule
    assert bound.depth == 1
    image = diamond_state(bound)
    assert len(image.lenv) == 1
    assert image.lenv.head == ClosureGS(IDENT, NIL, NIL, NIL)


def test_diamond_carries_term_unchanged():
    c = ClosureIT(GS_DEMO, 0, NIL, NIL, NIL, NIL)
    assert diamond_closure(c).term is GS_DEMO


def test_state_maps_are_functional():
    # same input state, independent caches: identical images
    rng = random.Random(77)
    for _ in range(20):
        term = gen_gs_db(rng, rng.randint(3, 30))
        states = _trace(initial_it(term), step_it)[:20]
        for state in states:
            assert deep_eq(star_state(state, SimulationMaps()), star_state(state, SimulationMaps()))
            assert deep_eq(diamond_state(state, SimulationMaps()), diamond_state(state, SimulationMaps()))


# ---------------------------------------------------------------------------
# deep_eq
# ---------------------------------------------------------------------------


def test_deep_eq_ignores_sharing_differences():
    shared = plist([1, 2, 3])
    rebuilt = plist([1, 2, 3])
    assert deep_eq(ClosureGS(IDENT, shared, NIL, NIL), ClosureGS(IDENT, rebuilt, NIL, NIL))


def test_deep_eq_detects_differences():
    assert not deep_eq(ClosureGS(IDENT, NIL, NIL, NIL), ClosureGS(Lam(Lam(Var(0))), NIL, NIL, NIL))
    assert not deep_eq(plist([1, 2]), plist([1, 3]))
    assert not deep_eq(plist([1]), plist([1, 1]))
    assert not deep_eq(Var(0), Lam(Var(0)))


def test_deep_eq_on_dags_with_heavy_sharing():
    # chains that double the unfolded tree at each level stay cheap
    left = right = NIL
    for i in range(200):
        left = plist([left, left, i])
        right = plist([right, right, i])
    assert deep_eq(left, right)
    assert not deep_eq(left, plist([right, right, -1]))


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
    genuine = bisim.step_ct

    def tampered(state):
        calls["n"] += 1
        rule, s = genuine(state)
        if calls["n"] == 3 and rule not in (RULE_FINAL, RULE_STUCK) and s.stack:
            return rule, StateCT(s.term, s.env, s.mu_env, s.stack.tail)
        return rule, s

    monkeypatch.setattr(bisim, "step_ct", tampered)
    term = App(App(IDENT, IDENT), App(IDENT, IDENT))
    report = lockstep(term, "star", 100)
    assert report.outcome == "diverged"
    assert report.diverged_at is not None
    assert report.left and report.right


def test_lockstep_detects_early_halt(monkeypatch):
    calls = {"n": 0}
    genuine = bisim.step_gs

    def early_final(state):
        calls["n"] += 1
        if calls["n"] == 2:
            return RULE_FINAL, state.closure()
        return genuine(state)

    monkeypatch.setattr(bisim, "step_gs", early_final)
    report = lockstep(GS_DEMO, "diamond", 100)
    assert report.outcome == "diverged"
    assert report.diverged_at == 1
    assert "did not end the same way" in report.detail


def _fault_at_call(genuine, at, fault):
    # call number `at` of a step function steps state `at - 1`: replace its (rule, successor)
    calls = {"n": 0}

    def step(state):
        calls["n"] += 1
        rule, successor = genuine(state)
        return fault(rule, successor) if calls["n"] == at else (rule, successor)

    return step


def test_lockstep_reports_both_machines_stuck(monkeypatch):
    monkeypatch.setattr(bisim, "step_it", _fault_at_call(step_it, 2, lambda *_: (RULE_STUCK, "it-reason")))
    monkeypatch.setattr(bisim, "step_gs", _fault_at_call(step_gs, 2, lambda *_: (RULE_STUCK, "gs-reason")))
    report = lockstep(GS_DEMO, "diamond", 100)
    assert report.outcome == "diverged"
    assert report.diverged_at == report.steps_checked == 1
    assert report.detail == "both machines got stuck (input was not well-scoped)"
    assert (report.left, report.right) == ("it run: stuck (it-reason)", "gs run: stuck (gs-reason)")


def test_lockstep_composed_reports_earliest_divergence(monkeypatch):
    def extra_stack_entry(extra):
        return lambda rule, s: (rule, replace(s, stack=s.stack.cons(extra)))

    ct_fault = extra_stack_entry(initial_ct(down(IDENT)).closure())
    monkeypatch.setattr(bisim, "step_ct", _fault_at_call(step_ct, 4, ct_fault))
    alone = lockstep(OMEGA, "composed", 50)
    assert (alone.diverged_at, alone.detail) == (4, "it-state image differs from ct state at step 4")

    monkeypatch.setattr(bisim, "step_ct", _fault_at_call(step_ct, 4, ct_fault))
    monkeypatch.setattr(bisim, "step_gs", _fault_at_call(step_gs, 2, extra_stack_entry(initial_gs(IDENT).closure())))
    report = lockstep(OMEGA, "composed", 50)
    assert report.outcome == "diverged"
    assert report.diverged_at == report.steps_checked == 2
    assert report.detail == "it-state image differs from gs state at step 2"


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
