"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (visible with -s, or
in captured output). Generated corpora are seeded, so every run checks the
same terms; the lock-step criteria share one 500-term corpus.
"""

import json
import random
import time

import pytest

from coroutine_vm.bisim import lockstep
from coroutine_vm.debruijn import to_debruijn_ct, to_debruijn_gs
from coroutine_vm.errors import NotSafeError
from coroutine_vm.gen import gen_ct_db, gen_gs_db, gen_named_ct
from coroutine_vm.machines import (
    RULE_FINAL,
    RULE_STUCK,
    applicable_rules,
    initial_ct,
    initial_gs,
    initial_it,
    run,
    step,
)
from coroutine_vm.parser import parse, parse_ct
from coroutine_vm.safety import is_safe, safe_db, safe_named
from coroutine_vm.terms import print_term
from coroutine_vm.translate import down, lift

LOCKSTEP_TERMS = 500
LOCKSTEP_FUEL = 500
EQUIV_TERMS = 1000
ROUND_TRIP_TERMS = 1000


def _report(criterion: int, description: str, budget: float | None, work):
    start = time.perf_counter()
    try:
        work()
    except BaseException:
        print(f"ACCEPTANCE {criterion} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {criterion} PASS: {description} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget ({elapsed:.2f}s)"


@pytest.fixture(scope="session")
def gs_corpus():
    rng = random.Random(20260809)
    return [gen_gs_db(rng, rng.randint(1, 40)) for _ in range(LOCKSTEP_TERMS)]


def test_criterion_1_worked_examples():
    def work():
        safe_term = parse_ct(r"\x. catch a. \y. throw a x")
        unsafe_term = parse_ct(r"\x. catch a. \y. throw a y")
        assert is_safe(safe_term) is True
        assert safe_named(safe_term) is True
        assert safe_db(to_debruijn_ct(safe_term)) is True
        assert is_safe(unsafe_term) is False
        assert safe_named(unsafe_term) is False
        assert safe_db(to_debruijn_ct(unsafe_term)) is False

    _report(1, "worked safe/unsafe examples agree across all three checks", 1.0, work)


def test_criterion_2_safety_equivalence():
    def work():
        rng = random.Random(101)
        safe_seen = unsafe_seen = 0
        for _ in range(EQUIV_TERMS):
            term = gen_named_ct(rng, rng.randint(1, 30), unsafe_ok=True)
            a = is_safe(term)
            b = safe_named(term)
            c = safe_db(to_debruijn_ct(term))
            assert a == b == c, print_term(term, "ct")
            if a:
                safe_seen += 1
            else:
                unsafe_seen += 1
        assert safe_seen and unsafe_seen

    _report(2, f"three safety judgments agree on {EQUIV_TERMS} closed named terms", 30.0, work)


def test_criterion_3_translation_round_trips():
    def work():
        rng = random.Random(103)
        for _ in range(ROUND_TRIP_TERMS):
            term = gen_gs_db(rng, rng.randint(1, 30))
            translated = down(term)
            assert safe_db(translated), print_term(term, "gs")
            assert lift(translated) == term, print_term(term, "gs")
        lifted = rejected = 0
        for _ in range(ROUND_TRIP_TERMS):
            term = gen_ct_db(rng, rng.randint(1, 30))
            expected = safe_db(term)
            try:
                recovered = lift(term)
                assert expected, print_term(term, "ct")
                assert down(recovered) == term, print_term(term, "ct")
                lifted += 1
            except NotSafeError:
                assert not expected, print_term(term, "ct")
                rejected += 1
        assert lifted and rejected

    _report(3, f"translation round trips and safe-image equivalence on 2x{ROUND_TRIP_TERMS} terms", 30.0, work)


def _lockstep_all(corpus, pair):
    reports = [lockstep(term, pair, LOCKSTEP_FUEL) for term in corpus]
    diverged = [r for r in reports if not r.all_related]
    assert not diverged, diverged[:3]
    return reports


def test_criterion_4_star_lockstep(gs_corpus):
    def work():
        reports = _lockstep_all(gs_corpus, "star")
        assert any(r.outcome == "fuel_exhausted" for r in reports)  # corpus exercises divergence too

    _report(4, f"star lock-step on {LOCKSTEP_TERMS} terms at fuel {LOCKSTEP_FUEL}, zero divergences", 60.0, work)


def test_criterion_5_diamond_lockstep(gs_corpus):
    def work():
        _lockstep_all(gs_corpus, "diamond")

    _report(5, f"diamond lock-step on {LOCKSTEP_TERMS} terms at fuel {LOCKSTEP_FUEL}, zero divergences", 60.0, work)


def test_criterion_6_composed_lockstep(gs_corpus):
    def work():
        _lockstep_all(gs_corpus, "composed")
        # independent confirmation that the outer machines stay in step
        for term in gs_corpus:
            ct_result = run(down(term), "ct", max_steps=LOCKSTEP_FUEL)
            gs_result = run(term, "gs", max_steps=LOCKSTEP_FUEL)
            assert (ct_result.kind, ct_result.steps) == (gs_result.kind, gs_result.steps), print_term(term, "gs")

    _report(6, "composed lock-step passes and the ct/gs machines halt at identical steps", None, work)


def test_criterion_7_determinism_and_no_stuck(gs_corpus):
    def work():
        initials = (initial_it, initial_gs, lambda t: initial_ct(down(t)))
        for term in gs_corpus:
            for make_initial in initials:
                state = make_initial(term)
                for _ in range(LOCKSTEP_FUEL + 1):
                    rules = applicable_rules(state)
                    assert len(rules) == 1, (print_term(term, "gs"), rules)
                    rule, successor = step(state)
                    assert rule != RULE_STUCK, print_term(term, "gs")
                    if rule == RULE_FINAL:
                        break
                    state = successor

    _report(7, "exactly one rule per reachable state and no stuck outcomes", None, work)


def test_criterion_8_golden_traces(corpus_dir):
    def work():
        manifest = json.loads((corpus_dir / "golden" / "manifest.json").read_text(encoding="utf-8"))
        assert len(manifest) >= 60
        for entry in manifest:
            source = corpus_dir / entry["source"]
            named = parse(source.read_text(encoding="utf-8"), "ct" if source.suffix == ".ct" else "gs")
            if source.suffix == ".ct":
                term = to_debruijn_ct(named)
            else:
                term = to_debruijn_gs(named)
                if entry["compiled"]:
                    term = down(term)
            result = run(term, entry["machine"], max_steps=entry["max_steps"], collect_trace=True)
            regenerated = "".join(
                json.dumps(
                    {
                        "step": step,
                        "machine": entry["machine"],
                        "rule": e.rule,
                        "head": e.head,
                        "stack_depth": e.stack_depth,
                        "mu_count": e.mu_count,
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
                for step, e in enumerate(result.events)
            )
            golden = (corpus_dir / "golden" / entry["golden"]).read_text(encoding="utf-8")
            assert regenerated == golden, entry["golden"]

    _report(8, "bundled corpus reproduces byte-identical golden traces", None, work)
