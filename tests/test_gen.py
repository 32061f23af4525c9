import random
import time

import pytest

from coroutine_vm.debruijn import to_debruijn_gs
from coroutine_vm.gen import gen_ct_db, gen_gs_db, gen_named_ct, gen_named_gs
from coroutine_vm.safety import is_safe, safe_db
from coroutine_vm.terms import NCatch, NLam, NVar, is_closed_ct, is_scoped_gs, print_term
from coroutine_vm.translate import down


def test_deterministic_per_seed():
    a = [gen_named_gs(random.Random(99), 20) for _ in range(5)]
    b = [gen_named_gs(random.Random(99), 20) for _ in range(5)]
    assert a == b
    assert gen_ct_db(random.Random(1), 20) == gen_ct_db(random.Random(1), 20)


@pytest.mark.parametrize("seed", range(1, 21))
def test_seeded_corpus_is_regenerated_byte_for_byte(corpus_dir, seed):
    # the recipe of scripts/regen_corpus.py for corpus/gen
    expected = (corpus_dir / "gen" / f"seed_{seed:02}.gs").read_text(encoding="utf-8")
    assert print_term(gen_named_gs(random.Random(seed), 24), "gs") + "\n" == expected


def test_size_one_is_identity_shaped():
    for seed in range(20):
        term = gen_named_ct(random.Random(seed), 1)
        assert isinstance(term, NLam)
        assert isinstance(term.body, NVar)


def test_named_ct_safe_by_default():
    rng = random.Random(41)
    for _ in range(200):
        assert is_safe(gen_named_ct(rng, rng.randint(1, 30)))


def test_named_ct_unsafe_ok_covers_both_classes():
    rng = random.Random(42)
    verdicts = {is_safe(gen_named_ct(rng, rng.randint(5, 30), unsafe_ok=True)) for _ in range(300)}
    assert verdicts == {True, False}


def test_named_gs_translates_cleanly():
    rng = random.Random(43)
    for _ in range(200):
        term = gen_named_gs(rng, rng.randint(1, 30))
        indexed = to_debruijn_gs(term)  # would raise if not visibility-safe
        assert is_scoped_gs(indexed)
        assert safe_db(down(indexed))


def test_gs_db_scoped_by_construction():
    rng = random.Random(44)
    for _ in range(300):
        term = gen_gs_db(rng, rng.randint(1, 40))
        assert is_scoped_gs(term)
        down(term)  # must not raise


def test_ct_db_closed_by_construction():
    rng = random.Random(45)
    verdicts = set()
    for _ in range(300):
        term = gen_ct_db(rng, rng.randint(1, 30))
        assert is_closed_ct(term)
        verdicts.add(safe_db(term))
    assert verdicts == {True, False}


class _Always(random.Random):
    """Draws the constructor `kind` whenever it may be drawn."""

    kind = "lam"

    def choices(self, population, weights=None, *, cum_weights=None, k=1):
        if self.kind in population:
            return [self.kind] * k
        return super().choices(population, weights, cum_weights=cum_weights, k=k)


class _AlwaysLam(_Always):
    """A term of size n nests n - 1 binders."""


class _AlwaysCapture(_Always):
    """A term of size n nests n - 1 captures."""

    kind = "capture"


@pytest.mark.parametrize(
    "generate",
    [gen_named_gs, gen_named_ct, lambda rng, size: gen_named_ct(rng, size, unsafe_ok=True)],
    ids=["gs", "ct", "ct-unsafe-ok"],
)
def test_a_deep_draw_needs_no_recursion(generate):
    term = generate(_AlwaysLam(0), 5001)
    depth = 0
    while type(term) is NLam:
        assert term.param == f"x{depth}"
        term, depth = term.body, depth + 1
    assert depth == 5000 and type(term) is NVar


@pytest.mark.parametrize("rng_class, binder", [(_AlwaysLam, NLam), (_AlwaysCapture, NCatch)], ids=["lam", "capture"])
def test_a_deep_draw_takes_linear_time(rng_class, binder):
    # a binder or a capture adds one cell to what is in scope rather than
    # copying it: 100,000 of them take about 0.2 s, against about 50 s by
    # copying
    start = time.perf_counter()
    term = gen_named_ct(rng_class(0), 100_001)
    assert time.perf_counter() - start < 10
    depth = 0
    while type(term) is binder:
        term, depth = term.body, depth + 1
    assert depth == 100_000
