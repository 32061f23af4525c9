"""The four workloads: their inputs, one op, the check of each op's result,
and the figures each one reports.

Every op goes through `L(layer, fn, *args)`, which is a plain call in the
untraced run and a child span in the traced run, so both runs execute the
same code. Checks run outside the timed region and use oracles that do not
come from the code under test wherever one exists: verdicts known by
construction, identities between independent functions, and step counts of a
plain machine run.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import inputs as gen

RULE_CAPTURE = "catch_or_get"
RULE_RESTORE = "throw_or_set"


@dataclass
class Figure:
    """An extra end-to-end figure printed by name, outside the gated set."""

    name: str
    value: float
    unit: str
    note: str = ""


@dataclass
class Stats:
    """Steps and seconds per key, summed by the checks of one pass."""

    steps: dict[str, int] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, steps: int, seconds: float):
        self.steps[key] = self.steps.get(key, 0) + steps
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds


class Modules:
    """The workbench modules the benchmark calls, imported once."""

    def __init__(self):
        from coroutine_vm import bisim, debruijn, errors, machines, parser, safety, terms, translate

        self.bisim, self.debruijn, self.errors, self.machines = bisim, debruijn, errors, machines
        self.parser, self.safety, self.terms, self.translate = parser, safety, terms, translate


def same_term(a, b) -> bool:
    """Structural equality of index terms, iterative so depth is no limit.

    Written here rather than using `==` (recursive) or `bisim.deep_eq` (code
    under test).
    """
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, int):
            if x != y:
                return False
            continue
        for name in type(x).__match_args__:
            todo.append((getattr(x, name), getattr(y, name)))
    return True


# ---------------------------------------------------------------------------
# Verdict pipelines, shared by corpus_verify and deep_terms
# ---------------------------------------------------------------------------


def verdict_ct(cv: Modules, L, text: str):
    """parse, index, the three judgments, then lift and down when lift succeeds."""
    named = L("parser", cv.parser.parse, text, "ct")
    db = L("debruijn", cv.debruijn.to_debruijn_ct, named)
    verdicts = (
        L("safety.is_safe", cv.safety.is_safe, named),
        L("safety.safe_named", cv.safety.safe_named, named),
        L("safety.safe_db", cv.safety.safe_db, db),
    )
    try:
        lifted = L("translate.lift", cv.translate.lift, db)
    except cv.errors.NotSafeError:
        return db, verdicts, None, None
    return db, verdicts, lifted, L("translate.down", cv.translate.down, lifted)


def check_ct(out, expected_safe: bool) -> bool:
    db, verdicts, lifted, back = out
    if any(v is not expected_safe for v in verdicts):
        return False
    if (lifted is not None) != expected_safe:
        return False
    return lifted is None or same_term(back, db)


def verdict_gs(cv: Modules, L, text: str, fuel: int | None):
    """parse, index, down, lift, and (with a fuel) composed lock-step."""
    named = L("parser", cv.parser.parse, text, "gs")
    db = L("debruijn", cv.debruijn.to_debruijn_gs, named)
    compiled = L("translate.down", cv.translate.down, db)
    back = L("translate.lift", cv.translate.lift, compiled)
    report = None if fuel is None else L("bisim.lockstep", cv.bisim.lockstep, db, "composed", fuel)
    return db, back, report


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class CorpusVerify:
    """Many small terms, each taken to a verdict: per-call costs dominate.

    Every op gets a fresh term from the seeded stream (the head made at set-up,
    then the rest one at a time, outside the timed region), so the tail
    percentile covers many distinct terms instead of repeats of a few.
    """

    name = "corpus_verify"
    round = 1

    def __init__(self, cv: Modules, seed: int, smoke: bool):
        self.cv = cv
        self.seed = seed
        self.inputs = list(itertools.islice(gen.corpus_stream(seed), 40 if smoke else gen.CORPUS_HEAD))
        self.fuel = gen.CORPUS_FUEL
        self.stats = Stats()
        self._rest = None
        self._current = (-1, None)

    def meta(self, i: int) -> gen.TermInput:
        """Term i of the stream; past the head, i must count up from it."""
        if i < len(self.inputs):
            return self.inputs[i]
        if self._current[0] != i:
            if i == len(self.inputs):  # each pass re-reads the stream from here
                self._rest = itertools.islice(gen.corpus_stream(self.seed), i, None)
            self._current = (i, next(self._rest))
        return self._current[1]

    def op(self, i: int, L):
        t = self.meta(i)
        if t.calculus == "ct":
            return verdict_ct(self.cv, L, t.text)
        return verdict_gs(self.cv, L, t.text, self.fuel)

    def check(self, i: int, out) -> bool:
        t = self.meta(i)
        if t.calculus == "ct":
            return check_ct(out, t.safe)
        db, back, report = out
        plain = self.cv.machines.run(db, "gs", self.fuel)
        expected = ("both_halted" if plain.kind == "final" else plain.kind, plain.steps)
        self.stats.add("lockstep", report.steps_checked, 0.0)
        return same_term(back, db) and (report.outcome, report.steps_checked) == expected

    def figures(self) -> list[Figure]:
        return []


class DeepTerms:
    """The deep families of the size sweep: quadratic costs show here."""

    name = "deep_terms"

    def __init__(self, cv: Modules, seed: int, smoke: bool):
        self.cv = cv
        self.inputs = gen.deep_inputs(seed, (10, 20, 40) if smoke else gen.DEEP_DEPTHS)
        self.round = len(self.inputs)
        self.stats = Stats()

    def meta(self, i: int) -> gen.TermInput:
        return self.inputs[i % len(self.inputs)]

    def op(self, i: int, L):
        t = self.meta(i)
        if t.calculus == "ct":
            return verdict_ct(self.cv, L, t.text)
        return verdict_gs(self.cv, L, t.text, None)

    def check(self, i: int, out) -> bool:
        t = self.meta(i)
        if t.calculus == "ct":
            return check_ct(out, t.safe)
        db, back, _ = out
        return same_term(back, db)

    def figures(self) -> list[Figure]:
        return []


MACHINES = ("ct", "gs", "it")


class _Sweep:
    """omega and ping-pong at one fixed fuel; one op is a sweep over both.

    The terms are parsed and indexed at set-up, so an op does the same work
    every time.
    """

    round = 1
    full_fuel = 0

    def __init__(self, cv: Modules, seed: int, smoke: bool):
        self.cv = cv
        self.inputs = gen.machine_inputs(seed)
        self.fuel = 200 if smoke else self.full_fuel
        self.terms = []  # (family, gs index term, its down image)
        for t in self.inputs:
            db = cv.debruijn.to_debruijn_gs(cv.parser.parse(t.text, "gs"))
            self.terms.append((t.family, db, cv.translate.down(db)))
        self.stats = Stats()
        self._meta = gen.TermInput("", "gs", sum(t.nodes for t in self.inputs), family="sweep")

    def meta(self, i: int) -> gen.TermInput:
        return self._meta


class MachineRuns(_Sweep):
    """`run` on each machine, untraced and traced: 12 runs per sweep."""

    name = "machine_runs"
    full_fuel = gen.MACHINE_FUEL

    def __init__(self, cv: Modules, seed: int, smoke: bool):
        super().__init__(cv, seed, smoke)
        self._rule_counts: dict[str, tuple[int, int]] = {}

    def op(self, i: int, L):
        run = self.cv.machines.run
        clock = time.perf_counter
        out = []
        for family, db, compiled in self.terms:
            for m in MACHINES:
                term = compiled if m == "ct" else db
                t0 = clock()
                plain = L(f"machines.{m}.run", run, term, m, self.fuel)
                t1 = clock()
                traced = L(f"machines.{m}.traced_run", run, term, m, self.fuel, collect_trace=True)
                out.append((family, m, plain, t1 - t0, traced, clock() - t1))
        return out

    def check(self, i: int, out) -> bool:
        ok = True
        rules: dict[str, list[tuple[str, ...]]] = {}
        for family, m, plain, plain_s, traced, traced_s in out:
            ok &= plain.kind == traced.kind == "fuel_exhausted"
            ok &= plain.steps == traced.steps == len(traced.events) == self.fuel
            rules.setdefault(family, []).append(tuple(e.rule for e in traced.events))
            self.stats.add(f"{family}.{m}.run", plain.steps, plain_s)
            self.stats.add(f"{family}.{m}.traced", traced.steps, traced_s)
        for family, seqs in rules.items():
            ok &= len(seqs) == len(MACHINES) and all(s == seqs[0] for s in seqs)
            counts = (seqs[0].count(RULE_CAPTURE), seqs[0].count(RULE_RESTORE))
            ok &= self._rule_counts.setdefault(family, counts) == counts
        return ok

    def figures(self) -> list[Figure]:
        out = []
        for traced, label in ((False, "run_steps_per_s"), (True, "traced_steps_per_s")):
            kind = "traced" if traced else "run"
            keys = [k for k in self.stats.steps if k.endswith("." + kind)]
            steps = sum(self.stats.steps[k] for k in keys)
            secs = sum(self.stats.seconds[k] for k in keys)
            out.append(Figure(label, steps / secs if secs else 0.0, "steps/s", "summed over the 6 runs"))
            for k in keys:
                family, m, _ = k.split(".")
                out.append(Figure(f"  {family}.{m}.{kind}", self.stats.steps[k] / self.stats.seconds[k], "steps/s"))
        for family, (captures, restores) in self._rule_counts.items():
            out.append(Figure(f"  {family}.captures_restores_share", (captures + restores) / self.fuel, "fraction",
                              f"{captures} captures + {restores} restores per {self.fuel}-step run"))
        return out

    def rule_counts(self) -> tuple[int, int]:
        """Captures and restores over one sweep's traced runs, from trace events."""
        per_family = list(self._rule_counts.values())
        return (len(MACHINES) * sum(c for c, _ in per_family), len(MACHINES) * sum(r for _, r in per_family))


class LockstepRuns(_Sweep):
    """Composed lock-step: 2 calls per sweep.

    Its own process, because peak RSS is a high-water mark: next to the
    traced runs of machine_runs, their event lists would hide it.
    """

    name = "lockstep_runs"
    full_fuel = gen.LOCKSTEP_FUEL

    def __init__(self, cv: Modules, seed: int, smoke: bool):
        super().__init__(cv, seed, smoke)
        self._oracle: dict[str, int] = {}

    def op(self, i: int, L):
        lockstep = self.cv.bisim.lockstep
        clock = time.perf_counter
        out = []
        for family, db, _ in self.terms:
            t0 = clock()
            report = L("bisim.lockstep", lockstep, db, "composed", self.fuel)
            out.append((family, db, report, clock() - t0))
        return out

    def check(self, i: int, out) -> bool:
        ok = True
        for family, db, report, secs in out:
            if family not in self._oracle:
                self._oracle[family] = self.cv.machines.run(db, "gs", self.fuel).steps
            ok &= report.outcome == "fuel_exhausted" and report.steps_checked == self._oracle[family]
            self.stats.add("lockstep", report.steps_checked, secs)
            self.stats.add(family, report.steps_checked, secs)
        return ok

    def figures(self) -> list[Figure]:
        steps, secs = self.stats.steps.get("lockstep", 0), self.stats.seconds.get("lockstep", 0.0)
        out = [Figure("lockstep_steps_per_s", steps / secs if secs else 0.0, "steps/s", "composed, summed")]
        for family, _, _ in self.terms:
            if self.stats.steps.get(family):
                out.append(Figure(f"  {family}.us_per_step",
                                  self.stats.seconds[family] / self.stats.steps[family] * 1e6, "us/step"))
        return out


WORKLOADS = {w.name: w for w in (CorpusVerify, DeepTerms, MachineRuns, LockstepRuns)}
