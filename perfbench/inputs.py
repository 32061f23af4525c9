"""Seeded workload inputs, written as source text.

Nothing here imports coroutine_vm: the inputs, their node counts and the
verdicts known by construction come from this file alone, so a change to the
workbench's own generators (or to any layer under test) cannot change what
is measured. `digest` hashes what a workload has made before its first op,
so two commits can be shown to have measured identical inputs; for
corpus_verify that is the head of an endless seeded stream, and every run
measures a prefix of that same stream.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Iterator

# corpus_verify: how many terms of the stream are made before the first op
# (and hashed into the digest), their size range, and the fuel of each
# lock-step check.
CORPUS_HEAD = 8000
CORPUS_SIZES = (1, 60)
CORPUS_FUEL = 200

# deep_terms: prefix-form counts of the sweep. 800 is the deepest chain the
# workbench parses at the interpreter's default recursion limit.
DEEP_DEPTHS = (100, 200, 400, 800)

# machine_runs / lockstep_runs: the fixed fuel of every run.
MACHINE_FUEL = 5000
LOCKSTEP_FUEL = 5000


@dataclass(frozen=True)
class TermInput:
    """One input term: its text, calculus, node count and known facts.

    `safe` is the verdict known by construction, or None where the input's
    generator does not decide it. `family` and `depth` name the deep_terms
    sweep point.
    """

    text: str
    calculus: str
    nodes: int
    safe: bool | None = None
    family: str = ""
    depth: int = 0


# ---------------------------------------------------------------------------
# Printing (independent of coroutine_vm.terms.print_term)
# ---------------------------------------------------------------------------
# Terms are nested tuples: ("var", x) ("app", f, a) ("lam", x, b)
# ("capture", k, b) ("restore", k, b). Capture/restore print as catch/throw
# or getctx/setctx depending on the calculus.

_KEYWORDS = {"ct": ("catch", "throw"), "gs": ("getctx", "setctx")}


def render(term: tuple, calculus: str) -> str:
    capture_kw, restore_kw = _KEYWORDS[calculus]
    out: list[str] = []
    # Explicit stack of (node, parenthesize) or literal strings.
    todo: list = [(term, False)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, paren = item
        if paren:
            out.append("(")
            todo.append(")")
        kind = node[0]
        if kind == "var":
            out.append(node[1])
        elif kind == "app":
            fn, arg = node[1], node[2]
            todo.append((arg, arg[0] != "var"))
            todo.append(" ")
            todo.append((fn, fn[0] not in ("var", "app")))
        elif kind == "lam":
            out.append(f"\\{node[1]}. ")
            todo.append((node[2], False))
        elif kind == "capture":
            out.append(f"{capture_kw} {node[1]}. ")
            todo.append((node[2], False))
        else:
            out.append(f"{restore_kw} {node[1]} ")
            todo.append((node[2], False))
    return "".join(out)


# ---------------------------------------------------------------------------
# corpus_verify
# ---------------------------------------------------------------------------

_WEIGHTS = {"var": 5, "app": 4, "lam": 3, "capture": 2, "restore": 2}


class _Gen:
    """Random closed terms with globally distinct binder names.

    `visible` is the variable list of the current coroutine (lam pushes,
    capture snapshots it per label, restore reinstates the snapshot), which
    is the visibility discipline: a variable drawn from outside it makes the
    term unsafe. With `safe_only` every variable is drawn from it (the gs
    inputs); otherwise from every binder in scope (the ct inputs), and
    `unsafe` records whether any draw fell outside.
    """

    def __init__(self, rng: random.Random, safe_only: bool):
        self.rng = rng
        self.safe_only = safe_only
        self.vars = 0
        self.labels = 0
        self.nodes = 0
        self.unsafe = False

    def term(self, size, visible, bound, labels):
        rng = self.rng
        self.nodes += 1
        pool = visible if self.safe_only else bound
        choices = []
        if pool:
            choices.append("var")
        if size >= 3:
            choices.append("app")
        if size >= 2:
            choices += ["lam", "capture"]
            if labels:
                choices.append("restore")
        if size <= 1 and pool:
            choices = ["var"]
        elif not choices:
            choices = ["lam"]
        kind = rng.choices(choices, weights=[_WEIGHTS[c] for c in choices])[0]
        if kind == "var":
            name = rng.choice(pool)
            if name not in visible:
                self.unsafe = True
            return ("var", name)
        if kind == "app":
            left = rng.randint(1, size - 2)
            fn = self.term(left, visible, bound, labels)
            return ("app", fn, self.term(size - 1 - left, visible, bound, labels))
        if kind == "lam":
            name = f"x{self.vars}"
            self.vars += 1
            return ("lam", name, self.term(size - 1, (name,) + visible, (name,) + bound, labels))
        if kind == "capture":
            label = f"k{self.labels}"
            self.labels += 1
            return ("capture", label, self.term(size - 1, visible, bound, ((label, visible),) + labels))
        label, snapshot = labels[rng.randrange(len(labels))]
        return ("restore", label, self.term(size - 1, snapshot, bound, labels))


def corpus_stream(seed: int) -> Iterator[TermInput]:
    """Endless alternating ct and gs terms, sizes uniform over CORPUS_SIZES.

    ct terms are arbitrary closed terms (a mix of safe and unsafe, with the
    verdict known by construction); gs terms respect visibility, so they
    convert and translate without error.
    """
    rng = random.Random(f"corpus_verify:{seed}")
    for i in itertools.count():
        calculus = "ct" if i % 2 == 0 else "gs"
        gen = _Gen(rng, safe_only=calculus == "gs")
        term = gen.term(rng.randint(*CORPUS_SIZES), (), (), ())
        yield TermInput(render(term, calculus), calculus, gen.nodes, safe=not gen.unsafe)


# ---------------------------------------------------------------------------
# deep_terms
# ---------------------------------------------------------------------------


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    # Distinct, equally long names, so the seed moves no cost.
    width = len(str(count))
    offsets = rng.sample(range(10**width, 10 ** (width + 1)), count)
    return [f"{prefix}{n}" for n in offsets]


def deep_inputs(seed: int, depths: tuple[int, ...] = DEEP_DEPTHS) -> list[TermInput]:
    """Families with known verdicts, one of each per depth of the sweep.

    depth counts prefix forms (binders, catch/getctx, throw/setctx):
      binders     \\x0. ... \\xn. xi                         safe
      catch_safe  \\x0. catch k0. ... throw kj xi (i <= j)    safe
      catch_unsafe \\x0. catch k0. ... \\y. throw kj y         unsafe
      wide        \\x. x x ... x  (depth applications)       safe
      ctx_chain   \\x0. getctx k0. ... setctx kj xi (i <= j)  gs, safe
    The seed picks binder names, which binder or label the tail refers to,
    and the order of the round; the shapes, and so the cost, are fixed.
    """
    rng = random.Random(f"deep_terms:{seed}")
    out = []
    for depth in depths:
        xs = _names(rng, "x", depth)
        out.append(TermInput(
            "".join(f"\\{x}. " for x in xs) + rng.choice(xs), "ct", depth + 1,
            safe=True, family="binders", depth=depth))

        pairs = depth // 2
        xs, ks = _names(rng, "x", pairs), _names(rng, "k", pairs)
        chain = "".join(f"\\{x}. catch {k}. " for x, k in zip(xs, ks))
        j = rng.randrange(pairs)
        i = rng.randrange(j + 1)
        out.append(TermInput(
            chain + f"throw {ks[j]} {xs[i]}", "ct", 2 * pairs + 2,
            safe=True, family="catch_safe", depth=depth))
        y = f"y{rng.randrange(10)}"
        out.append(TermInput(
            chain + f"\\{y}. throw {ks[rng.randrange(pairs)]} {y}", "ct", 2 * pairs + 3,
            safe=False, family="catch_unsafe", depth=depth))

        x = _names(rng, "x", 1)[0]
        out.append(TermInput(
            f"\\{x}. " + " ".join([x] * (depth + 1)), "ct", 2 * depth + 2,
            safe=True, family="wide", depth=depth))

        xs, ks = _names(rng, "x", pairs), _names(rng, "k", pairs)
        chain = "".join(f"\\{x}. getctx {k}. " for x, k in zip(xs, ks))
        j = rng.randrange(pairs)
        i = rng.randrange(j + 1)
        out.append(TermInput(
            chain + f"setctx {ks[j]} {xs[i]}", "gs", 2 * pairs + 2,
            safe=True, family="ctx_chain", depth=depth))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# machine_runs / lockstep_runs
# ---------------------------------------------------------------------------


def machine_inputs(seed: int) -> list[TermInput]:
    """omega and the coroutine ping-pong, as getctx/setctx text.

    Both diverge, so every run ends by fuel. The seed picks only the names.
    """
    rng = random.Random(f"machines:{seed}")
    x, y, k = _names(rng, "x", 1)[0], _names(rng, "y", 1)[0], _names(rng, "k", 1)[0]
    omega = TermInput(f"(\\{x}. {x} {x}) (\\{y}. {y} {y})", "gs", 9, family="omega")
    pingpong = TermInput(
        f"(\\{x}. {x} {x}) (\\{y}. getctx {k}. setctx {k} ({y} {y}))", "gs", 11, family="pingpong")
    return [omega, pingpong]


def digest(inputs: list[TermInput]) -> str:
    """sha256 over every input field, in order."""
    h = hashlib.sha256()
    for t in inputs:
        h.update(json.dumps([t.text, t.calculus, t.nodes, t.safe, t.family, t.depth]).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
