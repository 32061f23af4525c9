#!/usr/bin/env python3
"""Time each front-end and safety layer on term families of growing size.

    python3 scripts/layer_slopes.py [--repeat 7]

For each layer (parse, print_term, to_debruijn_ct, to_debruijn_gs, is_safe,
safe_named, safe_db, is_closed_ct, is_scoped_gs, down, lift) and each of four
safe families of about n nodes,

    binders   \\x0. \\x1. ... \\x(n-1). x0
    catches   \\x0. catch k0. ... \\x(n/2-1). catch k(n/2-1). throw k0 x0
    wide      \\x. x x ... x                        (n/2 uses of x)
    uses      \\x. \\y0. ... \\y(n/3-1). x x ... x   (n/3 uses of x)

at n = 400, 800, 1600 and 3200, it prints the best of --repeat timings in
microseconds per term node, and the least-squares slope of log(time) against
log(nodes). A slope of about 1 is a layer linear in the term; about 2 is
quadratic. `uses` puts n/3 uses of a binder n/3 levels out, so a layer that
scans the binders in scope at each variable reads a slope near 2 there.
Each layer's input is made outside its timing: the source text for parse,
the named term for print_term, the conversions and the named judgments,
the catch/throw index term for safe_db, is_closed_ct and lift, the
getctx/setctx index term for is_scoped_gs and down.

Every layer runs at the default recursion limit. The workbench is imported
from the src/ directory next to this script, stdlib only otherwise.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coroutine_vm.debruijn import to_debruijn_ct, to_debruijn_gs  # noqa: E402
from coroutine_vm.parser import parse  # noqa: E402
from coroutine_vm.safety import is_safe, safe_db, safe_named  # noqa: E402
from coroutine_vm.terms import is_closed_ct, is_scoped_gs, print_term  # noqa: E402
from coroutine_vm.translate import down, lift  # noqa: E402

SIZES = (400, 800, 1600, 3200)


def binders(n: int) -> tuple[str, int]:
    """The text of an n-binder chain and its node count."""
    return "".join(f"\\x{i}. " for i in range(n)) + "x0", n + 1


def catches(n: int) -> tuple[str, int]:
    """The text of an n/2-pair binder/catch chain and its node count."""
    pairs = n // 2
    return "".join(f"\\x{i}. catch k{i}. " for i in range(pairs)) + "throw k0 x0", 2 * pairs + 2


def wide(n: int) -> tuple[str, int]:
    """The text of one binder used n/2 times, and its node count."""
    uses = n // 2
    return "\\x. " + " ".join(["x"] * uses), 2 * uses


def uses(n: int) -> tuple[str, int]:
    """The text of n/3 uses of a binder under n/3 more binders, and its node count."""
    k = n // 3
    return "\\x. " + "".join(f"\\y{i}. " for i in range(k)) + " ".join(["x"] * k), 3 * k


FAMILIES = (binders, catches, wide, uses)


def named(text: str):
    return parse(text, "ct")


def index_ct(text: str):
    return to_debruijn_ct(named(text))


def index_gs(text: str):
    return to_debruijn_gs(named(text))


# layer -> (the function timed, how its input is made from the source text)
LAYERS = {
    "parse": (named, str),
    "print_term": (lambda term: print_term(term, "ct"), named),
    "to_debruijn_ct": (to_debruijn_ct, named),
    "to_debruijn_gs": (to_debruijn_gs, named),
    "is_safe": (is_safe, named),
    "safe_named": (safe_named, named),
    "safe_db": (safe_db, index_ct),
    "is_closed_ct": (is_closed_ct, index_ct),
    "is_scoped_gs": (is_scoped_gs, index_gs),
    "down": (down, index_gs),
    "lift": (lift, index_ct),
}


def best_time(function, argument, repeat: int) -> float:
    best = math.inf
    for _ in range(repeat):
        gc.collect()
        start = time.perf_counter()
        function(argument)
        best = min(best, time.perf_counter() - start)
    return best


def slope(xs: list[float], ys: list[float]) -> float:
    """The least-squares slope of log(ys) against log(xs)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=7, help="timings per point; the best is kept")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print(f"python {sys.version.split()[0]}, best of {args.repeat}, us/node at n = {', '.join(map(str, SIZES))}")
    print(f"{'layer':<16}{'family':<10}" + "".join(f"{n:>9}" for n in SIZES) + f"{'slope':>8}")
    for layer, (function, make_input) in LAYERS.items():
        for family in FAMILIES:
            nodes, seconds = [], []
            for n in SIZES:
                text, count = family(n)
                nodes.append(count)
                seconds.append(best_time(function, make_input(text), args.repeat))
            per_node = "".join(f"{s / c * 1e6:>9.2f}" for s, c in zip(seconds, nodes))
            print(f"{layer:<16}{family.__name__:<10}{per_node}{slope(nodes, seconds):>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
