#!/usr/bin/env python3
"""Time each front-end and safety layer on term families of growing size.

    python3 scripts/layer_slopes.py [--repeat 7] [--ref REF]

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

With --ref, the files committed at git ref REF are exported (`git archive`,
as scripts/bench_pairs.py does) into a temporary directory, and its src/ is
imported beside the working tree's, in the same process. Each point is then
timed on both trees in turn, the tree that goes first alternating from
repeat to repeat, so a change of the host's load reaches both columns
alike. Each layer and family prints three rows: the working tree's, REF's,
and their ratio (working tree / REF, below 1 when the working tree is
faster).

Every layer runs at the default recursion limit. The workbench is imported
from the src/ directory next to this script, stdlib only otherwise.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, export_tree

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


def load(name: str, src: Path):
    """Import the coroutine_vm package under src as the module called name."""
    spec = importlib.util.spec_from_file_location(
        name, src / "coroutine_vm" / "__init__.py", submodule_search_locations=[str(src / "coroutine_vm")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def layers(cv) -> dict:
    """layer -> (the function timed, how its input is made from the source text), for package cv."""

    def named(text: str):
        return cv.parse(text, "ct")

    def index_ct(text: str):
        return cv.to_debruijn_ct(named(text))

    def index_gs(text: str):
        return cv.to_debruijn_gs(named(text))

    return {
        "parse": (named, str),
        "print_term": (lambda term: cv.print_term(term, "ct"), named),
        "to_debruijn_ct": (cv.to_debruijn_ct, named),
        "to_debruijn_gs": (cv.to_debruijn_gs, named),
        "is_safe": (cv.is_safe, named),
        "safe_named": (cv.safe_named, named),
        "safe_db": (cv.safe_db, index_ct),
        "is_closed_ct": (cv.is_closed_ct, index_ct),
        "is_scoped_gs": (cv.is_scoped_gs, index_gs),
        "down": (cv.down, index_gs),
        "lift": (cv.lift, index_ct),
    }


def best_times(calls: list, repeat: int) -> list[float]:
    """The best of repeat timings of each (function, argument) call, the calls
    taking turns within each repeat and the first of them alternating."""
    best = [math.inf] * len(calls)
    for r in range(repeat):
        for k in range(len(calls)) if r % 2 == 0 else reversed(range(len(calls))):
            function, argument = calls[k]
            gc.collect()
            start = time.perf_counter()
            function(argument)
            best[k] = min(best[k], time.perf_counter() - start)
    return best


def slope(xs: list[float], ys: list[float]) -> float:
    """The least-squares slope of log(ys) against log(xs)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=7, help="timings per point; the best is kept")
    ap.add_argument("--ref", help="also time the src/ of this git ref, beside the working tree's")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory(prefix="layer-slopes-") as tmp:
        trees = {"tree": load("coroutine_vm", ROOT / "src")}
        if args.ref is not None:
            try:
                export_tree(args.ref, Path(tmp))
                trees[args.ref] = load("coroutine_vm_ref", Path(tmp) / "src")
            except subprocess.CalledProcessError as exc:
                print(f"error: cannot export {args.ref}: {exc.stderr.decode().strip()}", file=sys.stderr)
                return 1
        report(trees, args.repeat)
    return 0


def report(trees: dict, repeat: int) -> None:
    """Time every layer and family on each tree, and print the table."""
    tables = {side: layers(cv) for side, cv in trees.items()}
    print(f"python {sys.version.split()[0]}, best of {repeat}, us/node at n = {', '.join(map(str, SIZES))}")
    print(f"{'layer':<16}{'family':<10}{'':<8}" + "".join(f"{n:>9}" for n in SIZES) + f"{'slope':>8}")
    for layer in tables["tree"]:
        for family in FAMILIES:
            nodes, seconds = [], {side: [] for side in trees}
            for n in SIZES:
                text, count = family(n)
                nodes.append(count)
                calls = [(function, make_input(text)) for function, make_input in (t[layer] for t in tables.values())]
                for side, best in zip(trees, best_times(calls, repeat)):
                    seconds[side].append(best)
            head = f"{layer:<16}{family.__name__:<10}"
            for side, times in seconds.items():
                per_node = "".join(f"{s / c * 1e6:>9.2f}" for s, c in zip(times, nodes))
                print(f"{head}{side[:7]:<8}{per_node}{slope(nodes, times):>8.2f}")
                head = " " * 26
            if len(trees) == 2:
                ratios = "".join(f"{a / b:>9.2f}" for a, b in zip(*seconds.values()))
                print(f"{head}{'ratio':<8}{ratios}")


if __name__ == "__main__":
    sys.exit(main())
