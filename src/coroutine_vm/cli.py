"""Command-line front end.

Subcommands: parse, check, compile, run, bisim, gen. Exit codes are a stable
contract for CI:

    0  success / safe / related
    1  parse, scope, or safety failure (and usage errors)
    2  stuck run or diverged lock-step check
    3  fuel exhausted

Traces and lock-step reports serialize to JSON with fixed field names; JSON
output is one object per line, compact, keys sorted, so golden files compare
byte-for-byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from pathlib import Path

from . import bisim as bisim_mod
from . import gen as gen_mod
from .debruijn import to_debruijn_ct, to_debruijn_gs
from .errors import WorkbenchError
from .machines import CALCULUS, DEFAULT_MAX_STEPS, MAX_STEPS_ENV_VAR, trace
from .parser import parse
from .safety import is_safe, safe_db, safe_named
from .terms import print_term
from .translate import down, lift

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_STUCK_OR_DIVERGED = 2
EXIT_FUEL = 3


def _calculus_of(path: Path, explicit: str | None) -> str:
    if explicit:
        return explicit
    if path.suffix == ".ct":
        return "ct"
    if path.suffix == ".gs":
        return "gs"
    raise WorkbenchError(f"cannot infer calculus from {path.name!r}; pass --calculus")


def _load(path: Path, calculus: str):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise WorkbenchError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise WorkbenchError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse(text, calculus)


def _printer(machine: str, fmt: str):
    """An emit for trace that prints each event as its line; it counts the steps, since a step is its event's index."""
    steps = itertools.count()
    if fmt == "json":
        return lambda event: print(event.to_json(next(steps), machine))
    return lambda event: print(
        f"step {next(steps):>4}  {machine}  {event.rule:<13} "
        f"stack={event.stack_depth} labels={event.mu_count}  {event.head}"
    )

# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_parse(args) -> int:
    path = Path(args.file)
    calculus = _calculus_of(path, args.calculus)
    term = _load(path, calculus)
    print(print_term(term, calculus))
    return EXIT_OK


def cmd_check(args) -> int:
    path = Path(args.file)
    calculus = _calculus_of(path, args.calculus)
    named = _load(path, calculus)
    if calculus == "gs":
        term = to_debruijn_gs(named)  # raises with the visibility error on unsafe input
        print(print_term(term, "gs"))
        return EXIT_OK

    by_use_sets = is_safe(named)
    by_visibility = safe_named(named)
    indexed = to_debruijn_ct(named)
    by_indices = safe_db(indexed)
    verdicts = f"use-sets={by_use_sets} visibility={by_visibility} indices={by_indices}"
    if not (by_use_sets == by_visibility == by_indices):
        # The three judgments are proved equivalent; disagreement is a bug.
        print(f"internal disagreement: {verdicts}", file=sys.stderr)
        return EXIT_STUCK_OR_DIVERGED
    safe = by_use_sets
    print(f"{'safe' if safe else 'unsafe'} ({verdicts})")
    if args.lift:
        if safe:
            print(print_term(lift(indexed), "gs"))
        else:
            try:
                lift(indexed)
            except WorkbenchError as exc:
                print(f"lift failed: {exc}")
    return EXIT_OK if safe else EXIT_INPUT


def cmd_compile(args) -> int:
    path = Path(args.file)
    named = _load(path, "gs")
    compiled = down(to_debruijn_gs(named))
    if not safe_db(compiled):
        # down is safe by construction; an unsafe image is a bug.
        print(f"internal error: translation produced an unsafe term: {print_term(compiled, 'ct')}", file=sys.stderr)
        return EXIT_STUCK_OR_DIVERGED
    print(print_term(compiled, "ct"))
    return EXIT_OK


def cmd_run(args) -> int:
    path = Path(args.file)
    calculus = _calculus_of(path, args.calculus)
    machine = args.machine or calculus
    if CALCULUS[machine] != calculus:
        raise WorkbenchError(
            f"the {machine} machine does not run {calculus} terms (compile first, or pick another machine)"
        )
    named = _load(path, calculus)
    term = to_debruijn_ct(named) if calculus == "ct" else to_debruijn_gs(named)
    result = trace(term, machine, _printer(machine, args.format) if args.trace else None, args.max_steps)
    if result.kind == "final":
        print(f"final after {result.steps} steps: {print_term(result.closure.term, CALCULUS[machine])}")
        return EXIT_OK
    if result.kind == "stuck":
        print(f"stuck after {result.steps} steps: {result.reason}")
        return EXIT_STUCK_OR_DIVERGED
    print(f"fuel exhausted after {result.steps} steps")
    return EXIT_FUEL


def _bisim_one(path: Path, pair: str, max_steps: int | None, fmt: str) -> int:
    named = _load(path, "gs")
    report = bisim_mod.lockstep(to_debruijn_gs(named), pair, max_steps)
    if fmt == "json":
        print(json.dumps({"file": path.name, **report.to_dict()}, sort_keys=True, separators=(",", ":")))
    else:
        line = f"{path.name}: {report.outcome} (pair={report.pair}, steps={report.steps_checked})"
        if not report.all_related:
            line += f"\n  at step {report.diverged_at}: {report.detail}\n  it-image: {report.left}\n  actual:   {report.right}"
        print(line)
    return EXIT_OK if report.all_related else EXIT_STUCK_OR_DIVERGED


def cmd_bisim(args) -> int:
    path = Path(args.file)
    if args.all:
        if not path.is_dir():
            raise WorkbenchError(f"--all needs a directory, got {path}")
        files = sorted(path.glob("*.gs"))
        if not files:
            raise WorkbenchError(f"no .gs files in {path}")
        worst = EXIT_OK
        for file in files:
            worst = max(worst, _bisim_one(file, args.pair, args.max_steps, args.format))
        return worst
    return _bisim_one(path, args.pair, args.max_steps, args.format)


def cmd_gen(args) -> int:
    if args.size < 1:
        raise WorkbenchError("--size must be at least 1")
    if args.count < 0:
        raise WorkbenchError("--count must not be negative")
    if args.unsafe_ok and args.calculus != "ct":
        raise WorkbenchError("--unsafe-ok only applies to --calculus ct")
    rng = random.Random(args.seed)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise WorkbenchError(f"cannot create directory {out_dir}: {exc.strerror or exc}") from None
    unsafe = 0
    for i in range(args.count):
        if args.calculus == "gs":
            term = gen_mod.gen_named_gs(rng, args.size)
        else:
            term = gen_mod.gen_named_ct(rng, args.size, unsafe_ok=args.unsafe_ok)
            if args.unsafe_ok and not is_safe(term):
                unsafe += 1
        text = print_term(term, args.calculus)
        if out_dir:
            out_file = out_dir / f"gen_{args.seed}_{i:03}.{args.calculus}"
            try:
                out_file.write_text(text + "\n", encoding="utf-8")
            except OSError as exc:
                raise WorkbenchError(f"cannot write {out_file}: {exc.strerror or exc}") from None
        else:
            print(text)
    if args.unsafe_ok:
        print(f"unsafe terms: {unsafe}/{args.count}", file=sys.stderr)
    return EXIT_OK

# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="coroutine-vm", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    def add_file_cmd(name, func, help_text, lift=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        p.add_argument("--calculus", choices=("ct", "gs"), help="override the extension-based choice")
        if lift:
            p.add_argument("--lift", action="store_true", help="also print the getctx/setctx source of a safe term")
        p.set_defaults(func=func)
        return p

    add_file_cmd("parse", cmd_parse, "parse a term file and print it back")
    add_file_cmd("check", cmd_check, "run the safety checks (ct) or the scope/visibility check (gs)", lift=True)

    p_compile = sub.add_parser("compile", help="translate a getctx/setctx file to a safe catch/throw term")
    p_compile.add_argument("file")
    p_compile.set_defaults(func=cmd_compile)

    fuel = dict(type=int, default=None, help=f"fuel (default ${MAX_STEPS_ENV_VAR} or {DEFAULT_MAX_STEPS})")
    p_run = sub.add_parser("run", help="execute a term on one of the machines")
    p_run.add_argument("file")
    p_run.add_argument("--calculus", choices=("ct", "gs"))
    p_run.add_argument("--machine", choices=("ct", "gs", "it"))
    p_run.add_argument("--max-steps", **fuel)
    p_run.add_argument("--trace", action="store_true", help="print one event per transition")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.set_defaults(func=cmd_run)

    p_bisim = sub.add_parser("bisim", help="drive the machines in lock step and compare states")
    p_bisim.add_argument("file", help="a .gs file, or a directory with --all")
    p_bisim.add_argument("--pair", choices=bisim_mod.PAIRS, default="composed")
    p_bisim.add_argument("--max-steps", **fuel)
    p_bisim.add_argument("--all", action="store_true", help="check every .gs file in a directory")
    p_bisim.add_argument("--format", choices=("text", "json"), default="text")
    p_bisim.set_defaults(func=cmd_bisim)

    p_gen = sub.add_parser("gen", help="emit random closed terms")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--size", type=int, default=20)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--calculus", choices=("ct", "gs"), default="gs")
    p_gen.add_argument("--unsafe-ok", action="store_true", help="(ct only) do not enforce visibility")
    p_gen.add_argument("--out-dir", help="write one file per term instead of printing")
    p_gen.set_defaults(func=cmd_gen)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:  # the reader went away; keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
