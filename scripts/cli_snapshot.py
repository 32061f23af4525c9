#!/usr/bin/env python3
"""Compare the CLI's output on the corpus between a git ref and the working tree.

    python3 scripts/cli_snapshot.py [--ref HEAD]

The committed files of --ref are exported (`git archive`) into a temporary
directory. Every command below then runs twice, as the `coroutine-vm` entry
point in a fresh process: once on the ref's src/ and once on the working
tree's, uncommitted edits included. Both run in the working tree, on the
same corpus files, with the same environment. Per corpus file
(corpus/*.ct, corpus/*.gs, corpus/gen/*.gs):

  * parse;
  * check, with --lift on a .ct file;
  * compile, on a .gs file;
  * run --trace on each machine of the file's calculus (ct for .ct; gs and
    it for .gs), in text and json, at --max-steps 2000;
  * run untraced on each of those machines at --max-steps 200000, so that
    the untraced loop and the end state of a long run are compared too;
  * bisim in text and json at --max-steps 20000.

Then `bisim --all corpus/gen`, two long traces and a few `gen` commands.
The long traces are `run --trace --format json --max-steps 200000` of
corpus/omega.gs on it and of corpus/omega.ct on ct, 100 times the length
of the 2000-step goldens. It prints how many commands it compared and each
command whose stdout, stderr or exit code differs, and exits 1 if any does.
Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_tree

ENTRY = "import sys; from coroutine_vm.cli import main; sys.exit(main())"

LONG_TRACE_COMMANDS = [
    ["run", name, "--machine", machine, "--trace", "--format", "json", "--max-steps", "200000"]
    for name, machine in (("corpus/omega.gs", "it"), ("corpus/omega.ct", "ct"))
]

GEN_COMMANDS = [
    ["gen", "--seed", "1", "--size", "20", "--count", "5"],
    ["gen", "--seed", "2", "--size", "200", "--count", "3"],
    ["gen", "--calculus", "ct", "--seed", "3", "--size", "30", "--count", "5"],
    ["gen", "--calculus", "ct", "--unsafe-ok", "--seed", "4", "--size", "25", "--count", "10"],
    ["gen", "--size", "0"],
    ["gen", "--count", "-1"],
    ["gen", "--unsafe-ok"],
]


def commands() -> list[list[str]]:
    """Every command to compare, as CLI arguments relative to the repository root."""
    files = sorted(ROOT.glob("corpus/*.ct")) + sorted(ROOT.glob("corpus/*.gs")) + sorted(ROOT.glob("corpus/gen/*.gs"))
    out = []
    for path in files:
        name = str(path.relative_to(ROOT))
        ct = path.suffix == ".ct"
        out.append(["parse", name])
        out.append(["check", name, "--lift"] if ct else ["check", name])
        if not ct:
            out.append(["compile", name])
        for machine in ("ct",) if ct else ("gs", "it"):
            for fmt in ("text", "json"):
                out.append(["run", name, "--machine", machine, "--trace", "--format", fmt, "--max-steps", "2000"])
            out.append(["run", name, "--machine", machine, "--max-steps", "200000"])
        for fmt in ("text", "json"):
            out.append(["bisim", name, "--format", fmt, "--max-steps", "20000"])
    out.append(["bisim", "--all", "corpus/gen"])
    return out + LONG_TRACE_COMMANDS + GEN_COMMANDS


def run_cli(src: Path, argv: list[str]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of the CLI on argv, importing coroutine_vm from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.stdout, proc.stderr, proc.returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ref", default="HEAD", help="the git ref to compare the working tree with (default HEAD)")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="cli-snapshot-") as tmp:
        try:
            export_tree(args.ref, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot export {args.ref}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 1
        todo = commands()
        differing = 0
        for argv in todo:
            before, after = run_cli(Path(tmp) / "src", argv), run_cli(ROOT / "src", argv)
            streams = [name for name, a, b in zip(("stdout", "stderr", "exit code"), before, after) if a != b]
            if streams:
                differing += 1
                print(f"differs ({', '.join(streams)}; exit {before[2]} -> {after[2]}): coroutine-vm {' '.join(argv)}")
    print(f"{len(todo)} commands compared against {args.ref}, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
