#!/usr/bin/env python3
"""Lines and tokens of each src/coroutine_vm module, against a git ref.

    python3 scripts/src_size.py [--ref HEAD]

For each module in the working tree or at --ref it prints the lines and the
tokens in both, and their difference, then the totals. A token is one item
of what the stdlib tokenize module yields for the file, comments and line
ends included. Importing a module from source compiles it, and the compile
peak grows with the token count, so a token delta shows in the memory a
fresh process reads after import as well as in the size of the code.

The working tree is read as it is, uncommitted edits included; the ref is
read with `git show`. Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/coroutine_vm"


def size(text: str) -> tuple[int, int]:
    """(lines, tokens) of Python source text."""
    tokens = sum(1 for _ in tokenize.generate_tokens(io.StringIO(text).readline))
    return len(text.splitlines()), tokens


def tree_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted((ROOT / PACKAGE).glob("*.py"))}


def ref_sources(ref: str) -> dict[str, str]:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout

    names = git("ls-tree", "--name-only", ref, f"{PACKAGE}/").split()
    return {Path(name).name: git("show", f"{ref}:{name}") for name in names if name.endswith(".py")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ref", default="HEAD", help="the git ref to compare against (default HEAD)")
    args = ap.parse_args()
    try:
        before = ref_sources(args.ref)
    except subprocess.CalledProcessError as exc:
        print(f"error: cannot read {args.ref}: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    after = tree_sources()
    print(f"{'module':<16}{'lines':>7}{args.ref:>12}{'delta':>7}{'tokens':>9}{args.ref:>12}{'delta':>7}")
    totals = [0, 0, 0, 0]
    for name in sorted(before.keys() | after.keys()):
        lines, tokens = size(after[name]) if name in after else (0, 0)
        ref_lines, ref_tokens = size(before[name]) if name in before else (0, 0)
        for k, value in enumerate((lines, ref_lines, tokens, ref_tokens)):
            totals[k] += value
        print(f"{name:<16}{lines:>7}{ref_lines:>12}{lines - ref_lines:>+7}{tokens:>9}{ref_tokens:>12}{tokens - ref_tokens:>+7}")
    lines, ref_lines, tokens, ref_tokens = totals
    print(f"{'total':<16}{lines:>7}{ref_lines:>12}{lines - ref_lines:>+7}{tokens:>9}{ref_tokens:>12}{tokens - ref_tokens:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
