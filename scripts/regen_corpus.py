#!/usr/bin/env python3
"""Regenerate the seeded corpus terms and every golden trace.

Run from the repository root after an intentional change to the generators,
the printers, or the trace format:

    python scripts/regen_corpus.py

Golden traces are JSON lines (sorted keys, compact separators), one event per
transition plus a terminal final/stuck event; fuel-exhausted runs simply end.
corpus/golden/manifest.json records, for each golden file, the source term
file, the machine, the fuel, and whether the term was compiled first; the
regression test replays exactly that recipe and compares bytes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from coroutine_vm.debruijn import to_debruijn_ct, to_debruijn_gs
from coroutine_vm.gen import gen_named_gs
from coroutine_vm.machines import run
from coroutine_vm.parser import parse
from coroutine_vm.terms import print_term
from coroutine_vm.translate import down

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

SEEDED_COUNT = 20
SEEDED_SIZE = 24
TRACE_FUEL = 100
OMEGA_FUEL = 20


def seeded_terms() -> list[Path]:
    out = []
    for seed in range(1, SEEDED_COUNT + 1):
        term = gen_named_gs(random.Random(seed), SEEDED_SIZE)
        path = CORPUS / "gen" / f"seed_{seed:02}.gs"
        path.write_text(print_term(term, "gs") + "\n", encoding="utf-8")
        out.append(path)
    return out


def trace_lines(source: Path, machine: str, fuel: int, compiled: bool) -> str:
    named = parse(source.read_text(encoding="utf-8"), "ct" if source.suffix == ".ct" else "gs")
    if source.suffix == ".ct":
        term = to_debruijn_ct(named)
    else:
        term = to_debruijn_gs(named)
        if compiled:
            term = down(term)
    result = run(term, machine, max_steps=fuel, collect_trace=True)
    return "".join(event.to_json(step, machine) + "\n" for step, event in enumerate(result.events))


def main():
    (CORPUS / "gen").mkdir(parents=True, exist_ok=True)
    golden_dir = CORPUS / "golden"
    golden_dir.mkdir(parents=True, exist_ok=True)
    for stale in golden_dir.glob("*.jsonl"):
        stale.unlink()

    jobs: list[tuple[Path, str, int, bool]] = [
        (CORPUS / "id.ct", "ct", TRACE_FUEL, False),
        (CORPUS / "safe.ct", "ct", TRACE_FUEL, False),
        (CORPUS / "unsafe.ct", "ct", TRACE_FUEL, False),
        (CORPUS / "ctx_demo.ct", "ct", TRACE_FUEL, False),
        (CORPUS / "omega.ct", "ct", OMEGA_FUEL, False),
    ]
    for gs_file in [CORPUS / "id.gs", CORPUS / "ctx_demo.gs", CORPUS / "ctx.gs"] + seeded_terms():
        jobs.append((gs_file, "gs", TRACE_FUEL, False))
        jobs.append((gs_file, "it", TRACE_FUEL, False))
        jobs.append((gs_file, "ct", TRACE_FUEL, True))
    jobs.append((CORPUS / "omega.gs", "gs", OMEGA_FUEL, False))
    jobs.append((CORPUS / "omega.gs", "it", OMEGA_FUEL, False))
    jobs.append((CORPUS / "omega.gs", "ct", OMEGA_FUEL, True))

    manifest = []
    for source, machine, fuel, compiled in jobs:
        name = f"{source.stem}.{'compiled.' if compiled else ''}{machine}.jsonl"
        (golden_dir / name).write_text(trace_lines(source, machine, fuel, compiled), encoding="utf-8")
        manifest.append(
            {
                "golden": name,
                "source": str(source.relative_to(CORPUS)),
                "machine": machine,
                "max_steps": fuel,
                "compiled": compiled,
            }
        )
    (golden_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} golden traces and {SEEDED_COUNT} seeded terms")


if __name__ == "__main__":
    main()
