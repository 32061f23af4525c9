#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on the working tree, in pairs.

    python3 scripts/bench_pairs.py --workload machine_runs --pairs 10 --parent HEAD [--first-seed 1]
    python3 scripts/bench_pairs.py --workload all --pairs 5

The committed files of --parent are exported (`git archive`) into a temporary
directory, so the parent runs from a clean tree exactly as committed; the
change is the working tree, uncommitted edits included. Each pair runs
`perfbench/run.py --workload W --seed S --seconds <BENCHMARK.json run_seconds>`
once on each side with its own seed (first-seed, first-seed + 1, ...), and
the side that runs first alternates from pair to pair. Runs go one at a time.
`--workload all` runs every workload of BENCHMARK.json in turn, each with the
same seeds, and prints one summary per workload.

Per end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the ratio of the medians, how many pairs the change won (ties
count for neither side), and three verdicts:
  * gain claimable: the change wins at least nine tenths of the pairs and
    its median is better than the parent's by more than the parent's
    interquartile range;
  * worse: the same test the other way round, the change losing at least
    nine tenths of the pairs;
  * past bound: the ratio of the medians is worse than the metric's `bound`
    in BENCHMARK.json.
It also prints failed/attempted ops per side. The temporary directory is
removed at the end, also on error or interrupt.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export_tree(ref: str, dest: Path) -> None:
    """Write the files committed at ref into dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in tree; the parsed JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def summarize(metric: dict, parent: list[float], change: list[float]) -> str:
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
    apart = abs(c_med - p_med) > p_q3 - p_q1
    claimable = wins >= 0.9 * len(parent) and apart and (c_med > p_med) == higher
    worse = losses >= 0.9 * len(parent) and apart and (c_med < p_med) == higher
    ratio = c_med / p_med
    past_bound = ratio < 1 - metric["bound"] if higher else ratio > 1 + metric["bound"]
    return (
        f"{metric['name']:12s} {metric['unit']:4s} parent {p_med:10.4g} [{p_q1:.4g}, {p_q3:.4g}]  "
        f"change {c_med:10.4g} [{c_q1:.4g}, {c_q3:.4g}]  ratio {ratio:6.3f}  "
        f"change wins {wins}/{len(parent)} ({metric['better']} is better)  "
        f"gain claimable: {'yes' if claimable else 'no'}  worse: {'yes' if worse else 'no'}  "
        f"past bound {metric['bound']}: {'yes' if past_bound else 'no'}"
    )


def run_pairs(workload: str, args: argparse.Namespace, trees: dict[str, Path], spec: dict) -> None:
    """Run args.pairs alternating pairs of one workload and print their summary."""
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in trees}
    failed = {side: [0, 0] for side in trees}
    print(f"{workload}: {args.pairs} pairs at {seconds} s, parent {args.parent}, change = working tree")
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = bench_once(trees[side], workload, seed, seconds)
            failed[side][0] += result["failed"]
            failed[side][1] += result["attempted"]
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        row = "  ".join(
            f"{m['name']} {values['parent'][m['name']][-1]:.4g} -> {values['change'][m['name']][-1]:.4g}"
            for m in metrics
        )
        print(f"pair {i + 1:2d} seed {seed:4d} ({order[0]} first): {row}", flush=True)

    print(f"{workload} medians [q1, q3]:")
    for m in metrics:
        print("  " + summarize(m, values["parent"][m["name"]], values["change"][m["name"]]))
    for side, (n_failed, attempted) in failed.items():
        print(f"  failed ops, {side}: {n_failed}/{attempted}", flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--parent", default="HEAD", help="git ref of the parent commit (default HEAD)")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first pair; pair i uses first-seed + i")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}")
    workloads = names if args.workload == "all" else [args.workload]

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        export_tree(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in workloads:
            run_pairs(workload, args, trees, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
