"""Smoke test of the benchmark at tiny sizes, so the harness cannot rot.

    python3 -m pytest perfbench

It runs every workload untraced and traced on tiny inputs, checks that every
metric BENCHMARK.json names is printed with its unit, that every op passed
its check, that inputs depend on the seed alone, and that the benchmark
fails cleanly in a checkout without the workbench.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import inputs
from worker import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_every_workload_reports_every_metric_correctly():
    proc = _run("--workload", "all", "--seed", "7", "--seconds", "0.2", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    for workload in SPEC["workloads"]:
        for spec in SPEC["end_to_end"]:
            entry = metrics[f"{workload['name']}.{spec['name']}"]
            assert entry["unit"] == spec["unit"] and entry["value"] > 0
        for spec in SPEC["per_layer"]:
            assert metrics[f"{workload['name']}.{spec['name']}"]["unit"] == spec["unit"]
    # Each layer is exercised somewhere.
    for spec in SPEC["per_layer"]:
        assert any(metrics[f"{w['name']}.{spec['name']}"]["value"] > 0 for w in SPEC["workloads"]), spec["name"]
    # deep_terms ran at the default recursion limit, and lock-step did raise it.
    assert "deep_terms  seed 7" in proc.stdout and "recursion limit 1000 at start, 1000 at end" in proc.stdout
    assert "recursion limit 1000 at start, 20000 at end" in proc.stdout


def test_single_workload_prints_exactly_its_metrics():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", "lockstep_runs", "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}


def test_per_layer_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


def test_inputs_depend_on_the_seed_alone():
    corpus = lambda seed: list(itertools.islice(inputs.corpus_stream(seed), 100))
    for make in (corpus, inputs.deep_inputs, inputs.machine_inputs):
        assert inputs.digest(make(11)) == inputs.digest(make(11))
        assert inputs.digest(make(11)) != inputs.digest(make(12))


def test_deep_inputs_have_fixed_shapes():
    # The seed must not move the cost: same families, depths and node counts.
    shape = lambda seed: sorted((t.family, t.depth, t.nodes, t.safe) for t in inputs.deep_inputs(seed))
    assert shape(1) == shape(2)


def test_fails_without_the_workbench():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("--workload", "deep_terms", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_node_counts_match_the_parsed_terms():
    # us_per_node divides by these counts, so they must be the parser's.
    sys.path.insert(0, str(ROOT / "src"))
    from coroutine_vm.parser import parse

    def count(term):
        todo, n = [term], 0
        while todo:
            node = todo.pop()
            n += 1
            todo += [getattr(node, f) for f in type(node).__match_args__ if not isinstance(getattr(node, f), str)]
        return n

    terms = list(itertools.islice(inputs.corpus_stream(5), 200))
    terms += inputs.deep_inputs(5, (10, 20)) + inputs.machine_inputs(5)
    for t in terms:
        assert count(parse(t.text, t.calculus)) == t.nodes, t
