"""One workload in one fresh interpreter: set up, say READY, measure, report.

Started by run.py, never imported by it, so each workload gets its own
recursion limit and its own peak RSS. It prints `READY <digest> <inputs>`
once the inputs exist, then (unless --setup-only) one JSON line with the
result. It never changes the recursion limit itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs
from tracing import Tracer, direct
from workloads import WORKLOADS, Modules, Stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_FAILURE_NOTES = 5

# Per-layer metrics: name -> unit. BENCHMARK.json lists the same names.
PER_LAYER = {
    "parser.us_per_node": "us/node",
    "debruijn.us_per_node": "us/node",
    "translate.down.us_per_node": "us/node",
    "translate.lift.us_per_node": "us/node",
    "safety.is_safe.us_per_node": "us/node",
    "safety.safe_named.us_per_node": "us/node",
    "safety.safe_db.us_per_node": "us/node",
    "safety.is_safe.size_slope": "log-log",
    "machines.ct.steps_per_s": "steps/s",
    "machines.gs.steps_per_s": "steps/s",
    "machines.it.steps_per_s": "steps/s",
    "machines.ct.traced_steps_per_s": "steps/s",
    "machines.gs.traced_steps_per_s": "steps/s",
    "machines.it.traced_steps_per_s": "steps/s",
    "terms.print_term.share": "fraction",
    "machines.captures": "count",
    "machines.restores": "count",
    "bisim.us_per_step": "us/step",
    "bisim.us_per_call": "us/call",
    "bisim.step.share": "fraction",
    "bisim.map.share": "fraction",
    "bisim.eq.share": "fraction",
    "bisim.dispatch.share": "fraction",
    "bisim.bytes_per_step": "B/step",
    "bisim.memo_entries_per_step": "entries/step",
    "trace.overhead": "ratio",
}


def import_workbench():
    """Import coroutine_vm from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import coroutine_vm

    where = Path(coroutine_vm.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"coroutine_vm was imported from {where}, not from {src}")


def tail_index(n: int) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it (at most
    p99.9), and the index of that sample in the sorted list."""
    if n <= 10:
        return 0.0, 0
    index = min(n - 11, math.ceil(0.999 * n) - 1)
    return 100.0 * (index + 1) / n, index


def measure(wl, seconds: float, L, count: int | None = None, tracer=None):
    """Run ops until `seconds` have passed (whole rounds) or `count` ops."""
    wl.stats = Stats()
    times, failures = [], []
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        if count is None:
            if i % wl.round == 0 and i and clock() - start >= seconds:
                break
        elif i >= count:
            break
        t = wl.meta(i)
        error = None
        t0 = clock()
        try:
            if tracer is None:
                out = wl.op(i, L)
            else:
                with tracer.op(t.calculus, t.family, t.nodes):
                    out = wl.op(i, L)
        except Exception as exc:  # a raised op is a failed op, never a crash
            error = exc
        times.append(clock() - t0)
        if error is None:
            try:
                if not wl.check(i, out):
                    error = "wrong result"
            except Exception as exc:
                error = exc
        if error is not None:
            failures.append(f"op {i} ({t.family or t.calculus}, {t.text[:60]!r}): {error!r}")
        i += 1
    return times, failures


def e2e_metrics(times: list[float]) -> tuple[dict, str]:
    ordered = sorted(times)
    pct, index = tail_index(len(ordered))
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "op_tail_ms": (ordered[index] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, f"p{pct:.2f} of {len(times)} ops"


def _log_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(nodes), one point per size."""
    by_size: dict[int, list[float]] = {}
    for nodes, secs in points:
        by_size.setdefault(nodes, []).append(secs)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(n) for n in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(wl, tracer, overhead: float, bytes_per_step: float) -> dict:
    totals = tracer.totals

    def per_node(*names):
        calls, secs, nodes = (sum(totals.get(n, (0, 0.0, 0))[k] for n in names) for k in range(3))
        return secs / nodes * 1e6 if nodes else 0.0

    out = {
        "parser.us_per_node": per_node("parser"),
        "debruijn.us_per_node": per_node("debruijn"),
        "translate.down.us_per_node": per_node("translate.down"),
        "translate.lift.us_per_node": per_node("translate.lift"),
        "safety.is_safe.us_per_node": per_node("safety.is_safe"),
        "safety.safe_named.us_per_node": per_node("safety.safe_named"),
        "safety.safe_db.us_per_node": per_node("safety.safe_db"),
    }
    ops = {op: (family, nodes) for op, _, family, nodes, _, _ in tracer.ops}
    out["safety.is_safe.size_slope"] = _log_slope(
        [(ops[op][1], secs) for op, secs in tracer.span_durations("safety.is_safe") if ops[op][0] == "binders"]
    )

    traced_seconds = 0.0
    for m in ("ct", "gs", "it"):
        for kind, key in (("run", "steps_per_s"), ("traced_run", "traced_steps_per_s")):
            calls, secs, _ = totals.get(f"machines.{m}.{kind}", (0, 0.0, 0))
            out[f"machines.{m}.{key}"] = calls * wl.fuel / secs if secs else 0.0
            if kind == "traced_run":
                traced_seconds += secs
    out["terms.print_term.share"] = tracer.counter_seconds("terms.print_term") / traced_seconds if traced_seconds else 0.0
    out["machines.captures"], out["machines.restores"] = getattr(wl, "rule_counts", lambda: (0, 0))()

    calls, secs, _ = totals.get("bisim.lockstep", (0, 0.0, 0))
    steps = wl.stats.steps.get("lockstep", 0)
    out["bisim.us_per_step"] = secs / steps * 1e6 if steps else 0.0
    out["bisim.us_per_call"] = secs / calls * 1e6 if calls else 0.0
    for part in ("step", "map", "eq", "dispatch"):
        out[f"bisim.{part}.share"] = tracer.counter_seconds(f"bisim.{part}") / secs if secs else 0.0
    out["bisim.bytes_per_step"] = bytes_per_step
    out["bisim.memo_entries_per_step"] = tracer.memo_entries / steps if steps else 0.0
    out["trace.overhead"] = overhead
    return {name: (out[name], unit) for name, unit in PER_LAYER.items()}


def lockstep_bytes_per_step(wl) -> float:
    """Peak traced Python allocation of one lock-step call per term, per step."""
    import tracemalloc

    total_peak = total_steps = 0
    for _, db, _ in wl.terms:
        tracemalloc.start()
        try:
            report = wl.cv.bisim.lockstep(db, "composed", wl.fuel)
            total_peak += tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        total_steps += report.steps_checked
    return total_peak / total_steps if total_steps else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    import_workbench()
    wl = WORKLOADS[args.workload](Modules(), args.seed, args.smoke)
    print(f"READY {inputs.digest(wl.inputs)} {len(wl.inputs)}", flush=True)
    if args.setup_only:
        return 0

    limit_start = sys.getrecursionlimit()
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "notes": [],
    }
    if not args.trace:
        times, failures = measure(wl, args.seconds, direct)
        metrics, tail_note = e2e_metrics(times)
        result["notes"].append(f"op_tail_ms is the {tail_note}")
        result["figures"] = [[f.name, f.value, f.unit, f.note] for f in wl.figures()]
    else:
        # Untraced first, then the same ops traced: the wall-time ratio is
        # the tracing overhead.
        plain_times, failures = measure(wl, args.seconds / 2, direct)
        tracer = Tracer()
        missing: list[str] = []
        with tracer.patched(wl.cv, missing):
            traced_times, traced_failures = measure(wl, 0, tracer.layer, count=len(plain_times), tracer=tracer)
        failures += traced_failures
        times = plain_times + traced_times
        overhead = sum(traced_times) / sum(plain_times)
        per_step = lockstep_bytes_per_step(wl) if wl.name == "lockstep_runs" else 0.0
        metrics = layer_metrics(wl, tracer, overhead, per_step)
        result["notes"] += [f"not traced (name not found): {m}" for m in missing]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"{wl.name}-seed{args.seed}.trace.json"
        tracer.write(trace_path, {k: result[k] for k in ("workload", "seed", "python", "cpus")}
                     | {"recursion_limit": [limit_start, sys.getrecursionlimit()]})
        result["notes"].append(f"trace written to {trace_path.relative_to(ROOT)}")
    result["recursion_limit"] = [limit_start, sys.getrecursionlimit()]
    if wl.name == "deep_terms" and sys.getrecursionlimit() != limit_start:
        failures.append(f"recursion limit changed from {limit_start} to {sys.getrecursionlimit()} during the run")
    result["attempted"] = len(times)
    result["failed"] = len(failures)
    result["notes"] += failures[:MAX_FAILURE_NOTES]
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
