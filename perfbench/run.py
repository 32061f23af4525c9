"""Benchmark of the coroutine-vm workbench.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Workloads (each a closed loop, one client, one single-threaded process):
  corpus_verify  seeded small ct/gs terms (sizes 1-60) taken to a verdict:
                 parse, index, the three safety judgments, lift/down, and
                 composed lock-step at fuel 200 for gs terms
  deep_terms     families with known verdicts swept over depth up to 800
                 prefix forms, the same pipeline without lock-step
  machine_runs   `run` of omega and ping-pong on ct, gs and it at one long
                 fuel, untraced and with collect_trace=True
  lockstep_runs  composed lock-step on omega and ping-pong at one long fuel

Each run starts fresh interpreters (perfbench/worker.py) for the workload, so
the recursion limit that lock-step raises and the peak RSS stay per
workload. With --trace 0 it prints the end-to-end metrics: ops_per_s is ops
over the time spent inside ops (checks and input generation are outside),
op_p50_ms and op_tail_ms are the median and the highest percentile with ten
ops beyond it (at most p99.9), and setup_s is the median over several fresh
interpreters of the time from process start to the first timed op. With
--trace 1 the worker runs the ops untraced, replays them with spans around
every layer call, and prints the per-layer metrics. The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload both ways and prints everything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus_verify", "deep_terms", "machine_runs", "lockstep_runs")
SETUP_SAMPLES = 11  # setup-only interpreters, besides the measuring one
DEADLINE_S = 170.0

# What one op is in each workload, and the workload-level names of the gated
# figures (ops_per_s, op_p50_ms, op_tail_ms) there.
OP_NAMES = {
    "corpus_verify": ("one term's verdict", "verdicts_per_s", "verdict_p50_ms", "verdict_tail_ms"),
    "deep_terms": ("one term's verdict", "verdicts_per_s", "verdict_p50_ms", "verdict_tail_ms"),
    "machine_runs": ("a sweep of 12 runs", "sweeps_per_s", "sweep_p50_ms", "sweep_tail_ms"),
    "lockstep_runs": ("a sweep of 2 lock-step calls", "sweeps_per_s", "sweep_p50_ms", "sweep_tail_ms"),
}


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, str, str]:
    """Run one worker; return (seconds to READY, READY line, result line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    # A fixed hash seed takes string-hash layout out of the run-to-run noise.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not ready.startswith("READY "):
        raise WorkerError(f"worker {' '.join(args)} exited with code {code}")
    lines = rest.strip().splitlines()
    return ready_s, ready.split(maxsplit=1)[1].strip(), lines[-1] if lines else ""


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        base.append("--smoke")
    setups, readies = [], []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            ready_s, ready, _ = spawn(base + ["--setup-only"], deadline)
            setups.append(ready_s)
            readies.append(ready)
    ready_s, ready, line = spawn(base + ["--trace", str(trace)], deadline)
    setups.append(ready_s)
    readies.append(ready)
    result = json.loads(line)
    result["ready"] = ready
    result["digests_agree"] = len(set(readies)) == 1
    if not trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **result["metrics"]}
        result["setup_samples"] = len(setups)
    return result


def report(result: dict, trace: int) -> None:
    """Print one workload's result for a human reader."""
    name = result["workload"]
    limit = result["recursion_limit"]
    digest, count = result["ready"].split()
    print(f"== {name}  seed {result['seed']}  {'traced (per-layer)' if trace else 'untraced (end-to-end)'}")
    print(f"   python {result['python']}, {result['cpus']} cpus, recursion limit {limit[0]} at start, {limit[1]} at end")
    print(f"   inputs: {count}, digest {digest} ({'same' if result['digests_agree'] else 'DIFFERENT'} in every process)")
    what, *aliases = OP_NAMES[name]
    notes = {"setup_s": f"median of {result.get('setup_samples', 0)} fresh interpreters"}
    if not trace:
        notes.update(ops_per_s=f"= {aliases[0]}; one op is {what}", op_p50_ms=f"= {aliases[1]}",
                     op_tail_ms=f"= {aliases[2]}")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        note = notes.get(metric, "not exercised by this workload" if trace and value == 0 else "")
        print(f"   {metric:32s} {value:14.6g} {entry['unit']:13s} {note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"   {'failed_frac':32s} {failed / attempted:14.6g} {'fraction':13s} {failed} of {attempted} ops")
    for fname, value, unit, note in result.get("figures", []):
        print(f"   {fname:32s} {value:14.6g} {unit:13s} {note}")
    for note in result["notes"]:
        print(f"   note: {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    runs = [(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all" else [(args.workload, args.trace)]
    results = []
    try:
        for workload, trace in runs:
            deadline = time.monotonic() + DEADLINE_S
            result = run_workload(workload, args.seed, args.seconds, trace, args.smoke, deadline)
            report(result, trace)
            results.append((workload, result))
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    prefix = len(results) > 1
    metrics = {}
    for workload, result in results:
        for name, entry in result["metrics"].items():
            metrics[f"{workload}.{name}" if prefix else name] = entry
    print(json.dumps({
        "correct": all(r["failed"] == 0 and r["digests_agree"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
