"""Spans and counters for the traced run.

Every op gets one root span; each call the benchmark makes into a layer's
public function gets a child span. Functions that run once per machine step
(the step functions, mappers, equality and rule dispatch as `bisim` calls
them, and `print_term` as `machines` calls it) are swapped, for the traced
pass only, for wrappers that add to a call count and a total time, so memory
stays bounded however long the run. Spans are kept in memory, up to
MAX_SPANS, and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

MAX_SPANS = 200_000


def direct(name, fn, *args, **kwargs):
    """The untraced layer call: no bookkeeping at all."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.ops: list[tuple] = []  # (op, kind, family, nodes, start, end)
        self.spans: list[tuple] = []  # (op, name, start, end)
        self.dropped = 0
        self.totals: dict[str, list] = {}  # layer -> [calls, seconds, nodes]
        self.counters: dict[str, list] = {}  # per-step function -> [calls, seconds]
        self.memo_entries = 0
        self._maps = None
        self._op = -1
        self._nodes = 0

    # -- spans ------------------------------------------------------------

    @contextmanager
    def op(self, kind: str, family: str, nodes: int):
        self._op = len(self.ops)
        self._nodes = nodes
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ops.append((self._op, kind, family, nodes, start, time.perf_counter()))

    def layer(self, name, fn, *args, **kwargs):
        """Call fn as the layer `name`, as a child span of the current op."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            total = self.totals.setdefault(name, [0, 0.0, 0])
            total[0] += 1
            total[1] += end - start
            total[2] += self._nodes
            if len(self.spans) < MAX_SPANS:
                self.spans.append((self._op, name, start, end))
            else:
                self.dropped += 1
            if self._maps is not None:
                self.memo_entries += sum(len(v) for v in vars(self._maps).values() if hasattr(v, "__len__"))
                self._maps = None

    def span_durations(self, name: str) -> list[tuple[int, float]]:
        """(op, seconds) for each kept span of the layer."""
        return [(op, end - start) for op, n, start, end in self.spans if n == name]

    # -- per-step counters ------------------------------------------------

    def _counted(self, name: str, fn):
        acc = self.counters.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[0] += 1
                acc[1] += clock() - start

        return wrapper

    @contextmanager
    def patched(self, cv, missing: list[str]):
        """Swap the per-step functions for counting wrappers, then restore.

        A name the modules no longer have is reported in `missing` and left
        alone, so a refactor that renames a layer shows as a zero counter,
        not a crash.
        """
        targets = [
            (cv.bisim, "step_ct", "bisim.step"),
            (cv.bisim, "step_gs", "bisim.step"),
            (cv.bisim, "step_it", "bisim.step"),
            (cv.bisim, "star_state", "bisim.map"),
            (cv.bisim, "diamond_state", "bisim.map"),
            (cv.bisim, "deep_eq", "bisim.eq"),
            (cv.bisim, "applicable_rules", "bisim.dispatch"),
            (cv.machines, "print_term", "terms.print_term"),
        ]
        saved = []
        for module, attr, name in targets:
            if not hasattr(module, attr):
                missing.append(f"{module.__name__}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._counted(name, original))
        maps_cls = getattr(cv.bisim, "SimulationMaps", None)
        if maps_cls is None:
            missing.append("coroutine_vm.bisim.SimulationMaps")
        else:
            tracer = self

            class CountedMaps(maps_cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    tracer._maps = self

            saved.append((cv.bisim, "SimulationMaps", maps_cls))
            cv.bisim.SimulationMaps = CountedMaps
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
            self._maps = None

    def counter_seconds(self, name: str) -> float:
        return self.counters.get(name, [0, 0.0])[1]

    # -- output -----------------------------------------------------------

    def write(self, path, meta: dict):
        base = self.ops[0][4] if self.ops else 0.0
        with open(path, "w") as f:
            json.dump(
                {
                    **meta,
                    "time_unit": "us since the first op",
                    "ops": [[op, kind, family, nodes, _us(s - base), _us(e - base)]
                            for op, kind, family, nodes, s, e in self.ops],
                    "spans": [[op, name, _us(s - base), _us(e - base)] for op, name, s, e in self.spans],
                    "spans_dropped": self.dropped,
                    "layers": {k: {"calls": c, "seconds": s, "nodes": n} for k, (c, s, n) in self.totals.items()},
                    "counters": {k: {"calls": c, "seconds": s} for k, (c, s) in self.counters.items()},
                },
                f,
            )


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)
