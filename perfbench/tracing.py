"""Calls into the package, counted, timed and optionally traced.

Every library call the benchmark makes goes through ``Runner.call``.  It
counts the attempt, counts a raised exception as a failed operation, and,
while tracing is on, records a span: name, start, end, parent span and the
round it belongs to.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import math
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class OperationFailed(Exception):
    """A library call raised; the failure is already counted."""


class Runner:
    def __init__(self, trace: bool):
        self.trace = trace
        self.t0 = perf_counter()
        self.spans: list[list] = []     # [name, start, end, parent, round]
        self._open: list[int] = []
        self.round = -1                 # -1 while setting up
        self.attempted = 0
        self.failed = 0
        self.op_ms = defaultdict(list)  # round -> latency of each per-item op, NaN if it raised

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, grouping the calls made inside it."""
        if not self.trace:
            yield
            return
        idx = self._start(name)
        try:
            yield
        finally:
            self._end(idx)

    def call(self, name: str, fn, *args, op: bool = False, **kwargs):
        """``fn(*args, **kwargs)`` as one operation; ``op`` marks a per-item
        call whose latency feeds the op percentiles."""
        self.attempted += 1
        idx = self._start(name) if self.trace else -1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            if op:
                self.op_ms[self.round].append(math.nan)
            print(f"operation {name} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            raise OperationFailed(name) from exc
        finally:
            if idx >= 0:
                self._end(idx)
        if op:
            self.op_ms[self.round].append((perf_counter() - start) * 1e3)
        return result

    def _start(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter() - self.t0, None, parent, self.round])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter() - self.t0
        self._open.pop()

    def totals(self, rnd: int):
        """Summed duration and count of each span name in one round."""
        seconds, count = defaultdict(float), defaultdict(int)
        for name, start, end, _, r in self.spans:
            if r == rnd:
                seconds[name] += end - start
                count[name] += 1
        return seconds, count

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "round")
        return [dict(zip(keys, s)) for s in self.spans]
