"""Spans and counters recorded around the benchmark's calls into each layer.

Both tracers let the speed clock close a segment at every call boundary
(see ``probe.py``).  A span is ``[name, start, end, parent, verdict]``:
times are the clock's wall seconds with probes taken out, the parent is the
index of the enclosing span (-1 for none) and ``verdict`` the id of the
verdict it belongs to.  Spans stay in memory until the run ends.  A span's
self time is its duration minus the durations of its children; calls are
sequential, so the children never overlap.
"""

from __future__ import annotations

from collections import defaultdict

from .probe import SpeedClock


class NullTracer:
    """Tracing off: calls straight through, counts nothing."""

    def __init__(self, clock: SpeedClock):
        self.clock = clock
        self.verdict = -1

    def call(self, name, fn, *args, **kwargs):
        self.clock.checkpoint()
        result = fn(*args, **kwargs)
        self.clock.checkpoint()
        return result

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer:
    """Tracing on: one span per call, counters summed by name."""

    def __init__(self, clock: SpeedClock):
        self.clock = clock
        self.verdict = -1
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        clock = self.clock
        clock.checkpoint()
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.verdict]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = clock.wall()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = clock.wall()
            self._open.pop()
            clock.checkpoint()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def self_times(self, factors) -> dict[str, float]:
        """Total self time in seconds per span name, each span scaled by
        ``factors[verdict]``."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, verdict) in enumerate(self.spans):
            totals[name] += (end - start - child[i]) * factors[verdict]
        return totals
