"""In-memory spans recorded around calls into the library's modules.

A span has a name (``<module>.<function>``), start and end times from
``time.perf_counter``, the index of the span that was open when it started,
and the trace id shared by every span of one pipeline pass. Spans stay in
memory and are written out with the run's record when the run ends.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    trace: int
    start: float
    end: float
    parent: int | None


class _Open:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.index = len(tracer.spans)
        parent = tracer.open[-1] if tracer.open else None
        tracer.spans.append(Span(name, tracer.trace, 0.0, 0.0, parent))

    def __enter__(self):
        self.tracer.open.append(self.index)
        self.tracer.spans[self.index].start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index].end = time.perf_counter()
        self.tracer.open.pop()
        return False


class Tracer:
    """Records spans; ``enabled=False`` makes ``span`` a shared no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.open: list[int] = []
        self.trace = 0
        self._null = nullcontext()

    def span(self, name: str):
        return _Open(self, name) if self.enabled else self._null

    def durations(self, trace: int) -> dict[str, list[float]]:
        """Durations of every span within one trace, by span name."""
        found: dict[str, list[float]] = {}
        for s in self.spans:
            if s.trace == trace:
                found.setdefault(s.name, []).append(s.end - s.start)
        return found

    def self_times(self, trace: int) -> dict[str, float]:
        """Duration minus the time covered by direct children, per span name."""
        own = {i: s.end - s.start for i, s in enumerate(self.spans) if s.trace == trace}
        for i in own:
            parent = self.spans[i].parent
            if parent is not None:
                own[parent] -= self.spans[i].end - self.spans[i].start
        totals: dict[str, float] = {}
        for i, t in own.items():
            name = self.spans[i].name
            totals[name] = totals.get(name, 0.0) + t
        return totals
