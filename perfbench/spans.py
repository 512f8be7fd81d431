"""In-memory spans for the traced run.

A span is (name, start, end, parent, op id).  Spans are kept in a list
while the run goes on and written out once at the end.  A span's self
time is its duration minus the time its child spans cover; the run is
single-threaded, so children never overlap.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op_id: int | None = None):
        record = [name, perf_counter(), None, self._open[-1] if self._open else None, op_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Self time of every closed span, grouped by span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        grouped: dict[str, list[float]] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            if end is not None:
                grouped.setdefault(name, []).append(end - start - children)
        return grouped

    def records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op_id")
        return [dict(zip(keys, s)) for s in self.spans]


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    _none = nullcontext()

    def span(self, name: str, op_id: int | None = None):
        return self._none


NULL = NullTracer()
