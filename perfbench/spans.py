"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a start, an end, the id of the span that encloses it and
the id of the op it belongs to. Spans are kept in a list and written out
once, when the run ends. A layer's self time is its span's duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    parent: int | None
    op: str
    name: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``span`` is a context manager."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = "setup"
        # {name: {op id: summed value}} for counts and other non-span readings
        self.counts: dict[str, dict[str, float]] = {}

    def count(self, name: str, value: float) -> None:
        by_op = self.counts.setdefault(name, {})
        by_op[self.op] = by_op.get(self.op, 0.0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    enabled = False
    _null = contextlib.nullcontext()
    op = "setup"

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass


def self_times(spans: list[Span]) -> list[float]:
    """Self time per span, in the order given."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return [s.seconds - child[s.span_id] for s in spans]


def per_op_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """{span name: {op id: summed self time}} over all spans."""
    out: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        by_op = out.setdefault(s.name, {})
        by_op[s.op] = by_op.get(s.op, 0.0) + self_s
    return out

