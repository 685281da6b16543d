"""In-memory spans and the statistics the benchmark derives from them.

A span records its name, start, end, parent span and operation id (one
benchmark job is one operation).  Spans stay in memory until the run
ends; self time is computed afterwards as a span's duration minus the
part of it covered by its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    work: float = 0.0  # units of work the call did, such as token-samples

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    op: int = 0
    _stack: list[Span] = field(default_factory=list)

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def enclosing(self, names: tuple[str, ...]) -> str | None:
        """The innermost open span's name that is one of ``names``."""
        for span in reversed(self._stack):
            if span.name in names:
                return span.name
        return None

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "work": s.work,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span not covered by the union of its children."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(c.start, cursor)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def tail_level(n: int) -> float:
    """Highest reported percentile with at least ten samples beyond it.

    Falls back to the median when there are too few samples for any
    higher level.
    """
    for q in TAIL_LEVELS:
        if round(n * (100.0 - q) / 100.0, 6) >= TAIL_MIN_BEYOND:
            return q
    return 50.0


def distribution(values_ms: list[float]) -> dict[str, float]:
    """p50, the tail percentile chosen by ``tail_level`` and the count."""
    n = len(values_ms)
    if n == 0:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_q": 0.0, "n": 0}
    q = tail_level(n)
    p50, tail = np.percentile(values_ms, [50.0, q])
    return {"p50_ms": float(p50), "tail_ms": float(tail), "tail_q": q, "n": n}
