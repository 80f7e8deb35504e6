"""In-memory span ledger, self-time accounting and the percentile rule.

The benchmark records a span around each call it makes into one of the
program's layers. Spans carry their op id and parent span, stay in
memory while the workload runs, and are written out once at the end.

A span's *self time* is its duration minus the part of its interval
covered by its direct children (their union, clipped to the parent, so
nested or overlapping children are not counted twice). Per op, the
self times of every layer span plus the root's own self time — the
``untracked`` remainder — add up to the op's wall time.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

UNTRACKED = "untracked"
#: tolerance of the tiling check, in seconds of float rounding
TILING_TOL_S = 1e-9


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: Optional[int]
    t0: float
    t1: float = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Ledger:
    """Spans of one benchmark run, grouped into ops by a root span each."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.op_class: Dict[int, str] = {}
        self._stack: List[Span] = []

    def _open(self, name: str, op: int, parent: Optional[int]) -> Span:
        span = Span(len(self.spans), name, op, parent, self.clock())
        self.spans.append(span)
        return span

    @contextmanager
    def op(self, cls: str) -> Iterator[Span]:
        """Root span of one op; layer spans opened inside attach to it."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        root = self._open("op", len(self.op_class), None)
        self.op_class[root.op] = cls
        self._stack.append(root)
        try:
            yield root
        finally:
            self._stack.pop()
            root.t1 = self.clock()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Layer span under the innermost open span (no-op outside an op)."""
        if not self._stack:
            yield None
            return
        parent = self._stack[-1]
        span = self._open(name, parent.op, parent.id)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.t1 = self.clock()

    def add_op(self, cls: str, t0: float, t1: float) -> Span:
        """Root span for an op whose stamps were taken elsewhere."""
        root = self._open("op", len(self.op_class), None)
        root.t0, root.t1 = t0, t1
        self.op_class[root.op] = cls
        return root

    def add_span(self, name: str, parent: Span, t0: float, t1: float) -> Span:
        """Child span from externally taken stamps (e.g. service legs)."""
        span = self._open(name, parent.op, parent.id)
        span.t0, span.t1 = t0, t1
        return span

    def write(self, path: str) -> None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                rec = asdict(span)
                rec["cls"] = self.op_class.get(span.op)
                fh.write(json.dumps(rec) + "\n")


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its direct children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {
        s.id: s.dur - covered(children.get(s.id, ()), s.t0, s.t1) for s in spans
    }


def op_breakdown(ledger: Ledger) -> Dict[int, Dict[str, float]]:
    """Per op: layer name -> summed self time, plus ``untracked``."""
    selfs = self_times(ledger.spans)
    out: Dict[int, Dict[str, float]] = {}
    for s in ledger.spans:
        layers = out.setdefault(s.op, {})
        key = UNTRACKED if s.parent is None else s.name
        layers[key] = layers.get(key, 0.0) + selfs[s.id]
    return out


def op_walls(ledger: Ledger) -> Dict[int, float]:
    return {s.op: s.dur for s in ledger.spans if s.parent is None}


def tiling_errors(ledger: Ledger, tol: float = TILING_TOL_S) -> List[str]:
    """Ops whose layer self times plus ``untracked`` miss their wall time."""
    walls = op_walls(ledger)
    errors = []
    for op, layers in op_breakdown(ledger).items():
        gap = sum(layers.values()) - walls[op]
        if abs(gap) > tol or layers.get(UNTRACKED, 0.0) < -tol:
            errors.append(f"op {op}: layers sum off wall by {gap:.3g} s")
    return errors


# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    xs = sorted(values)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def tail_percentile(
    values: Sequence[float], min_beyond: int = 10
) -> Optional[Tuple[int, float]]:
    """Highest whole percentile with at least ``min_beyond`` samples above it.

    Returns ``(p, value)`` where ``value`` is the nearest-rank p-th
    percentile (the ``ceil(p·n/100)``-th smallest sample), or ``None``
    when there are too few samples for any percentile above 0.
    """
    n = len(values)
    p = min(99, (100 * (n - min_beyond)) // n) if n else 0
    if p <= 0:
        return None
    rank = -(-p * n // 100)  # ceil(p·n/100) in exact integer arithmetic
    return p, sorted(values)[rank - 1]
