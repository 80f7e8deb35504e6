"""Service telemetry plane: rolling health samples for `GraphService`.

Request traces (:mod:`repro.obs.request_trace`) answer "why was *this*
query slow"; this module answers "is the service healthy *now*". A
:class:`TelemetrySink` attached to a running service samples its state
on a background ticker — queue depth, in-flight requests, LRU cache
size and hit rate, per-class latency quantiles over a sliding window,
and :class:`~repro.runtime.process_backend.WorkerPool` liveness /
last-op-age heartbeats — and appends one JSON line per tick to an
append-only ``service.telemetry.jsonl``.

It is a record file (:mod:`repro.obs.sinks`): a ``telemetry_header``
(``format: "repro-telemetry"``, ``version: 1``), then one ``telemetry``
tick a line. Consumers take the ticks ``read_jsonl`` returns: ``repro
top`` (live/one-shot text view, :func:`format_top`), ``repro slo``
(threshold gate, :func:`check_slo`, non-zero exit on violation) and
``repro report`` (the "service" section via :func:`summarize_telemetry`).

Neutrality contract: the sink only *reads* service state (plus its own
per-class windows fed from ``observe``) — it never touches the
service's ``MetricsRegistry``, so ``serve.*`` counters and served
answers are bit-identical with telemetry on or off.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.obs.metrics import sorted_quantile
from repro.obs.sinks import TELEMETRY_FORMAT, JsonlSink

__all__ = [
    "TelemetrySink",
    "summarize_telemetry",
    "check_slo",
    "format_top",
    "format_service_report",
    "TELEMETRY_FORMAT",
    "TELEMETRY_VERSION",
]

TELEMETRY_VERSION = 1

#: latency quantiles reported per sliding window
WINDOW_QUANTILES = (0.50, 0.95, 0.99)


class _ClassWindow:
    """Sliding window of (monotonic time, latency, cached) per class."""

    def __init__(self, window_s: float) -> None:
        self.window_s = window_s
        self._events: deque = deque()

    def observe(self, now: float, latency_s: float, cached: bool) -> None:
        self._events.append((now, latency_s, cached))
        self._trim(now)

    def _trim(self, now: float) -> None:
        horizon = now - self.window_s
        ev = self._events
        while ev and ev[0][0] < horizon:
            ev.popleft()

    def snapshot(self, now: float) -> Dict[str, Any]:
        self._trim(now)
        lats = sorted(e[1] for e in self._events)
        hits = sum(1 for e in self._events if e[2])
        n = len(self._events)
        out: Dict[str, Any] = {
            "count": n,
            "cache_hits": hits,
            "hit_rate": hits / n if n else 0.0,
        }
        for q in WINDOW_QUANTILES:
            out[f"p{int(q * 100)}_ms"] = sorted_quantile(lats, q) * 1e3
        return out


class TelemetrySink:
    """Background ticker appending service health samples as JSONL.

    ``service`` must expose ``telemetry_snapshot()`` (see
    :meth:`repro.serve.GraphService.telemetry_snapshot`); the service
    calls :meth:`observe` as each request finishes to feed the
    per-class sliding windows. Thread-safe; the ticker is a daemon
    thread so a wedged service can't block interpreter exit.
    """

    def __init__(
        self,
        service: Any,
        path: str,
        interval_s: float = 1.0,
        window_s: float = 60.0,
    ) -> None:
        self.service = service
        self.interval_s = max(float(interval_s), 0.01)
        self.window_s = float(window_s)
        self._lock = threading.Lock()
        self._windows: Dict[str, _ClassWindow] = {}
        self._seq = 0
        self._t0 = time.monotonic()
        self._stop = threading.Event()
        self._sink = JsonlSink(path, header={
            "type": "telemetry_header",
            "format": TELEMETRY_FORMAT,
            "version": TELEMETRY_VERSION,
            "interval_s": self.interval_s,
            "window_s": self.window_s,
            "t_start_unix": time.time(),
        }, flush=True)
        self._thread = threading.Thread(
            target=self._ticker, name="repro-telemetry", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def observe(self, query_class: str, latency_s: float, cached: bool) -> None:
        """Feed one finished request into the sliding windows."""
        now = time.monotonic()
        with self._lock:
            for key in (query_class, "_all"):
                win = self._windows.get(key)
                if win is None:
                    win = self._windows[key] = _ClassWindow(self.window_s)
                win.observe(now, latency_s, cached)

    def _ticker(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.tick()

    def tick(self) -> Dict[str, Any]:
        """Sample the service and append one telemetry line."""
        now = time.monotonic()
        try:
            snap = self.service.telemetry_snapshot()
        except Exception as exc:  # service mid-close; keep the ticker alive
            snap = {"error": repr(exc)}
        with self._lock:
            classes = {
                name: win.snapshot(now)
                for name, win in sorted(self._windows.items())
            }
            record: Dict[str, Any] = {
                "type": "telemetry",
                "seq": self._seq,
                "t_wall": time.time(),
                "uptime_s": now - self._t0,
                "window_s": self.window_s,
                "classes": classes,
            }
            record.update(snap)
            self._seq += 1
            self._sink.emit(record)
        return record

    def close(self) -> None:
        """Stop the ticker, write one final tick, close the file."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.tick()
        self._sink.close()

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# File consumers (``repro top`` / ``repro slo`` / ``repro report``)
# ----------------------------------------------------------------------
def summarize_telemetry(
    header: Dict[str, Any], ticks: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Aggregate a telemetry stream for the report "service" section."""
    if not ticks:
        return {"ticks": 0}
    last = ticks[-1]
    queue_depths = [t.get("queue_depth", 0) for t in ticks]
    counters = last.get("counters") or {}
    latency = last.get("latency") or {}
    summary: Dict[str, Any] = {
        "ticks": len(ticks),
        "uptime_s": last.get("uptime_s", 0.0),
        "interval_s": header.get("interval_s"),
        "queue_depth_last": last.get("queue_depth", 0),
        "queue_depth_max": max(queue_depths) if queue_depths else 0,
        "inflight_last": last.get("inflight", 0),
        "cache": last.get("cache") or {},
        "counters": counters,
        "hit_rate": last.get("hit_rate", 0.0),
        "latency": latency,
        "classes": last.get("classes") or {},
        "pool": last.get("pool"),
        "session": last.get("session") or {},
    }
    return summary


def check_slo(
    ticks: List[Dict[str, Any]],
    p95_ms: Optional[float] = None,
    min_hit_rate: Optional[float] = None,
    max_queue_depth: Optional[int] = None,
) -> List[str]:
    """Evaluate SLO thresholds; returns violation messages (empty = pass).

    ``p95_ms`` gates the *cumulative* service p95 from the final tick's
    latency histogram export (the stable whole-workload number, not a
    sliding window that may be empty by shutdown); ``min_hit_rate``
    gates the final cumulative cache hit rate; ``max_queue_depth``
    gates the maximum sampled queue depth over all ticks.
    """
    if not ticks:
        return ["no telemetry ticks in file"]
    last = ticks[-1]
    violations: List[str] = []
    if p95_ms is not None:
        latency = last.get("latency") or {}
        got_ms = float(latency.get("p95", 0.0)) * 1e3
        if got_ms > p95_ms:
            violations.append(
                f"p95 latency {got_ms:.3f} ms > threshold {p95_ms:.3f} ms"
            )
    if min_hit_rate is not None:
        got = float(last.get("hit_rate", 0.0))
        if got < min_hit_rate:
            violations.append(
                f"cache hit rate {got:.3f} < threshold {min_hit_rate:.3f}"
            )
    if max_queue_depth is not None:
        got_q = max(int(t.get("queue_depth", 0)) for t in ticks)
        if got_q > max_queue_depth:
            violations.append(
                f"max queue depth {got_q} > threshold {max_queue_depth}"
            )
    return violations


def format_service_report(summary: Dict[str, Any]) -> str:
    """Render :func:`summarize_telemetry` output as the report "service"
    section (``repro report service.telemetry.jsonl``)."""
    from repro.bench.reporting import format_table

    if not summary.get("ticks"):
        return "service telemetry: no ticks recorded"
    lines: List[str] = []
    lines.append(
        f"service telemetry — {summary['ticks']} ticks over "
        f"{summary.get('uptime_s', 0.0):.1f}s "
        f"(interval {summary.get('interval_s')}s)"
    )
    counters = summary.get("counters") or {}
    rows = [[k, f"{v:g}"] for k, v in sorted(counters.items())]
    rows.append(["serve.cache_hit_rate", f"{summary.get('hit_rate', 0.0):.3f}"])
    cache = summary.get("cache") or {}
    rows.append([
        "cache entries",
        f"{cache.get('entries', 0)}/{cache.get('capacity', 0)}",
    ])
    rows.append(["queue depth (last/max)",
                 f"{summary.get('queue_depth_last', 0)}"
                 f"/{summary.get('queue_depth_max', 0)}"])
    lines.append(format_table(["counter", "value"], rows, title="service"))
    latency = summary.get("latency") or {}
    if latency.get("count"):
        lrows = [
            [k, round(float(latency[k]) * 1e3, 3)]
            for k in ("p50", "p95", "p99", "mean", "min", "max")
            if k in latency
        ]
        lrows.append(["count", int(latency.get("count", 0))])
        lines.append(format_table(
            ["quantile", "ms"], lrows, title="latency (cumulative)"
        ))
    classes = summary.get("classes") or {}
    crows = [
        [name, c.get("count", 0), f"{c.get('hit_rate', 0.0):.2f}",
         round(c.get("p50_ms", 0.0), 3), round(c.get("p95_ms", 0.0), 3)]
        for name, c in classes.items()
    ]
    if crows:
        lines.append(format_table(
            ["class", "count", "hit", "p50_ms", "p95_ms"],
            crows, title="final sliding window",
        ))
    pool = summary.get("pool")
    if pool:
        age = pool.get("last_op_age_s")
        lines.append(
            f"worker pool: {pool.get('spawned', 0)} spawned, "
            f"{pool.get('idle', 0)} idle, "
            f"{pool.get('ops_dispatched', 0)} ops dispatched, last op "
            + (f"{age:.1f}s before the final tick" if age is not None
               else "never")
        )
    return "\n\n".join(lines)


def format_top(tick: Dict[str, Any], header: Optional[Dict] = None) -> str:
    """Render one telemetry tick as the ``repro top`` text panel."""
    from repro.bench.reporting import format_table

    lines: List[str] = []
    uptime = tick.get("uptime_s", 0.0)
    counters = tick.get("counters") or {}
    lines.append(
        f"repro top — seq {tick.get('seq', '?')}  uptime {uptime:.1f}s  "
        f"queue {tick.get('queue_depth', 0)}  "
        f"inflight {tick.get('inflight', 0)}"
    )
    cache = tick.get("cache") or {}
    lines.append(
        f"queries {counters.get('serve.queries', 0)}  "
        f"runs {counters.get('serve.runs', 0)}  "
        f"batches {counters.get('serve.batches', 0)}  "
        f"fused {counters.get('serve.fused_queries', 0)}  "
        f"cache {cache.get('entries', 0)}/{cache.get('capacity', 0)} "
        f"(hit rate {tick.get('hit_rate', 0.0):.2f})"
    )
    latency = tick.get("latency") or {}
    if latency.get("count"):
        lines.append(
            "latency (cumulative): "
            f"p50 {latency.get('p50', 0.0) * 1e3:.3f} ms  "
            f"p95 {latency.get('p95', 0.0) * 1e3:.3f} ms  "
            f"p99 {latency.get('p99', 0.0) * 1e3:.3f} ms  "
            f"n={latency.get('count', 0)}"
        )
    classes = tick.get("classes") or {}
    rows = []
    for name, c in classes.items():
        rows.append([
            name, c.get("count", 0), f"{c.get('hit_rate', 0.0):.2f}",
            round(c.get("p50_ms", 0.0), 3), round(c.get("p95_ms", 0.0), 3),
            round(c.get("p99_ms", 0.0), 3),
        ])
    if rows:
        win = tick.get("window_s", 0)
        lines.append(format_table(
            ["class", "count", "hit", "p50_ms", "p95_ms", "p99_ms"],
            rows, title=f"sliding window ({win:.0f}s)",
        ))
    pool = tick.get("pool")
    if pool:
        age = pool.get("last_op_age_s")
        age_s = f"{age:.1f}s ago" if age is not None else "never"
        lines.append(
            f"worker pool: {pool.get('spawned', 0)} spawned, "
            f"{pool.get('idle', 0)} idle, "
            f"{pool.get('ops_dispatched', 0)} ops, last op {age_s}"
        )
    else:
        lines.append("worker pool: not spawned (serial backend)")
    sess = tick.get("session") or {}
    if sess:
        lines.append(
            f"session: graph v{sess.get('graph_version', '?')}, "
            f"{sess.get('runs_completed', 0)} runs, "
            f"{sess.get('prepared_graphs', 0)} prepared graphs, "
            f"{sess.get('plans', 0)} plan sets"
        )
    return "\n".join(lines)
