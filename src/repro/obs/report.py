"""Load a saved trace (JSONL or Chrome format) and summarize the run.

``repro report TRACE`` prints what the paper's figures are made of, for
one run, straight from its trace file:

* the per-phase modeled-time breakdown (gather/apply/scatter for the
  eager engines; local-computation/coherency for the lazy ones), whose
  total reproduces ``RunStats.modeled_time_s``;
* the sync/traffic totals behind Figs 10–11;
* the interval-rule decision log (``turnOnLazy`` outcomes and the comm
  mode chosen at each coherency exchange).

Both on-disk formats round-trip losslessly enough for this: the JSONL
format is the tracer's native record stream; the Chrome format keeps
phase durations as ``"X"`` event ``dur`` fields and the RunStats dump in
``otherData``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import RecordFileError
from repro.obs.sinks import TRACE_FORMAT, expect_format, read_jsonl

__all__ = [
    "TraceData",
    "load_trace",
    "read_record_file",
    "trace_from_records",
    "summarize_trace",
    "format_report",
]

_US = 1e6


@dataclass
class TraceData:
    """Normalized in-memory view of a saved trace."""

    spans: List[Dict[str, Any]] = field(default_factory=list)
    instants: List[Dict[str, Any]] = field(default_factory=list)
    counters: List[Dict[str, Any]] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def stats(self) -> Dict[str, Any]:
        return self.meta.get("stats", {})

    def phase_spans(self) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s.get("cat") == "phase"]


def trace_from_records(
    records: Iterable[Dict[str, Any]], meta: Optional[Dict[str, Any]] = None
) -> TraceData:
    """Sort trace records into a :class:`TraceData`; ``meta`` stands in
    when no ``run_meta`` record carries it. Given ``(tracer.records,
    tracer.meta)`` it builds the view ``load_trace`` reads back from the
    tracer's JSONL export. Other record types are ignored."""
    trace = TraceData()
    for record in records:
        rtype = record.get("type")
        if rtype == "span":
            trace.spans.append(record)
        elif rtype == "instant":
            trace.instants.append(record)
        elif rtype == "counter":
            trace.counters.append(record)
        elif rtype == "run_meta":
            trace.meta.update(record.get("meta") or {})
    if not trace.meta and meta:
        trace.meta.update(meta)
    return trace


def _chrome_records(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """A Chrome ``trace_event`` document as the equivalent trace records."""
    records: List[Dict[str, Any]] = [
        {"type": "run_meta", "meta": doc.get("otherData") or {}}
    ]
    for event in doc.get("traceEvents", []):
        ph = event.get("ph")
        if ph == "X":
            args = dict(event.get("args") or {})
            charges = {}
            for key in list(args):
                if key.startswith("charge_") and key.endswith("_s"):
                    charges[key[len("charge_"):-2]] = args.pop(key)
            t0 = event.get("ts", 0.0) / _US
            t1 = t0 + event.get("dur", 0.0) / _US
            span = {
                "type": "span",
                "name": event.get("name"),
                "cat": event.get("cat"),
                "charges": charges,
                "attrs": args,
            }
            if event.get("cat") == "machine":
                span.update(host_t0=t0, host_t1=t1, model_t0=0.0, model_t1=0.0)
            else:
                span.update(model_t0=t0, model_t1=t1)
            records.append(span)
        elif ph == "i":
            records.append({
                "type": "instant",
                "name": event.get("name"),
                "model_t": event.get("ts", 0.0) / _US,
                "attrs": dict(event.get("args") or {}),
            })
        elif ph == "C":
            records.append({
                "type": "counter",
                "name": event.get("name"),
                "model_t": event.get("ts", 0.0) / _US,
                "value": (event.get("args") or {}).get("value", 0.0),
            })
    return records


def read_record_file(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """:func:`~repro.obs.sinks.read_jsonl`, reading a Chrome trace as a
    ``repro-trace`` header plus its equivalent trace records."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(4096).lstrip()
        if head.startswith("{") and '"traceEvents"' in head:
            fh.seek(0)
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise RecordFileError(f"{path}: {exc}") from None
            return {"format": TRACE_FORMAT}, _chrome_records(doc)
    return read_jsonl(path)


def load_trace(path: str) -> TraceData:
    """Read a ``repro-trace`` file (JSONL or Chrome JSON) into a TraceData."""
    header, records = read_record_file(path)
    expect_format(path, header, (TRACE_FORMAT,))
    return trace_from_records(records)


# ----------------------------------------------------------------------
def summarize_trace(trace: TraceData) -> Dict[str, Any]:
    """Aggregate a trace into the report's tables.

    Returns a dict with ``phases`` (ordered per-phase rows), ``totals``
    (the RunStats dump), ``decisions`` (interval-rule log summary) and
    ``modes`` (coherency-exchange wire-protocol counts).
    """
    phases: Dict[str, Dict[str, float]] = {}
    order: List[str] = []
    for span in trace.phase_spans():
        name = span["name"]
        if name not in phases:
            phases[name] = {
                "count": 0, "model_s": 0.0,
                "compute_s": 0.0, "comm_s": 0.0, "sync_s": 0.0,
            }
            order.append(name)
        row = phases[name]
        row["count"] += 1
        row["model_s"] += span["model_t1"] - span["model_t0"]
        for kind, seconds in (span.get("charges") or {}).items():
            row[f"{kind}_s"] = row.get(f"{kind}_s", 0.0) + seconds
    untracked = trace.meta.get("untracked_charges") or {}
    if untracked:
        phases["(untracked)"] = {
            "count": 0,
            "model_s": sum(untracked.values()),
            "compute_s": untracked.get("compute", 0.0),
            "comm_s": untracked.get("comm", 0.0),
            "sync_s": untracked.get("sync", 0.0),
        }
        order.append("(untracked)")
    total_phase_s = sum(row["model_s"] for row in phases.values())

    # histogram distributions (p50/p95/p99 ride in Histogram.export())
    distributions: List[Dict[str, Any]] = []
    for name in sorted(trace.stats.get("metrics") or {}):
        export = (trace.stats.get("metrics") or {}).get(name)
        if not isinstance(export, dict) or "p50" not in export:
            continue  # gauges/counters have no quantiles
        distributions.append({
            "name": name,
            "count": export.get("count", 0),
            "mean": export.get("mean", 0.0),
            "p50": export.get("p50", 0.0),
            "p95": export.get("p95", 0.0),
            "p99": export.get("p99", 0.0),
            "max": export.get("max", 0.0),
        })

    # straggler / gating digest (full detail: ``repro analyze``)
    from repro.obs.critical_path import analyze_trace

    analysis = analyze_trace(trace)
    gating: Dict[str, Any] = {}
    stragglers = analysis.get("stragglers") or {}
    if analysis["supersteps"]:
        md = analysis.get("machines_detail") or {}
        gating = {
            "channels": analysis.get("gated_channels") or {},
            "machines": {
                m: count
                for m, count in enumerate(md.get("gated_supersteps") or [])
                if count
            },
            "straggler": stragglers.get("machine"),
            "imbalance": stragglers.get("imbalance"),
            "replication_factor": stragglers.get("replication_factor"),
        }

    decisions = [
        i for i in trace.instants if i.get("name") == "interval-decision"
    ]
    lazy_on = sum(1 for d in decisions if (d.get("attrs") or {}).get("do_local"))
    modes: Dict[str, int] = {}
    for i in trace.instants:
        if i.get("name") == "coherency-exchange":
            mode = (i.get("attrs") or {}).get("mode", "?")
            modes[mode] = modes.get(mode, 0) + 1

    return {
        "engine": trace.meta.get("engine", "?"),
        "algorithm": trace.meta.get("algorithm", "?"),
        "phases": [{"name": n, **phases[n]} for n in order],
        "total_phase_s": total_phase_s,
        "totals": trace.stats,
        "distributions": distributions,
        "decisions": {
            "total": len(decisions),
            "lazy_on": lazy_on,
            "lazy_off": len(decisions) - lazy_on,
        },
        "modes": modes,
        "gating": gating,
        # present when the trace came from a GraphService (serve
        # --trace-out): the closing serve.* counter/histogram export
        "service": trace.meta.get("service_stats") or {},
    }


def format_report(summary: Dict[str, Any]) -> str:
    """Render a summary as the plain-text report the CLI prints."""
    from repro.bench.reporting import format_table

    lines: List[str] = []
    lines.append(
        f"trace report — {summary['engine']}/{summary['algorithm']}"
    )
    total = summary["total_phase_s"]
    rows = []
    for row in summary["phases"]:
        share = 100.0 * row["model_s"] / total if total > 0 else 0.0
        rows.append([
            row["name"], int(row["count"]), round(row["model_s"], 6),
            round(share, 1), round(row.get("compute_s", 0.0), 6),
            round(row.get("comm_s", 0.0), 6), round(row.get("sync_s", 0.0), 6),
        ])
    rows.append(["total", "", round(total, 6), 100.0 if total > 0 else 0.0,
                 "", "", ""])
    lines.append(format_table(
        ["phase", "count", "model_s", "%", "compute_s", "comm_s", "sync_s"],
        rows, title="per-phase modeled time",
    ))

    stats = summary["totals"]
    if stats:
        total_rows = []
        for key, label in (
            ("modeled_time_s", "modeled time (s)"),
            ("global_syncs", "global syncs"),
            ("comm_bytes", "traffic (bytes)"),
            ("comm_messages", "messages"),
            ("comm_rounds", "comm rounds"),
            ("supersteps", "supersteps"),
            ("coherency_points", "coherency points"),
            ("local_iterations", "local iterations"),
            ("edge_traversals", "edge traversals"),
            ("vertex_updates", "vertex updates"),
            ("converged", "converged"),
        ):
            if key in stats:
                value = stats[key]
                if isinstance(value, float):
                    value = round(value, 6)
                total_rows.append([label, value])
        lines.append(format_table(
            ["metric", "value"], total_rows, title="run totals (RunStats)",
        ))

    distributions = summary.get("distributions") or []
    if distributions:
        dist_rows = []
        for d in distributions:
            dist_rows.append([
                d["name"], int(d["count"]), round(float(d["mean"]), 4),
                round(float(d["p50"]), 4), round(float(d["p95"]), 4),
                round(float(d["p99"]), 4), round(float(d["max"]), 4),
            ])
        lines.append(format_table(
            ["metric", "count", "mean", "p50", "p95", "p99", "max"],
            dist_rows,
            title="distributions (staleness / exchange mass quantiles)",
        ))

    decisions = summary["decisions"]
    if decisions["total"]:
        lines.append(
            f"interval rule: {decisions['total']} decisions — "
            f"lazy on {decisions['lazy_on']}, off {decisions['lazy_off']}"
        )
    if summary["modes"]:
        mode_text = ", ".join(
            f"{mode}×{count}" for mode, count in sorted(summary["modes"].items())
        )
        lines.append(f"coherency exchanges by mode: {mode_text}")

    service = summary.get("service") or {}
    if service:
        srv_rows = []
        for key in sorted(service):
            value = service[key]
            if isinstance(value, dict):
                continue  # histograms render below
            shown = round(value, 3) if isinstance(value, float) else value
            srv_rows.append([key, shown])
        lines.append(format_table(
            ["counter", "value"], srv_rows,
            title="service (serve.* counters at close)",
        ))
        latency = service.get("serve.latency_s")
        if isinstance(latency, dict) and latency.get("count"):
            lat_rows = [
                [k, round(float(latency[k]) * 1e3, 3)]
                for k in ("p50", "p95", "p99", "mean", "min", "max")
                if k in latency
            ]
            lat_rows.append(["count", int(latency.get("count", 0))])
            lines.append(format_table(
                ["quantile", "ms"], lat_rows, title="service latency",
            ))

    gating = summary.get("gating") or {}
    if gating:
        parts = []
        if gating.get("machines"):
            parts.append("machines " + ", ".join(
                f"{m}×{c}" for m, c in sorted(gating["machines"].items())
            ))
        if gating.get("channels"):
            parts.append("channels " + ", ".join(
                f"{ch}×{c}" for ch, c in sorted(gating["channels"].items())
            ))
        line = "supersteps gated by: " + "; ".join(parts)
        imb = gating.get("imbalance")
        if imb is not None and gating.get("straggler") is not None:
            line += (
                f"\nstraggler machine {gating['straggler']} — busy imbalance "
                f"max/mean = {imb:.3f} (details: repro analyze)"
            )
        lines.append(line)
    return "\n\n".join(lines)
