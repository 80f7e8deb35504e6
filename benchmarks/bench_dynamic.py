"""Dynamic-graph gate: warm-started re-convergence beats from-scratch.

The dynamic-graph layer's pitch is that after ``session.apply(batch)``
an ``incremental=True`` run warm-starts from the previous fixpoint —
reseeding only the vertices the mutation actually disturbed and
injecting boundary corrections — instead of re-deriving every value
from cold init. For small batches the disturbed region is a sliver of
the graph, so re-convergence should take a handful of supersteps where
a cold run takes dozens. This harness prices that claim on a powerlaw
graph (20k vertices / 150k edges, 8 machines, lazy-block) over a
seeded stream of small mutation batches (a few inserts + removals
each):

* ``bfs`` — idempotent MIN program: the warm fixpoint must be
  **bit-identical** to the from-scratch fixpoint on the patched graph;
* ``pagerank`` — invertible SUM program: warm and cold fixpoints must
  agree to O(tolerance), the same band any two asynchronous execution
  orders share.

For each batch the session runs incremental-then-cold back to back in
the same session (same patched graph artifacts, same derived weights),
recording supersteps, modeled time, and λ drift of the patched
vertex-cut. The acceptance gates — enforced by CI on the
dynamic-smoke job — are equivalence as above plus, per algorithm,
**≥5× fewer supersteps or ≥3× lower modeled time** summed over the
stream.

The harness writes the same ``repro-mutations`` record file as ``repro
mutate`` (``--events PATH``), so ``repro analyze PATH`` renders the
stream, and the report's per-algorithm totals come from the same
:func:`repro.obs.mutation_report.analyze_mutation_stream` rollup.

Run:   ``python benchmarks/bench_dynamic.py --out BENCH_dynamic.json``
Check: ``python benchmarks/bench_dynamic.py --quick --check BENCH_dynamic.json``
"""

import argparse
import json
import sys

import numpy as np

from repro.graph.generators import powerlaw_graph
from repro.graph.mutation import MutationBatch, apply_batch
from repro.obs.mutation_report import (
    analyze_mutation_stream,
    write_mutation_stream,
)
from repro.session import GraphSession

NUM_VERTICES = 20_000
NUM_EDGES = 150_000
MACHINES = 8
ENGINE = "lazy-block"
BATCH_EDGES = 4  # inserts and removals per batch (a "small" batch)
NUM_BATCHES = 5
QUICK_NUM_BATCHES = 2
PAGERANK_TOL = 1e-4
#: SUM fixpoints agree to O(tolerance) per run, but the stream
#: warm-starts each batch from the previous *approximate* fixpoint, so
#: the inc-vs-cold gap accumulates termination slack across batches;
#: 200x bounds a multi-batch stream where a single run sits near 50x
BAND_FACTOR = 200.0
SUPERSTEP_GATE = 5.0
MODELED_TIME_GATE = 3.0

ALGORITHMS = [
    ("bfs", {"source": 0}, "exact"),
    ("pagerank", {"tolerance": PAGERANK_TOL}, "band"),
]


def _graph():
    return powerlaw_graph(NUM_VERTICES, NUM_EDGES, seed=3)


def mutation_stream(graph, num_batches: int):
    """Deterministic small batches valid against the evolving graph."""
    rng = np.random.default_rng(23)
    cur = graph
    batches = []
    for _ in range(num_batches):
        batch = MutationBatch()
        eids = rng.choice(cur.num_edges, size=BATCH_EDGES, replace=False)
        for e in eids:
            batch.remove_edge(int(cur.src[e]), int(cur.dst[e]))
        ends = rng.integers(0, cur.num_vertices, size=2 * BATCH_EDGES)
        for i in range(BATCH_EDGES):
            batch.add_edge(int(ends[2 * i]), int(ends[2 * i + 1]))
        batches.append(batch)
        cur, _ = apply_batch(cur, batch)
    return batches


def _run_event(result, mode: str, algorithm: str) -> dict:
    ev = {
        "event": "run",
        "mode": mode,
        "algorithm": algorithm,
        "supersteps": result.stats.supersteps,
        "modeled_time_s": result.stats.modeled_time_s,
    }
    if mode == "incremental":
        ev["warm_start"] = int(result.stats.extra.get("warm_start", 0.0))
        ev["reseeded"] = int(result.stats.extra.get("warm_reseeded", 0.0))
        ev["injections"] = int(
            result.stats.extra.get("warm_injections", 0.0)
        )
    return ev


def measure_algorithm(graph, batches, alg, params, equivalence):
    """One session: baseline, then apply/incremental/cold per batch."""
    events = []
    max_err = 0.0
    with GraphSession.open(graph, machines=MACHINES, seed=0) as sess:
        base = sess.run(alg, engine=ENGINE, **params)
        events.append(_run_event(base, "baseline", alg))
        for batch in batches:
            applied = sess.apply(batch)
            events.append({"event": "apply", **applied.to_dict()})
            inc = sess.run(alg, engine=ENGINE, incremental=True, **params)
            cold = sess.run(alg, engine=ENGINE, **params)
            events.append(_run_event(inc, "incremental", alg))
            events.append(_run_event(cold, "cold", alg))
            if equivalence == "exact":
                if not np.array_equal(inc.values, cold.values):
                    max_err = float("inf")
            else:
                max_err = max(
                    max_err,
                    float(np.max(np.abs(inc.values - cold.values))),
                )
    analysis = analyze_mutation_stream(events)
    band = (
        0.0 if equivalence == "exact" else BAND_FACTOR * params["tolerance"]
    )
    return events, {
        "algorithm": alg,
        "equivalence": equivalence,
        "max_error": max_err,
        "error_band": band,
        "equivalent": max_err <= band,
        "totals": analysis["totals"],
    }


def measure(quick: bool) -> dict:
    graph = _graph()
    num_batches = QUICK_NUM_BATCHES if quick else NUM_BATCHES
    batches = mutation_stream(graph, num_batches)
    report = {
        "config": {
            "graph": f"powerlaw({NUM_VERTICES}, {NUM_EDGES})",
            "machines": MACHINES,
            "engine": ENGINE,
            "batch_edges": BATCH_EDGES,
            "num_batches": num_batches,
            "algorithms": [a for a, _, _ in ALGORITHMS],
            "quick": bool(quick),
        },
        "algorithms": {},
    }
    all_events = []
    for alg, params, equivalence in ALGORITHMS:
        events, section = measure_algorithm(
            graph, batches, alg, params, equivalence
        )
        report["algorithms"][alg] = section
        all_events.extend(events)
    return report, all_events


def apply_gate(report: dict) -> bool:
    """Equivalence + (superstep OR modeled-time) speedup per algorithm."""
    acceptance = {
        "gate_superstep_speedup": SUPERSTEP_GATE,
        "gate_modeled_time_speedup": MODELED_TIME_GATE,
    }
    ok = True
    for alg, section in report["algorithms"].items():
        totals = section["totals"]
        ss = totals.get("superstep_speedup") or 0.0
        mt = totals.get("modeled_time_speedup") or 0.0
        alg_ok = section["equivalent"] and (
            ss >= SUPERSTEP_GATE or mt >= MODELED_TIME_GATE
        )
        acceptance[alg] = {
            "equivalent": section["equivalent"],
            "superstep_speedup": round(ss, 2),
            "modeled_time_speedup": round(mt, 2),
            "ok": alg_ok,
        }
        ok = ok and alg_ok
    acceptance["all_ok"] = ok
    report["acceptance"] = acceptance
    return ok


def check_baseline(report: dict, path: str) -> list:
    """Compare against the committed baseline (config + gate state)."""
    with open(path) as fh:
        base = json.load(fh)
    failures = []
    if not base.get("acceptance", {}).get("all_ok", False):
        failures.append(f"baseline {path} did not pass its own gate")
    for key in ("graph", "machines", "engine", "batch_edges", "algorithms"):
        if base["config"].get(key) != report["config"].get(key):
            failures.append(
                f"config drift vs baseline: {key} = "
                f"{report['config'].get(key)!r} vs {base['config'].get(key)!r}"
                " (re-generate BENCH_dynamic.json)"
            )
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", help="write the JSON report here")
    ap.add_argument(
        "--events", metavar="PATH",
        help="also write the mutation event stream as a repro-mutations "
        "record file (feed to `repro analyze PATH`)",
    )
    ap.add_argument(
        "--quick", action="store_true",
        help="shorter mutation stream (CI smoke)",
    )
    ap.add_argument(
        "--check", metavar="BASELINE",
        help="fail on config drift vs a committed BENCH_dynamic.json",
    )
    args = ap.parse_args(argv)
    report, events = measure(quick=args.quick)
    ok = apply_gate(report)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    if args.events:
        write_mutation_stream(args.events, events)
        print(f"wrote {args.events}")
    failures = [] if ok else ["acceptance gate failed (see report)"]
    if args.check:
        failures += check_baseline(report, args.check)
    for alg, acc in report["acceptance"].items():
        if not isinstance(acc, dict):
            continue
        print(
            f"{alg}: equivalent={acc['equivalent']}, superstep speedup "
            f"{acc['superstep_speedup']:.1f}x (gate {SUPERSTEP_GATE:.0f}x), "
            f"modeled-time speedup {acc['modeled_time_speedup']:.1f}x "
            f"(gate {MODELED_TIME_GATE:.0f}x), ok={acc['ok']}",
            file=sys.stderr,
        )
    for f in failures:
        print("FAILURE:", f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
