"""Policy ablation: the coherency controllers vs the paper rule.

Two entry points share this file (same shape as ``bench_kernels.py``):

* **pytest-benchmark test** (below) — one deterministic sweep of the
  controller matrix on the small workload, asserting the acceptance
  criteria so a behavioural regression in the policy layer fails the
  benchmark suite;
* **the ablation harness** (``python benchmarks/bench_policy_ablation.py
  --out BENCH_policy.json``) — runs PageRank on road-ca-mini/8 machines
  under every shipped controller on both lazy engines (plus the
  ``simple``/``never`` strawman rules on LazyBlockAsync), with the tracer
  and coherency lens on, and records per-row: coherency points, syncs,
  traffic, the max deviation from the single-machine
  ``pagerank_reference`` fixpoint, and the LensAuditor verdict.

Acceptance (attached to the report and enforced by ``--check`` / the
pytest test): the ``staleness`` and ``batched`` controllers cut the
LazyVertexAsync coherency-point count by at least 20% against the
``paper`` baseline, every controller's final values stay within the
repo's PageRank validation tolerance of the reference fixpoint, and
every audited run is clean — pending mass drains at each exchange and
replicas agree (zero drift) after convergence.
"""

import argparse
import json
import sys

import numpy as np

import pytest

from repro.algorithms import PageRankDeltaProgram
from repro.algorithms.reference import pagerank_reference
from repro.core.policy import get_policy
from repro.obs.audit import LensAuditor
from repro.obs.report import trace_from_records
from repro.obs.tracer import Tracer
from repro.run_api import prepare_graph, run

GRAPH = "road-ca-mini"
MACHINES = 8
LAZY_VERTEX_POLICIES = ("paper", "staleness", "batched")
#: lazy-block also pins Fig 8(a)'s strawman rules (``simple``, ``never``)
LAZY_BLOCK_POLICIES = ("paper", "staleness", "batched", "simple", "never")
#: counters ``--check`` compares exactly against the committed baseline
CHECKED_COUNTERS = (
    "coherency_points", "supersteps", "global_syncs", "comm_messages",
    "comm_bytes",
)
#: the repo's validation-standard PageRank tolerance (``repro validate``)
VALUE_TOL = 5e-2
CUT_TARGET = 0.20
DRIFT_ATOL = 1e-9


def _reference():
    """The exact single-machine PageRank fixpoint for the workload."""
    g = prepare_graph(GRAPH, PageRankDeltaProgram(), seed=0)
    return pagerank_reference(g)


def _measure(engine, policy_name, reference):
    """One audited run: stats, value deviation and the auditor verdict."""
    tracer = Tracer()
    result = run(
        GRAPH, "pagerank", engine=engine, machines=MACHINES,
        policy=policy_name, tracer=tracer, lens=True,
    )
    trace = trace_from_records(tracer.records, tracer.meta)
    anomalies = LensAuditor(trace).audit()
    finals = [i for i in trace.instants if i.get("name") == "lens-final"]
    drift = float((finals[-1].get("attrs") or {}).get("drift", 0.0))
    stats = result.stats
    return {
        "policy": get_policy(policy_name).to_dict(),
        "coherency_points": int(stats.coherency_points),
        "supersteps": int(stats.supersteps),
        "global_syncs": int(stats.global_syncs),
        "comm_bytes": float(stats.comm_bytes),
        "comm_messages": int(stats.comm_messages),
        "modeled_time_s": float(stats.modeled_time_s),
        "converged": bool(stats.converged),
        "max_dev_from_reference": float(
            np.max(np.abs(result.values - reference))
        ),
        "final_drift": drift,
        "anomalies": [str(a) for a in anomalies],
    }


def run_matrix(quick=False):
    """The full controller × engine matrix plus its acceptance verdict."""
    reference = _reference()
    rows = {}
    for policy in LAZY_VERTEX_POLICIES:
        rows[f"lazy-vertex/{policy}"] = _measure(
            "lazy-vertex", policy, reference
        )
    if not quick:
        for policy in LAZY_BLOCK_POLICIES:
            rows[f"lazy-block/{policy}"] = _measure(
                "lazy-block", policy, reference
            )

    base = rows["lazy-vertex/paper"]["coherency_points"]
    cuts = {}
    for policy in ("staleness", "batched"):
        points = rows[f"lazy-vertex/{policy}"]["coherency_points"]
        cuts[policy] = 1.0 - points / base if base else 0.0
    acceptance = {
        "baseline_coherency_points": base,
        "cut_fraction": cuts,
        "cut_ok": all(c >= CUT_TARGET for c in cuts.values()),
        "values_ok": all(
            r["max_dev_from_reference"] <= VALUE_TOL for r in rows.values()
        ),
        "audits_clean": all(
            not r["anomalies"] and r["final_drift"] <= DRIFT_ATOL
            for r in rows.values()
        ),
        "all_converged": all(r["converged"] for r in rows.values()),
    }
    acceptance["ok"] = (
        acceptance["cut_ok"]
        and acceptance["values_ok"]
        and acceptance["audits_clean"]
        and acceptance["all_converged"]
    )
    return {
        "schema": "bench-policy/v1",
        "workload": {
            "graph": GRAPH, "algorithm": "pagerank", "machines": MACHINES,
        },
        "quick": bool(quick),
        "rows": rows,
        "acceptance": acceptance,
    }


# ======================================================================
# pytest-benchmark entry point
# ======================================================================
def test_policy_ablation(benchmark, run_once):
    report = run_once(benchmark, run_matrix, quick=True)
    acc = report["acceptance"]
    benchmark.extra_info["cut_fraction"] = acc["cut_fraction"]
    assert acc["audits_clean"], report["rows"]
    assert acc["values_ok"], report["rows"]
    assert acc["cut_ok"], acc["cut_fraction"]


# ======================================================================
# BENCH_policy.json harness (CLI)
# ======================================================================
def run_harness(args):
    report = run_matrix(quick=args.quick)
    out = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
        print(f"wrote {args.out}")
    else:
        print(out)
    failures = []
    acc = report["acceptance"]
    if not acc["cut_ok"]:
        failures.append(
            f"coherency-point cut below {CUT_TARGET:.0%}: "
            f"{acc['cut_fraction']}"
        )
    if not acc["values_ok"]:
        failures.append("final values drifted past the validation tolerance")
    if not acc["audits_clean"]:
        failures.append("LensAuditor flagged anomalies or residual drift")
    if not acc["all_converged"]:
        failures.append("a controller failed to converge the workload")
    if args.check:
        with open(args.check) as fh:
            base = json.load(fh)
        # the simulator is deterministic: any drift in a row's counters
        # against the committed baseline is a behaviour change
        for label, row in base["rows"].items():
            new = report["rows"].get(label)
            if new is None:
                continue  # baseline row not run (e.g. --quick)
            for counter in CHECKED_COUNTERS:
                if new[counter] != row[counter]:
                    failures.append(
                        f"{label}: {counter} {new[counter]} "
                        f"vs baseline {row[counter]}"
                    )
    for f in failures:
        print("REGRESSION:", f, file=sys.stderr)
    return 1 if failures else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", help="write the JSON report here")
    ap.add_argument(
        "--quick", action="store_true",
        help="lazy-vertex rows only (CI smoke)",
    )
    ap.add_argument(
        "--check", metavar="BASELINE",
        help="fail (exit 1) if any row's counters drift vs this JSON",
    )
    return run_harness(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
