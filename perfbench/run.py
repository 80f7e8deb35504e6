"""Lifecycle benchmark: cold batch, warm analytics, mutate-refresh, served.

One workload per invocation::

    python3 perfbench/run.py --workload cold-batch --seed 1 --seconds 20 --trace 0

prints a ``facts`` line (host, input sizes, λ per prepared variant, op
counts and sample counts), a ``detail`` line (workload-specific numbers
such as the served query tail and mutation latency) and, last, one JSON
result line ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones (a layer an op
never ran reports 0). Every workload with a summary table::

    python3 perfbench/run.py --all [--seed 1] [--seconds 20]

The program is imported from ``src/`` of the checkout this script sits
in; without it the script exits non-zero before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bootstrap() -> None:
    """Import the program from this checkout's sources, nothing else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources at {src}/repro")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.workloads import OUT_DIR, WORKLOADS, host_facts

    os.chdir(ROOT)  # spans and traces go under the checkout
    os.makedirs(OUT_DIR, exist_ok=True)
    out = WORKLOADS[workload](seed, seconds, trace)
    if trace:
        wanted = spec["per_layer"]
        # a layer the workload never ran did no work: 0
        values = {m["name"]: out.metrics.get(m["name"], 0.0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in out.metrics]
        if missing:
            raise RuntimeError(f"{workload} did not measure {missing}")
        values = {m["name"]: out.metrics[m["name"]] for m in wanted}
    facts = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
             **host_facts(), **out.facts}
    print(json.dumps({"facts": facts}))
    detail = dict(out.detail)
    detail["error_frac"] = out.failed / out.attempted if out.attempted else 1.0
    if out.problems:
        detail["problems"] = out.problems
    print(json.dumps({"detail": detail}))
    return {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }


def run_all(spec: dict, seed: int, seconds: float) -> int:
    """Each workload in its own process (peak RSS is per process), then a table."""
    status = 0
    rows = []
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
        for name, m in result["metrics"].items():
            rows.append((w["name"], name, m["value"], m["unit"]))
        tail = detail.get("query_tail_ms")
        for name, value, unit in (
            ("query_p50_ms", detail.get("query_p50_ms"), "ms"),
            (f"query_p{tail['percentile']}_ms" if tail else "", tail and tail["value"], "ms"),
            ("mutate_p50_ms", detail.get("mutate_p50_ms"), "ms"),
            ("served_qps", detail.get("served_qps"), "1/s"),
        ):
            if value is not None:
                rows.append((w["name"], name, value, unit))
        rows.append((w["name"], "error_frac", detail["error_frac"], "1"))
        if not result["correct"]:
            status = 1
    for workload, name, value, unit in rows:
        print(f"{workload:16s} {name:18s} {value:14.6g} {unit}")
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--all", action="store_true", help="run every workload, print a table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload or --all")
    bootstrap()
    if args.all:
        return run_all(spec, args.seed, args.seconds)
    result = run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
