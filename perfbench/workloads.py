"""The four lifecycle workloads, untraced (end-to-end) and traced (ledger).

Closed loops (one client, the next op starts when the last one ends):

* ``cold-batch`` — every op is a cold ``repro.run`` (prepare, partition,
  plan and engine each time);
* ``warm-analytics`` — ``GraphSession.run`` against a session whose
  three prepared variants were built during setup;
* ``mutate-refresh`` — ``GraphSession.apply`` of a small seeded batch,
  then ``GraphSession.run(..., incremental=True)``.

Open loop: ``served-mixed`` — one generator thread submits Zipf-repeating
bfs / ppr point queries and periodic mutation barriers to a
``GraphService`` at a fixed rate; each query is timed from its scheduled
send time.

Each closed-loop cycle has a majority class (more than half of every
prefix of the cycle), so the median op is always an op of that class and
never falls into the gap between classes. Whole cycles run until the
measured time reaches ``--seconds`` (within half a cycle), so the class
mix behind ``ops_per_min`` and ``modeled_s_per_op`` is the same in
every run.

A traced run (``--trace 1``) drives every op twice: once through the
public call the untraced run makes, and once through each layer's
public functions (:mod:`perfbench.pipeline`) with a span per call. It
fails the run unless both return bit-identical answers and every op's
layer self times plus ``untracked`` add up to its wall time.

Untraced host-time metrics are scaled to a nominal host speed
(:mod:`perfbench.hostspeed`); the unscaled ones are in ``detail``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.algorithms import make_program
from repro.core import build_lazy_graph
from repro.obs.request_trace import LEG_NAMES
from repro.serve import GraphService
from repro.session import GraphSession

from perfbench import inputs
from perfbench.checks import WARM_BAND, Checker
from perfbench.hostspeed import HostSpeed
from perfbench.inputs import ENGINE, MACHINES, PAGERANK_TOL
from perfbench.ledger import (
    UNTRACKED,
    Ledger,
    median,
    op_breakdown,
    op_walls,
    tail_percentile,
    tiling_errors,
)
from perfbench.pipeline import LayeredPipeline

SETUP_REPEATS = 3

#: op cycles; the first-listed class is a strict majority of every prefix
CYCLES = {
    "cold-batch": ["sssp", "sssp", "pagerank", "sssp", "cc"],
    "warm-analytics": ["sssp", "sssp", "pagerank", "sssp", "bfs", "sssp", "cc"],
    "mutate-refresh": ["bfs", "bfs", "pagerank", "bfs", "sssp"],
}

# served-mixed traffic. The service's closed-loop miss capacity on the
# benchmark graph is ~36 queries/s on a 2-core x86 host; the offered
# rate is half of it. Each 53-query window between mutation barriers
# repeats 10 distinct keys (~80% cache hits), so the median query is a
# hit; 20 s at 18/s is six whole windows and two thirds of a seventh.
SERVE_RATE = 18.0
SERVE_MUTATE_EVERY = 54
SERVE_BFS_SHARE = 0.75
SERVE_POOL = 8
SERVE_ZIPF = 2.0
SERVE_MAX_WAIT = 0.002
SERVE_CACHE = 128

OUT_DIR = ".perfbench_out"


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: workload-specific numbers that are not metrics of every workload
    detail: Dict[str, Any] = field(default_factory=dict)
    facts: Dict[str, Any] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(f"wrong answer: {what}")


def host_facts() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def variant_facts(graph, jobs: Dict[str, Tuple[str, dict]], session=None) -> List[Dict[str, Any]]:
    """|V|, |E| and λ per prepared variant (label -> a job that uses it).

    λ is read from the session's own cut (one traced job each) when a
    session is given, else from a fresh ``build_lazy_graph``.
    """
    facts = []
    for label, (alg, params) in jobs.items():
        g = repro.prepare_graph(graph, make_program(alg, **params))
        if session is None:
            lam = build_lazy_graph(g, MACHINES, seed=0).replication_factor
        else:
            traced = session.run(alg, engine=ENGINE, trace=True, **params)
            lam = traced.trace.meta["replication_factor"]
        facts.append({"variant": label, "V": g.num_vertices, "E": g.num_edges,
                      "lambda": float(lam)})
    return facts


def all_variants(pools: Dict[str, List[int]]) -> Dict[str, Tuple[str, dict]]:
    return {
        "directed": ("bfs", {"source": pools["bfs"][0]}),
        "directed+weights": ("sssp", {"source": pools["sssp"][0]}),
        "symmetric": ("cc", {}),
    }


def timed_setup(make: Callable[[], Tuple[Any, Callable[[], None]]], speed: HostSpeed,
                repeats: int = SETUP_REPEATS) -> Tuple[float, Any]:
    """Run ``make`` ``repeats`` times; median time, keep the last state.
    The host speed is sampled after each setup."""
    times, state = [], None
    for i in range(repeats):
        t0 = time.perf_counter()
        state, close = make()
        times.append(time.perf_counter() - t0)
        speed.after_setup()
        if i < repeats - 1:
            close()
    return median(times), state


# ----------------------------------------------------------------------
# closed loops
@dataclass
class OpSample:
    cls: str
    wall: float
    modeled: float
    #: time the op took out of the run's budget (a traced op runs twice)
    spent: float


def closed_loop(seconds: float, cycle_ops: Callable[[], List[Tuple[str, dict]]],
                do_op: Callable[[str, dict], OpSample],
                speed: HostSpeed) -> Tuple[List[OpSample], float]:
    """Whole cycles until the summed op time is within half a cycle of
    ``seconds``; ``do_op`` times its own op and checks it afterwards.

    Also returns the peak RSS after setup and the first cycle: a fixed
    amount of work, where the peak at the end would grow with however
    many cycles the host's speed allowed (the allocator keeps freed
    memory of repeated cold runs). The host speed is sampled between ops.
    """
    samples: List[OpSample] = []
    measured = 0.0
    cycles = 0
    while True:
        for alg, params in cycle_ops():
            s = do_op(alg, params)
            samples.append(s)
            measured += s.spent
            speed.after_op(s.spent)
        cycles += 1
        if cycles == 1:
            rss = peak_rss_mb()
        if measured + 0.5 * measured / cycles >= seconds:
            return samples, rss


def closed_metrics(out: Outcome, loop: Tuple[List[OpSample], float], setup_s: float) -> None:
    samples, rss = loop
    walls = [s.wall for s in samples]
    raw = {
        "setup_s": setup_s,
        "op_s_p50": median(walls),
        "ops_per_min": 60.0 * len(walls) / sum(walls),
    }
    f = out.speed.ops_factor
    out.metrics.update({
        "setup_s": raw["setup_s"] / out.speed.setup_factor,
        "op_s_p50": raw["op_s_p50"] / f,
        "ops_per_min": raw["ops_per_min"] * f,
        "modeled_s_per_op": float(np.mean([s.modeled for s in samples])),
        "peak_rss_mb": rss,
    })
    host_detail(out, raw)
    out.detail["peak_rss_mb_at_end"] = peak_rss_mb()
    by_class: Dict[str, List[float]] = {}
    for s in samples:
        by_class.setdefault(s.cls, []).append(s.wall)
    out.facts["ops_per_class"] = {c: len(w) for c, w in by_class.items()}
    out.detail["op_s_p50_per_class"] = {c: median(w) for c, w in by_class.items()}
    out.facts["op_s_p50_samples"] = len(walls)
    tail = tail_percentile(walls)
    out.detail["op_tail_s"] = {"percentile": tail[0], "value": tail[1]} if tail else None


def host_detail(out: Outcome, raw: Dict[str, float]) -> None:
    """The host-speed factors and the unscaled host-time metrics."""
    speed = out.speed
    out.detail["host_speed_factor"] = {"setup": speed.setup_factor}
    if speed.ops:
        out.detail["host_speed_factor"]["ops"] = speed.ops_factor
    out.detail["raw"] = raw
    out.facts["host_speed_samples"] = {"setup": len(speed.setup), "ops": len(speed.ops)}


class Fixed:
    """Reference checks for ops on the fixed (never mutated) graph."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self.sym = repro.prepare_graph(graph, make_program("cc"))
        self.weighted = repro.prepare_graph(graph, make_program("sssp"))
        self.checker = Checker(MACHINES)

    def precompute(self, pools: Dict[str, List[int]]) -> None:
        """Every reference the ops can ask for, before anything is measured,
        so the check's own allocations come before the memory samples."""
        c = self.checker
        c.pagerank_ref("g", self.graph)
        c.cc_ref("g", self.sym)
        for source in pools.get("bfs", ()):
            c.bfs_ref("g", self.graph, source)
        for source in pools.get("sssp", ()):
            c.sssp_ref("g", self.weighted, source)

    def check(self, alg: str, params: dict, values) -> bool:
        c = self.checker
        if alg == "pagerank":
            return c.pagerank("g", self.graph, params["tolerance"], values)
        if alg == "sssp":
            return c.sssp("g", self.weighted, params["source"], values)
        if alg == "bfs":
            return c.bfs("g", self.graph, [params["source"]], values)
        if alg == "cc":
            return c.cc("g", self.sym, values)
        raise ValueError(alg)


def same_answer(a, b) -> bool:
    """Bit-identical values and identical run counters."""
    return (
        np.array_equal(a.values, b.values)
        and a.stats.supersteps == b.stats.supersteps
        and a.stats.modeled_time_s == b.stats.modeled_time_s
        and a.stats.comm_bytes == b.stats.comm_bytes
    )


class Traced:
    """Traced-run bookkeeping: both ledgers plus per-op counts."""

    def __init__(self) -> None:
        self.public = Ledger()  # the public call the untraced run makes
        self.layered = Ledger()  # the same op through each layer's calls
        self.results: List[Any] = []
        self.lambdas: List[float] = []
        self.rebuilt: List[float] = []
        self.reseeded: List[float] = []
        self.injections: List[float] = []

    def record(self, out: Outcome, public, layered, variant, label: str) -> None:
        if not same_answer(public, layered):
            out.fail(f"traced answer differs from the untraced op: {label}")
        self.results.append(layered)
        self.lambdas.append(float(variant.pgraph.replication_factor))


def layer_samples(ledger: Ledger) -> Dict[str, List[float]]:
    """Layer -> self time per op, over the ops in which the layer ran."""
    per_layer: Dict[str, List[float]] = {}
    for layers in op_breakdown(ledger).values():
        for name, t in layers.items():
            per_layer.setdefault(name, []).append(t)
    return per_layer


CLOSED_LAYERS = (
    "graph.symmetrize", "graph.weights", "graph.apply_batch",
    "partition.assign", "partition.build", "partition.patch", "kernels.plan",
    "runtime.engine_init", "runtime.engine_run", "runtime.collect_state",
    "runtime.warm_plan",
)


def closed_layers(out: Outcome, tr: Traced, seed: int, workload: str) -> None:
    """Per-layer metrics of a closed-loop traced run."""
    for led, which in ((tr.public, "public"), (tr.layered, "layered")):
        for e in tiling_errors(led):
            out.fail(f"{which} ledger does not tile: {e}")
    layered = layer_samples(tr.layered)
    public = layer_samples(tr.public)
    m: Dict[str, float] = {}
    for name in CLOSED_LAYERS:
        if layered.get(name):
            m[f"{name}_s"] = median(layered[name])
    for name in ("session.apply", "session.run"):
        if public.get(name):
            m[f"{name}_s"] = median(public[name])
    m["untracked_s"] = median(layered[UNTRACKED])
    breakdown = op_breakdown(tr.layered)
    per_step = [
        breakdown[i].get("runtime.engine_run", 0.0) / r.stats.supersteps
        for i, r in enumerate(tr.results) if r.stats.supersteps
    ]
    if per_step:
        m["runtime.host_s_per_superstep"] = median(per_step)
    stats = [r.stats for r in tr.results]
    imbalance = [s.busy_max_total_s / s.busy_mean_total_s
                 for s in stats if s.busy_mean_total_s > 0]
    m.update({
        "partition.lambda": median(tr.lambdas),
        "core.supersteps": median([s.supersteps for s in stats]),
        "core.coherency_points": median([s.coherency_points for s in stats]),
        "core.global_syncs": median([s.global_syncs for s in stats]),
        "core.edge_traversals": median([s.edge_traversals for s in stats]),
        "comms.bytes": median([s.comm_bytes for s in stats]),
        "comms.messages": median([s.comm_messages for s in stats]),
        "cluster.compute_s": median([s.compute_time_s for s in stats]),
        "cluster.comm_s": median([s.comm_time_s for s in stats]),
        "cluster.sync_s": median([s.sync_time_s for s in stats]),
    })
    if imbalance:
        m["cluster.imbalance"] = median(imbalance)
    for key, values in (("partition.machines_rebuilt", tr.rebuilt),
                        ("runtime.warm_reseeded", tr.reseeded),
                        ("runtime.warm_injections", tr.injections)):
        if values:
            m[key] = median(values)
    untraced = sum(op_walls(tr.public).values())
    m["obs.trace_overhead_frac"] = sum(op_walls(tr.layered).values()) / untraced - 1.0
    out.metrics.update(m)
    out.facts["traced_ops"] = len(tr.results)
    tr.layered.write(os.path.join(OUT_DIR, f"spans-{workload}-s{seed}.jsonl"))
    tr.public.write(os.path.join(OUT_DIR, f"spans-{workload}-public-s{seed}.jsonl"))


# ----------------------------------------------------------------------
def cold_batch(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()

    def make():
        graph = inputs.make_graph()
        pool = inputs.pick_sources(graph, inputs.stream(seed, "sources"), inputs.SOURCE_POOL)
        return (graph, pool), (lambda: None)

    setup_s, (graph, pool) = timed_setup(make, out.speed, 1 if trace else SETUP_REPEATS)
    fixed = Fixed(graph)
    fixed.precompute({"sssp": pool})
    rng = inputs.stream(seed, "ops")
    tr = Traced() if trace else None

    def do_op(alg: str, params: dict) -> OpSample:
        t0 = time.perf_counter()
        result = repro.run(graph, alg, engine=ENGINE, machines=MACHINES, **params)
        wall = time.perf_counter() - t0
        if tr is not None:
            tr.public.add_op(alg, t0, t0 + wall)
            pipe = LayeredPipeline(graph, tr.layered, MACHINES, ENGINE)
            with tr.layered.op(alg):
                layered, variant = pipe.run(alg, params)
            tr.record(out, result, layered, variant, alg)
        spent = time.perf_counter() - t0
        out.check(fixed.check(alg, params, result.values), f"{alg} {params}")
        return OpSample(alg, wall, result.stats.modeled_time_s, spent)

    loop = closed_loop(
        seconds,
        lambda: inputs.cycle_schedule(CYCLES["cold-batch"], {"sssp": pool}, rng),
        do_op, out.speed,
    )
    out.facts["variants"] = variant_facts(graph, all_variants({"bfs": pool, "sssp": pool}))
    if trace:
        closed_layers(out, tr, seed, "cold-batch")
    else:
        closed_metrics(out, loop, setup_s)
    return out


def warm_analytics(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()

    def make():
        graph = inputs.make_graph()
        pools = {
            alg: inputs.pick_sources(graph, inputs.stream(seed, f"sources-{alg}"),
                                     inputs.SOURCE_POOL)
            for alg in ("bfs", "sssp")
        }
        session = GraphSession.open(graph, machines=MACHINES)
        # one short job per prepared variant: directed, +weights, symmetric
        for alg in ("bfs", "sssp", "cc"):
            params = {"source": pools[alg][0]} if alg in pools else {}
            session.run(alg, engine=ENGINE, **params)
        return (graph, pools, session), session.close

    setup_s, (graph, pools, session) = timed_setup(make, out.speed, 1 if trace else SETUP_REPEATS)
    fixed = Fixed(graph)
    fixed.precompute(pools)
    rng = inputs.stream(seed, "ops")
    tr = pipe = None
    if trace:
        tr = Traced()
        pipe = LayeredPipeline(graph, tr.layered, MACHINES, ENGINE)
        for alg in ("bfs", "sssp", "cc"):
            pipe.prepare(make_program(alg))

    def do_op(alg: str, params: dict) -> OpSample:
        t0 = time.perf_counter()
        if tr is None:
            result = session.run(alg, engine=ENGINE, **params)
            wall = time.perf_counter() - t0
        else:
            with tr.public.op(alg) as root:
                with tr.public.span("session.run"):
                    result = session.run(alg, engine=ENGINE, **params)
            wall = root.dur
            with tr.layered.op(alg):
                layered, variant = pipe.run(alg, params)
            tr.record(out, result, layered, variant, alg)
        spent = time.perf_counter() - t0
        out.check(fixed.check(alg, params, result.values), f"{alg} {params}")
        return OpSample(alg, wall, result.stats.modeled_time_s, spent)

    try:
        loop = closed_loop(
            seconds,
            lambda: inputs.cycle_schedule(CYCLES["warm-analytics"], pools, rng),
            do_op, out.speed,
        )
        out.facts["variants"] = variant_facts(graph, all_variants(pools), session)
    finally:
        session.close()
    if trace:
        closed_layers(out, tr, seed, "warm-analytics")
    else:
        closed_metrics(out, loop, setup_s)
    return out


def mutate_refresh(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()

    def make():
        graph = inputs.make_graph()
        jobs: Dict[str, dict] = {"pagerank": {"tolerance": PAGERANK_TOL}}
        for alg in ("bfs", "sssp"):
            source = inputs.pick_sources(graph, inputs.stream(seed, f"sources-{alg}"), 1)[0]
            jobs[alg] = {"source": source}
        session = GraphSession.open(graph, machines=MACHINES)
        # the converged runs every incremental op warm-starts from
        for alg, params in jobs.items():
            session.run(alg, engine=ENGINE, **params)
        return (graph, jobs, session), session.close

    setup_s, (graph, jobs, session) = timed_setup(make, out.speed, 1 if trace else SETUP_REPEATS)
    tr = pipe = None
    if trace:
        tr = Traced()
        pipe = LayeredPipeline(graph, tr.layered, MACHINES, ENGINE)
        for alg, params in jobs.items():
            pipe.run(alg, params)
    checker = Checker(MACHINES)
    current = graph
    weighted = repro.prepare_graph(graph, make_program("sssp"))
    batch_rng = inputs.stream(seed, "batches")
    version = 0
    lambdas: Dict[str, List[float]] = {}
    warm_pageranks: List[Tuple[int, Any, float, np.ndarray]] = []

    def do_op(alg: str, params: dict) -> OpSample:
        nonlocal current, weighted, version
        batch = inputs.mutation_batch(current, batch_rng)
        t0 = time.perf_counter()
        if tr is None:
            applied = session.apply(batch)
            result = session.run(alg, engine=ENGINE, incremental=True, **params)
            wall = time.perf_counter() - t0
        else:
            with tr.public.op(alg) as root:
                with tr.public.span("session.apply"):
                    applied = session.apply(batch)
                with tr.public.span("session.run"):
                    result = session.run(alg, engine=ENGINE, incremental=True, **params)
            wall = root.dur
            with tr.layered.op(alg):
                patches = pipe.apply(batch)
                layered, variant = pipe.run(alg, params, incremental=True)
            tr.record(out, result, layered, variant, f"{alg} at v{version + 1}")
            tr.rebuilt.extend(p.machines_rebuilt for p in patches)
            if pipe.last_warm is not None:
                tr.reseeded.append(pipe.last_warm.num_reseeded)
                tr.injections.append(pipe.last_warm.num_injections)
        spent = time.perf_counter() - t0
        for label, stats in applied.patches.items():
            lambdas.setdefault(label, [stats.lambda_before]).append(stats.lambda_after)
        version += 1
        current = inputs.advance(current, batch)
        weighted = inputs.advance(weighted, batch)
        out.facts["warm_starts"] = out.facts.get("warm_starts", 0) + int(
            result.stats.extra.get("warm_start", 0))
        if alg == "pagerank":
            ok = checker.pagerank(version, current, params["tolerance"], result.values)
            # the fresh run it is compared with runs after the loop
            warm_pageranks.append((version, current, params["tolerance"], result.values))
        elif alg == "bfs":
            ok = checker.bfs(version, current, [params["source"]], result.values)
        else:
            ok = checker.sssp(version, weighted, params["source"], result.values)
        out.check(ok, f"incremental {alg} at graph version {version}")
        return OpSample(alg, wall, result.stats.modeled_time_s, spent)

    try:
        loop = closed_loop(
            seconds, lambda: [(a, jobs[a]) for a in CYCLES["mutate-refresh"]], do_op,
            out.speed,
        )
    finally:
        session.close()
    out.facts["variants"] = [
        {"variant": label, "V": current.num_vertices, "E": current.num_edges,
         "lambda_first": lams[0], "lambda_last": lams[-1]}
        for label, lams in lambdas.items()
    ]
    out.facts["graph_versions"] = version
    drift = [checker.warm_drift(*args) for args in warm_pageranks]
    out.detail["warm_pagerank_drift_tol"] = drift
    out.detail["warm_pagerank_over_50tol"] = sum(d > WARM_BAND for d in drift)
    if trace:
        closed_layers(out, tr, seed, "mutate-refresh")
    else:
        closed_metrics(out, loop, setup_s)
    return out


# ----------------------------------------------------------------------
# open loop
@dataclass
class Sent:
    arrival: inputs.Arrival
    due: float
    sent: float
    future: Any
    done: float = 0.0

    @property
    def ok(self) -> bool:
        return self.future.exception() is None


def drive(svc: GraphService, arrivals: List[inputs.Arrival]) -> Tuple[List[Sent], float]:
    """Submit each arrival at its due time from this (the only) generator thread."""
    start = time.perf_counter() + 0.05
    sent: List[Sent] = []
    for a in arrivals:
        due = start + a.due
        now = time.perf_counter()
        while now < due:
            time.sleep(due - now)
            now = time.perf_counter()
        if a.kind == "mutate":
            fut = svc.submit_mutation(a.batch)
        else:
            fut = svc.submit(a.kind, [a.source])
        rec = Sent(a, due, now, fut)
        fut.add_done_callback(lambda _f, rec=rec: setattr(rec, "done", time.perf_counter()))
        sent.append(rec)
    for rec in sent:
        try:
            rec.future.result(timeout=120)
        except Exception:  # noqa: BLE001 - counted as a failure by check_served
            pass
    return sent, start


def check_served(out: Outcome, sent: List[Sent], versions, checker: Checker, ppr_tol: float) -> None:
    for rec in sent:
        a = rec.arrival
        if not rec.ok:
            out.attempted += 1
            out.fail(f"{a.kind} failed: {rec.future.exception()!r}")
            continue
        res = rec.future.result()
        if a.kind == "mutate":
            out.check(res.graph_version == a.version,
                      f"mutation made version {res.graph_version}, want {a.version}")
            continue
        graph = versions[a.version]
        values = res.result.values
        if a.kind == "bfs":
            ok = checker.bfs(a.version, graph, res.sources_served, values)
        else:
            ok = checker.ppr(a.version, graph, res.sources_served, ppr_tol, values)
        out.check(ok, f"{a.kind} {res.sources_served} at graph version {a.version}")


def served_mixed(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    ppr_tol = make_program("ppr", seeds=[0]).tolerance
    # a traced run replays the first half of the schedule twice, once
    # untraced and once traced, to price the tracing
    horizon = seconds / 2 if trace else seconds
    trace_path = os.path.join(OUT_DIR, f"served-trace-s{seed}.jsonl")

    def make(trace_out: Optional[str] = None):
        graph = inputs.make_graph()
        sched = inputs.served_schedule(
            graph, seed, SERVE_RATE, horizon, SERVE_MUTATE_EVERY,
            SERVE_BFS_SHARE, SERVE_POOL, SERVE_ZIPF,
        )
        session = GraphSession.open(graph, machines=MACHINES)
        session.run("bfs", engine=ENGINE, source=sched.arrivals[0].source)
        svc = GraphService(
            session, engine=ENGINE, max_wait=SERVE_MAX_WAIT,
            cache_size=SERVE_CACHE, batch_mode="fused", trace_out=trace_out,
        )

        def close():
            svc.close()
            session.close()

        return (graph, sched, session, svc, close), close

    checker = Checker(MACHINES)
    runs = {}
    for label, trace_out in ((("untraced", None), ("traced", trace_path)) if trace
                             else (("untraced", None),)):
        if trace:
            (graph, sched, session, svc, close), _ = make(trace_out)
        else:
            setup_s, (graph, sched, session, svc, close) = timed_setup(make, out.speed)
        try:
            sent, start = drive(svc, sched.arrivals)
            rss = peak_rss_mb()  # before the answer checks add their own
            stats = svc.stats()
            # λ of the resident variant after the run's mutations
            out.facts["variants"] = variant_facts(
                sched.versions[-1],
                {"directed": ("bfs", {"source": sched.arrivals[0].source})}, session)
        finally:
            close()
        check_served(out, sent, sched.versions, checker, ppr_tol)
        runs[label] = (sent, start, stats)
        out.metrics["peak_rss_mb"] = rss
    if trace:
        served_layers(out, runs, trace_path, seed)
        out.metrics["partition.lambda"] = out.facts["variants"][0]["lambda"]
    else:
        served_metrics(out, *runs["untraced"], setup_s)
    return out


def served_metrics(out: Outcome, sent: List[Sent], start: float, stats, setup_s: float) -> None:
    queries = [r for r in sent if r.arrival.kind != "mutate" and r.ok]
    mutations = [r for r in sent if r.arrival.kind == "mutate" and r.ok]
    lat = [r.done - r.due for r in queries]
    late = [r.sent - r.due for r in sent]
    qps = len(queries) / (max(r.done for r in queries) - start)
    # query latency is mostly waiting and the rate is offered: only the
    # setup is host compute time
    host_detail(out, {"setup_s": setup_s})
    out.metrics.update({
        "setup_s": setup_s / out.speed.setup_factor,
        "op_s_p50": median(lat),
        "ops_per_min": 60.0 * qps,
        "modeled_s_per_op": sum(r.future.result().engine_cost_s for r in queries) / len(queries),
    })
    tail = tail_percentile(lat)
    hits = sum(1 for r in queries if r.future.result().cached)
    out.detail.update({
        "query_p50_ms": 1e3 * median(lat),
        "query_tail_ms": {"percentile": tail[0], "value": 1e3 * tail[1]} if tail else None,
        "mutate_p50_ms": 1e3 * median([r.done - r.sent for r in mutations]) if mutations else None,
        "served_qps": qps,
        "offered_qps": SERVE_RATE,
        "cache_hit_frac": hits / len(queries),
        "engine_runs": stats.get("serve.runs", 0.0),
        "loadgen_late_ms_p50": 1e3 * median(late),
        "loadgen_late_ms_max": 1e3 * max(late),
    })
    if tail and tail[0] >= 95:
        out.detail["query_p95_ms"] = 1e3 * tail[1]
    out.facts["query_samples"] = len(lat)
    out.facts["mutate_samples"] = len(mutations)
    behind = tail_percentile(late)
    out.facts["generator_behind"] = bool(behind and behind[1] > 1.0 / SERVE_RATE)
    if out.facts["generator_behind"]:
        print(f"perfbench: generator fell behind: p{behind[0]} lateness "
              f"{1e3 * behind[1]:.1f} ms exceeds one arrival gap", file=sys.stderr)


def read_legs(trace_path: str) -> Dict[int, Dict[str, float]]:
    """request id -> leg name -> exact width, from the service's request trace."""
    legs_by_root: Dict[int, Dict[str, float]] = {}
    request_of_root: Dict[int, int] = {}
    with open(trace_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("type") != "span":
                continue
            if rec["name"] == "serve.request":
                request_of_root[rec["id"]] = rec["attrs"]["request_id"]
            elif rec["name"] in LEG_NAMES:
                legs_by_root.setdefault(rec["parent"], {})[rec["name"]] = rec["attrs"]["dur_s"]
    return {request_of_root[root]: legs for root, legs in legs_by_root.items()}


def served_layers(out: Outcome, runs, trace_path: str, seed: int) -> None:
    """Per-query ledger: generator lateness, then the service's four legs."""
    legs = read_legs(trace_path)
    sent, _start, stats = runs["traced"]
    ledger = Ledger()
    for rec in sent:
        if not rec.ok:
            continue
        if rec.arrival.kind == "mutate":
            ledger.add_op("mutate", rec.sent, rec.done)
            continue
        root = ledger.add_op(rec.arrival.kind, rec.due, rec.done)
        ledger.add_span("loadgen.late", root, rec.due, rec.sent)
        # the legs tile submit-to-answer; lay them end to end from the send
        t = rec.sent
        for name in LEG_NAMES:
            width = legs[rec.future.result().request_id][name]
            ledger.add_span(name, root, t, t + width)
            t += width
    for e in tiling_errors(ledger):
        out.fail(f"served ledger does not tile: {e}")
    ledger.write(os.path.join(OUT_DIR, f"spans-served-mixed-s{seed}.jsonl"))

    layers = layer_samples(ledger)
    queries = [r for r in sent if r.arrival.kind != "mutate" and r.ok]
    hits = sum(1 for r in queries if r.future.result().cached)
    engine_runs = stats.get("serve.runs", 0.0)
    untraced = [r.done - r.due for r in runs["untraced"][0] if r.arrival.kind != "mutate"]
    m = {f"{name}_ms": 1e3 * median(layers[name]) for name in LEG_NAMES}
    m.update({
        "loadgen.late_ms": 1e3 * median(layers["loadgen.late"]),
        "untracked_s": median(layers[UNTRACKED]),
        "serve.cache_hit_frac": hits / len(queries),
        "serve.queries_per_run": (len(queries) - hits) / engine_runs if engine_runs else 0.0,
        "obs.trace_overhead_frac": float(
            np.mean([r.done - r.due for r in queries]) / np.mean(untraced) - 1.0),
    })
    out.metrics.update(m)
    out.facts["traced_ops"] = len(queries)


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "cold-batch": cold_batch,
    "warm-analytics": warm_analytics,
    "mutate-refresh": mutate_refresh,
    "served-mixed": served_mixed,
}
