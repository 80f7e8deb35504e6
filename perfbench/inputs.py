"""Seeded workload inputs: graph, sources, mutation batches, arrivals.

Everything a workload feeds the program is generated here: one fixed
graph, and from the ``--seed`` the benchmark was given the query
sources, the mutation stream and the arrival schedule, so the same seed
reproduces the same inputs. The program under test only ever receives
these generated values.

Graph shape: an R-MAT powerlaw graph with the average out-degree (~13)
of the 50k-vertex / 650k-edge graph the engine benchmarks use, scaled
to 12.5k vertices so that setup repeated three times, a measured
interval with at least ten ops per closed-loop run, and the answer
checks all fit one run on a small shared host.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.generators import powerlaw_graph
from repro.graph.mutation import MutationBatch, apply_batch

NUM_VERTICES = 12_500
NUM_EDGES = 162_500
MACHINES = 8
ENGINE = "lazy-block"
PAGERANK_TOL = 1e-3
#: inserts and removals per mutation batch ("a few edges")
BATCH_EDGES = 4
#: size of the seeded source pools point queries and jobs draw from
SOURCE_POOL = 8
GRAPH_SEED = 3


def stream(seed: int, label: str) -> np.random.Generator:
    """An independent random stream per (workload seed, purpose)."""
    return np.random.default_rng([int(seed), zlib.crc32(label.encode())])


def make_graph() -> DiGraph:
    """The workload graph: one fixed R-MAT draw.

    The graph is the same for every ``--seed``, so run-to-run spread
    measures the program rather than the cost of different graphs;
    sources, mutation batches and arrivals are what the seed varies.
    """
    return powerlaw_graph(NUM_VERTICES, NUM_EDGES, seed=GRAPH_SEED, name="rmat-12k")


def pick_sources(graph: DiGraph, rng: np.random.Generator, k: int) -> List[int]:
    """``k`` distinct vertices with out-edges (so traversals reach far)."""
    candidates = np.flatnonzero(graph.out_degrees() > 0)
    return [int(v) for v in rng.choice(candidates, size=k, replace=False)]


def mutation_batch(
    graph: DiGraph, rng: np.random.Generator, edges: int = BATCH_EDGES
) -> MutationBatch:
    """``edges`` removals of present edges plus ``edges`` weighted inserts.

    Valid against ``graph`` by construction. Inserted edges carry an
    explicit Uniform(1, 10) weight, which weighted variants keep and
    unweighted variants drop.
    """
    batch = MutationBatch()
    for e in rng.choice(graph.num_edges, size=edges, replace=False):
        batch.remove_edge(int(graph.src[e]), int(graph.dst[e]))
    added = 0
    while added < edges:
        u, v = (int(x) for x in rng.integers(0, graph.num_vertices, size=2))
        if u == v:
            continue
        batch.add_edge(u, v, weight=float(rng.uniform(1.0, 10.0)))
        added += 1
    return batch


def advance(graph: DiGraph, batch: MutationBatch) -> DiGraph:
    """``graph`` after ``batch``, weights kept only if ``graph`` has them."""
    if graph.weights is None:
        batch = batch.without_weights()
    return apply_batch(graph, batch)[0]


def cycle_schedule(pattern: List[str], sources: dict, rng) -> List[Tuple[str, dict]]:
    """Resolve one op cycle to (algorithm, params), drawing seeded sources."""
    ops = []
    for alg in pattern:
        params: dict = {}
        if alg == "pagerank":
            params["tolerance"] = PAGERANK_TOL
        elif alg in sources:
            params["source"] = int(rng.choice(sources[alg]))
        ops.append((alg, params))
    return ops


@dataclass
class Arrival:
    """One open-loop arrival: a point query or a mutation barrier."""

    due: float  # seconds after the schedule starts
    kind: str  # "bfs" | "ppr" | "mutate"
    source: int = -1
    batch: Optional[MutationBatch] = None
    version: int = 0  # graph version the item answers against / produces


@dataclass
class ServedSchedule:
    arrivals: List[Arrival]
    #: graph after 0, 1, 2, ... mutations (index = graph version)
    versions: List[DiGraph] = field(default_factory=list)


def zipf_counts(total: int, size: int, a: float) -> List[int]:
    """``total`` draws spread over ranks 1..``size`` in Zipf(a) proportion
    (largest-remainder rounding), so every window has the same shape."""
    w = np.arange(1, size + 1, dtype=np.float64) ** -a
    share = total * w / w.sum()
    counts = np.floor(share).astype(int)
    for r in np.argsort(counts - share, kind="stable")[: total - counts.sum()]:
        counts[r] += 1
    return counts.tolist()


def served_schedule(
    graph: DiGraph,
    seed: int,
    rate: float,
    seconds: float,
    mutate_every: int,
    bfs_share: float,
    pool_size: int,
    zipf_a: float,
) -> ServedSchedule:
    """Fixed-rate arrivals with Zipf-repeating keys and mutation barriers.

    Arrival ``i`` is due at ``i / rate``. Every ``mutate_every``-th
    arrival is a mutation valid against the graph version it follows.
    The queries between two barriers form a window with a fixed shape:
    ``bfs_share`` of them are bfs and the rest single-seed ppr, and each
    kind's keys repeat in Zipf(``zipf_a``) proportion over a seeded pool
    of ``pool_size`` vertices (one pool per kind). The seed picks the
    pools, the order within each window and the mutation batches, so the
    share of repeated keys is the same in every run.
    """
    rng = stream(seed, "served")
    window = mutate_every - 1
    n_bfs = int(round(bfs_share * window))
    shape = []
    for kind, n in (("bfs", n_bfs), ("ppr", window - n_bfs)):
        pool = pick_sources(graph, stream(seed, f"served-pool-{kind}"), pool_size)
        for rank, count in enumerate(zipf_counts(n, pool_size, zipf_a)):
            shape += [(kind, pool[rank])] * count
    versions = [graph]
    arrivals: List[Arrival] = []
    pending: List[Tuple[str, int]] = []
    for i in range(int(rate * seconds)):
        due = i / rate
        if i % mutate_every == mutate_every - 1:
            batch = mutation_batch(versions[-1], rng)
            versions.append(advance(versions[-1], batch))
            arrivals.append(Arrival(due, "mutate", batch=batch,
                                    version=len(versions) - 1))
            continue
        if not pending:
            pending = [shape[j] for j in rng.permutation(len(shape))]
        kind, source = pending.pop()
        arrivals.append(Arrival(due, kind, source=source,
                                version=len(versions) - 1))
    return ServedSchedule(arrivals, versions)
