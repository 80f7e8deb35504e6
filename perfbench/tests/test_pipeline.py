"""The traced path returns exactly what the untraced public call returns."""

import numpy as np
import pytest

import repro
from repro.graph.generators import powerlaw_graph
from repro.session import GraphSession

from perfbench import inputs
from perfbench.ledger import Ledger, op_breakdown, tiling_errors
from perfbench.pipeline import LayeredPipeline
from perfbench.workloads import same_answer

MACHINES = 4
ENGINE = "lazy-block"
JOBS = [
    ("pagerank", {"tolerance": 1e-3}),
    ("sssp", {"source": 3}),
    ("bfs", {"source": 5}),
    ("cc", {}),
]


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(300, 2400, seed=7)


@pytest.mark.parametrize("alg,params", JOBS, ids=[j[0] for j in JOBS])
def test_cold_op_bit_identical_and_tiled(graph, alg, params):
    public = repro.run(graph, alg, engine=ENGINE, machines=MACHINES, **params)
    led = Ledger()
    pipe = LayeredPipeline(graph, led, MACHINES, ENGINE)
    with led.op(alg):
        layered, variant = pipe.run(alg, params)
    assert same_answer(public, layered)
    assert np.array_equal(public.values, layered.values)
    assert tiling_errors(led) == []
    layers = op_breakdown(led)[0]
    for name in ("partition.assign", "partition.build", "kernels.plan",
                 "runtime.engine_init", "runtime.engine_run"):
        assert layers[name] > 0.0
    assert ("graph.symmetrize" in layers) == (alg == "cc")
    assert ("graph.weights" in layers) == (alg == "sssp")


def test_refresh_stream_bit_identical_and_tiled(graph):
    jobs = dict(JOBS[:3])
    led = Ledger()
    pipe = LayeredPipeline(graph, led, MACHINES, ENGINE)
    rng = inputs.stream(5, "batches")
    current = graph
    with GraphSession.open(graph, machines=MACHINES) as session:
        for alg, params in jobs.items():
            session.run(alg, engine=ENGINE, **params)
            pipe.run(alg, params)
        for i, alg in enumerate(["bfs", "pagerank", "sssp", "bfs", "pagerank"]):
            batch = inputs.mutation_batch(current, rng)
            current = inputs.advance(current, batch)
            session.apply(batch)
            public = session.run(alg, engine=ENGINE, incremental=True, **jobs[alg])
            with led.op(alg):
                patches = pipe.apply(batch)
                layered, _ = pipe.run(alg, jobs[alg], incremental=True)
            assert public.stats.extra["warm_start"] == 1
            assert pipe.last_warm is not None
            assert same_answer(public, layered), (i, alg)
            assert len(patches) == 2  # directed and directed+weights
    assert tiling_errors(led) == []
    for layers in op_breakdown(led).values():
        for name in ("graph.apply_batch", "partition.patch", "runtime.warm_plan",
                     "runtime.engine_run", "runtime.collect_state"):
            assert name in layers


def test_traced_answer_mismatch_is_detected(graph):
    a = repro.run(graph, "bfs", engine=ENGINE, machines=MACHINES, source=5)
    b = repro.run(graph, "bfs", engine=ENGINE, machines=MACHINES, source=6)
    assert not same_answer(a, b)
