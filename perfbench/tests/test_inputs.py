"""Seeded inputs: same seed, same inputs; batches valid; run guard."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

from repro.graph.generators import powerlaw_graph

from perfbench import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_graph_is_fixed_and_sources_are_seeded():
    a, b = inputs.make_graph(), inputs.make_graph()
    assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
    g = powerlaw_graph(300, 2400, seed=2)
    pick = lambda seed: inputs.pick_sources(g, inputs.stream(seed, "sources"), 4)
    assert pick(1) == pick(1) and pick(1) != pick(2)


def test_mutation_batches_stay_valid_on_the_evolving_graph():
    g = powerlaw_graph(200, 1500, seed=1)
    rng = inputs.stream(9, "batches")
    for _ in range(20):
        batch = inputs.mutation_batch(g, rng)
        batch.without_weights().validate(g)
        assert batch.num_added_edges == inputs.BATCH_EDGES
        assert batch.num_removed_edges == inputs.BATCH_EDGES
        assert all(w is not None for w in batch.explicit_weights())
        g = inputs.advance(g, batch)
    assert g.weights is None


def test_served_schedule_is_seeded():
    g = powerlaw_graph(300, 2400, seed=2)

    def sched(seed):
        return inputs.served_schedule(g, seed, rate=20.0, seconds=5.0,
                                      mutate_every=10, bfs_share=0.75,
                                      pool_size=8, zipf_a=2.0)

    a, b, c = sched(3), sched(3), sched(4)
    key = lambda s: [(x.due, x.kind, x.source, x.version) for x in s.arrivals]
    assert key(a) == key(b) and key(a) != key(c)
    assert len(a.arrivals) == 100
    assert sum(x.kind == "mutate" for x in a.arrivals) == 10
    assert len(a.versions) == 11
    # every item answers against the version of the barriers before it
    seen = 0
    for x in a.arrivals:
        if x.kind == "mutate":
            seen += 1
        assert x.version == seen


def test_runner_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_workloads():
    from perfbench.workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
