"""The traced path: each op driven through the layers' public calls.

:class:`LayeredPipeline` does what ``repro.run`` / ``GraphSession.run`` /
``GraphSession.apply`` do, step by step, with a ledger span around each
call into a layer:

* prepare — ``DiGraph.symmetrized`` (``graph.symmetrize``) and
  ``attach_uniform_weights`` (``graph.weights``);
* partition — ``partition_graph`` (``partition.assign``) and
  ``PartitionedGraph.build`` (``partition.build``);
* kernels — one ``CSRPlan`` per machine (``kernels.plan``);
* runtime — engine construction (``runtime.engine_init``),
  ``engine.run()`` (``runtime.engine_run``) and ``collect_state``
  (``runtime.collect_state``);
* refresh — ``MutationBatch.validate`` and ``apply_batch``
  (``graph.apply_batch``), ``patch_partition`` (``partition.patch``),
  the ``CSRPlan`` rebuild of changed machines (``kernels.plan``) and
  ``plan_warm_start`` (``runtime.warm_plan``) before the engine.

The traced run checks that these ops return exactly what the untraced
public call returned, so the ledger prices the same work the end-to-end
numbers measure.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.generators import attach_uniform_weights
from repro.graph.mutation import MutationBatch, apply_batch
from repro.kernels import CSRPlan
from repro.partition import PartitionedGraph, partition_graph
from repro.partition.dynamic import PatchStats, patch_partition
from repro.runtime.registry import get_engine
from repro.runtime.result import EngineResult
from repro.runtime.run_config import RunConfig
from repro.runtime.warm_start import collect_state, plan_warm_start
from repro.utils.rng import derive_seed

from perfbench.ledger import Ledger

Key = Tuple[bool, bool]  # (requires_symmetric, needs_weights)
#: the session defaults every workload opens with
SEED = 0
PARTITIONER = "coordinated"


class Variant:
    """One prepared graph variant: base and prepared graph, cut, plans."""

    def __init__(self, base: DiGraph, graph: DiGraph, pgraph, plans) -> None:
        self.base = base
        self.graph = graph
        self.pgraph = pgraph
        self.plans = plans


class LayeredPipeline:
    """Session-equivalent runs and refreshes with a span per layer call."""

    def __init__(self, graph: DiGraph, ledger: Ledger, machines: int, engine: str) -> None:
        self.graph = graph
        self.ledger = ledger
        self.machines = machines
        self.spec = get_engine(engine)
        self.engine = engine
        self.variants: Dict[Key, Variant] = {}
        #: (algorithm, params) -> fixpoint record for warm starts
        self.fixpoints: Dict[Any, Dict[str, Any]] = {}
        self.last_warm = None
        self.mutated = False

    def _plans(self, pgraph, machines: Optional[set] = None, old=None) -> List[CSRPlan]:
        with self.ledger.span("kernels.plan"):
            return [
                CSRPlan(mg.esrc, mg.num_local_vertices, dst=mg.edst)
                if machines is None or i in machines else old[i]
                for i, mg in enumerate(pgraph.machines)
            ]

    def prepare(self, program) -> Variant:
        """The program's variant, built through every prep layer once."""
        key = (bool(program.requires_symmetric), bool(program.needs_weights))
        if key in self.variants:
            return self.variants[key]
        if self.mutated:
            raise RuntimeError("variants must be prepared before mutations")
        g = self.graph
        if program.requires_symmetric:
            with self.ledger.span("graph.symmetrize"):
                sym = g.symmetrized()
                sym.name = g.name
            g = sym
        if program.needs_weights and g.weights is None:
            with self.ledger.span("graph.weights"):
                g = attach_uniform_weights(g, seed=derive_seed(SEED, "weights"))
        with self.ledger.span("partition.assign"):
            assignment = partition_graph(g, self.machines, PARTITIONER, seed=SEED)
        with self.ledger.span("partition.build"):
            pgraph = PartitionedGraph.build(g, assignment, self.machines)
        variant = Variant(self.graph, g, pgraph, self._plans(pgraph))
        self.variants[key] = variant
        return variant

    def run(self, algorithm: str, params: dict, incremental: bool = False) -> Tuple[EngineResult, Variant]:
        config = RunConfig.from_kwargs(engine=self.engine, **params)
        program = self.spec.make_program(algorithm, **config.params)
        variant = self.prepare(program)
        fp = (algorithm, tuple(sorted(params.items())))
        record = self.fixpoints.get(fp) if incremental else None
        warm = None
        if record is not None:
            with self.ledger.span("runtime.warm_plan"):
                warm = plan_warm_start(
                    program, record["graph"], variant.graph, record["state"]
                )
        self.last_warm = warm
        with self.ledger.span("runtime.engine_init"):
            kwargs = config.engine_kwargs(self.spec, seed=SEED)
            kwargs["plans"] = variant.plans
            engine = self.spec.cls(
                variant.pgraph, warm if warm is not None else program, **kwargs
            )
        with self.ledger.span("runtime.engine_run"):
            result = engine.run()
        if getattr(program, "supports_warm_start", False):
            with self.ledger.span("runtime.collect_state"):
                state = collect_state(variant.pgraph, engine.runtimes)
            self.fixpoints[fp] = {"graph": variant.graph, "state": state}
        return result, variant

    def apply(self, batch: MutationBatch) -> List[PatchStats]:
        """Patch every prepared variant (directed variants only)."""
        self.mutated = True
        with self.ledger.span("graph.apply_batch"):
            # GraphSession.apply checks the batch against every cached
            # base before patching any of them
            for v in self.variants.values():
                batch.without_weights().validate(v.base)
        patches = []
        for key in sorted(self.variants):
            if key[0]:
                raise NotImplementedError("symmetric variants are not refreshed")
            v = self.variants[key]
            with self.ledger.span("graph.apply_batch"):
                new_base, diff = apply_batch(v.base, batch.without_weights())
                if v.graph is v.base:
                    new_graph = new_base
                else:
                    # weighted variant of an unweighted base: kept edges
                    # keep their weights, inserts take the batch's own
                    added = np.array(batch.explicit_weights(), dtype=np.float64)
                    new_graph = DiGraph(
                        new_base.num_vertices, new_base.src, new_base.dst,
                        np.concatenate([v.graph.weights[diff.kept_eids], added]),
                        name=v.graph.name,
                    )
            with self.ledger.span("partition.patch"):
                new_pg, stats = patch_partition(v.pgraph, new_graph, diff)
            unchanged = set(stats.machines_unchanged)
            changed = {i for i in range(self.machines) if i not in unchanged}
            plans = self._plans(new_pg, changed, v.plans)
            self.variants[key] = Variant(new_base, new_graph, new_pg, plans)
            patches.append(stats)
        return patches
