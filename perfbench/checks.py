"""Answer checks, run outside the timed interval of every op.

* MIN/MAX programs (bfs, msbfs, sssp, cc) must equal
  ``repro.algorithms.reference`` exactly on the graph the op ran
  against (a fused multi-source BFS answer is the element-wise minimum
  of the single-source references).
* pagerank cold and full runs must sit in the band the engine tests
  use: ``|x - ref| <= 10·tol + 20·tol·|ref|``. ppr is checked with the
  band its own engine test uses, ``100·tol + 1000·tol·|ref|``: ppr mass
  is normalized, and with an absolute per-vertex tolerance a hub's error
  grows with its in-degree (~350·tol at the largest hub of the benchmark
  graph), beyond the pagerank band at any tolerance.
* Warm-started (incremental) pagerank must meet the same band against
  the exact reference as a cold run. Its distance from a fresh
  ``repro.run`` on the same graph is measured too, in units of ``tol``
  (:meth:`Checker.warm_drift`), and reported beside the ``50·tol`` band
  the session tests use: over a refresh stream it drifts past that band
  because both runs carry termination error (~350·tol at the largest
  hub) in different places, while the warm answer stays in the band
  against the exact fixpoint.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Sequence

import numpy as np

import repro
from repro.algorithms.reference import (
    bfs_reference,
    cc_reference,
    pagerank_reference,
    ppr_reference,
    sssp_reference,
)
from repro.graph.digraph import DiGraph

COLD_ATOL = 10.0  # × tolerance
COLD_RTOL = 20.0  # × tolerance
PPR_ATOL = 100.0  # × tolerance
PPR_RTOL = 1000.0  # × tolerance
WARM_BAND = 50.0  # × tolerance, incremental vs a fresh run (reported)


def exact(values: np.ndarray, ref: np.ndarray) -> bool:
    return values.shape == ref.shape and bool(np.array_equal(values, ref))


def banded(values: np.ndarray, ref: np.ndarray, atol: float, rtol: float) -> bool:
    if values.shape != ref.shape:
        return False
    finite = np.isfinite(ref)
    if not np.array_equal(np.isfinite(values), finite):
        return False
    err = np.abs(values[finite] - ref[finite])
    return bool(np.all(err <= atol + rtol * np.abs(ref[finite])))


class Checker:
    """Reference answers, memoized per (graph key, program, sources)."""

    def __init__(self, machines: int) -> None:
        self.machines = machines
        self._refs: Dict[Hashable, np.ndarray] = {}

    def _memo(self, key: Hashable, make: Callable[[], np.ndarray]) -> np.ndarray:
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    # -- references ------------------------------------------------------
    def bfs_ref(self, gkey, graph: DiGraph, source: int) -> np.ndarray:
        return self._memo((gkey, "bfs", source), lambda: bfs_reference(graph, source))

    def sssp_ref(self, gkey, weighted: DiGraph, source: int) -> np.ndarray:
        return self._memo((gkey, "sssp", source), lambda: sssp_reference(weighted, source))

    def cc_ref(self, gkey, symmetric: DiGraph) -> np.ndarray:
        return self._memo((gkey, "cc"), lambda: cc_reference(symmetric))

    def pagerank_ref(self, gkey, graph: DiGraph) -> np.ndarray:
        return self._memo((gkey, "pagerank"), lambda: pagerank_reference(graph))

    # -- checks ----------------------------------------------------------
    def bfs(self, gkey, graph: DiGraph, sources: Sequence[int], values) -> bool:
        refs = [self.bfs_ref(gkey, graph, s) for s in sources]
        return exact(values, np.minimum.reduce(refs))

    def sssp(self, gkey, weighted: DiGraph, source: int, values) -> bool:
        return exact(values, self.sssp_ref(gkey, weighted, source))

    def cc(self, gkey, symmetric: DiGraph, values) -> bool:
        return exact(values, self.cc_ref(gkey, symmetric))

    def pagerank(self, gkey, graph: DiGraph, tol: float, values) -> bool:
        ref = self.pagerank_ref(gkey, graph)
        return banded(values, ref, COLD_ATOL * tol, COLD_RTOL * tol)

    def ppr(self, gkey, graph: DiGraph, seeds: Sequence[int], tol: float, values) -> bool:
        seeds = tuple(sorted(seeds))
        ref = self._memo((gkey, "ppr", seeds), lambda: ppr_reference(graph, seeds))
        return banded(values, ref, PPR_ATOL * tol, PPR_RTOL * tol)

    def warm_drift(self, gkey, graph: DiGraph, tol: float, values) -> float:
        """max |incremental − fresh run| in units of ``tol``."""
        fresh = self._memo(
            (gkey, "pagerank-run", tol),
            lambda: repro.run(
                graph, "pagerank", machines=self.machines, tolerance=tol
            ).values,
        )
        return float(np.max(np.abs(values - fresh))) / tol
