"""Experiment configurations mirroring the paper's evaluation setup.

§5.1: 48-node cluster, coordinated vertex-cut, four algorithms
(k-core, PageRank, SSSP, CC) over the Table 1 graphs; Fig 12 sweeps
machine counts on one representative graph per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.graph.datasets import dataset_info

__all__ = [
    "ExperimentConfig",
    "FIG9_GRAPHS",
    "FIG9_ALGORITHMS",
    "FIG12_GRAPHS",
    "FIG12_MACHINES",
    "default_kcore_k",
    "default_program_params",
]

# Table 1 order (the order every per-graph figure uses)
FIG9_GRAPHS: Tuple[str, ...] = (
    "web-uk-mini",
    "web-google-mini",
    "road-usa-mini",
    "road-ca-mini",
    "twitter-mini",
    "livejournal-mini",
    "enwiki-mini",
    "youtube-mini",
)

FIG9_ALGORITHMS: Tuple[str, ...] = ("kcore", "pagerank", "sssp", "cc")

# Fig 12: one representative per class (web / road / social)
FIG12_GRAPHS: Tuple[str, ...] = ("web-uk-mini", "road-usa-mini", "twitter-mini")
FIG12_MACHINES: Tuple[int, ...] = (8, 16, 24, 32, 40, 48)


def default_kcore_k(graph_name: str) -> int:
    """Per-class K for k-core decomposition.

    Road networks (mean degree ≈ 2.5 undirected) use the paper's
    illustrative K=3; denser web/social graphs use K=10 so the peeling
    cascade is non-trivial in both directions.
    """
    return 3 if dataset_info(graph_name).category == "road" else 10


def default_program_params(algorithm: str, graph_name: str) -> Dict:
    """Per-(algorithm, graph) program parameters used by every figure."""
    if algorithm == "kcore":
        return {"k": default_kcore_k(graph_name)}
    if algorithm == "pagerank":
        return {"tolerance": 1e-3}
    if algorithm in ("sssp", "bfs"):
        return {"source": 0}
    if algorithm == "cc":
        return {}
    raise ConfigError(f"no default parameters for algorithm {algorithm!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One engine run in one figure's sweep."""

    graph: str
    algorithm: str
    engine: str = "lazy-block"
    machines: int = 48
    partitioner: str = "coordinated"
    seed: int = 0
    lens: bool = False
    #: CoherencyLens keyword overrides (sample_size / seed / rollup_after
    #: / rollup_every); a non-empty dict implies ``lens``.
    lens_opts: Dict = field(default_factory=dict)
    #: Named coherency policy (see :func:`repro.policy_names`), default
    #: the ``"paper"`` policy on lazy engines; ``policy_opts`` overlays
    #: ``--policy-opt``-style overrides (``mode=…``,
    #: ``max_delta_age=…``, controller options).
    policy: Optional[str] = None
    policy_opts: Dict = field(default_factory=dict)
    #: Execution backend (``"serial"`` / ``"process"``) and worker count
    #: (process backend only; ``None`` = host CPU count capped at the
    #: machine count). Results are bit-identical across backends.
    backend: str = "serial"
    workers: Optional[int] = None
    params: Dict = field(default_factory=dict)

    def resolved_params(self) -> Dict:
        """Program parameters: per-figure defaults overlaid with overrides."""
        out = default_program_params(self.algorithm, self.graph)
        out.update(self.params)
        return out

    def label(self) -> str:
        return f"{self.algorithm}/{self.graph}@{self.machines}:{self.engine}"

    def to_run_config(self):
        """This experiment's run-level knobs as a shared ``RunConfig``.

        Mapping notes: ``policy_opts`` overlays the named policy (the
        ``"paper"`` policy when none is named, matching the run API
        default — the harness still constructs eager engines without
        complaint because it resolves with ``strict_policy=False``);
        ``"serial"`` maps to backend ``None`` (the engine's default) so
        the harness keeps constructing serial engines without an
        explicit backend kwarg.
        """
        from repro.core.policy import get_policy
        from repro.runtime.run_config import RunConfig

        policy = None
        if self.policy is not None or self.policy_opts:
            pol = get_policy(self.policy or "paper")
            if self.policy_opts:
                pol = pol.apply_opts(self.policy_opts)
            policy = pol
        return RunConfig(
            engine=self.engine,
            policy=policy,
            lens=bool(self.lens or self.lens_opts),
            lens_opts=dict(self.lens_opts) if self.lens_opts else None,
            backend=None if self.backend == "serial" else self.backend,
            workers=self.workers,
            params=self.resolved_params(),
        )
