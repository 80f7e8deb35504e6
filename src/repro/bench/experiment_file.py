"""Experiment description files: batch runs from JSON.

Lets a user script a whole study declaratively and run it with
``python -m repro experiment --config study.json``:

```json
{
  "name": "my-study",
  "defaults": {"machines": 24, "partitioner": "coordinated"},
  "experiments": [
    {"graph": "road-usa-mini", "algorithm": "sssp",
     "engine": "lazy-block"},
    {"graph": "road-usa-mini", "algorithm": "sssp",
     "engine": "powergraph-sync"},
    {"graph": "twitter-mini", "algorithm": "kcore",
     "params": {"k": 12}}
  ]
}
```

Unknown keys are rejected loudly — a typo'd field silently ignored is a
wrong experiment.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.bench.configs import ExperimentConfig
from repro.bench.harness import run_config
from repro.errors import ConfigError
from repro.runtime.result import EngineResult

__all__ = ["load_experiment_file", "run_experiment_file"]

_ALLOWED_KEYS = {
    "graph",
    "algorithm",
    "engine",
    "machines",
    "partitioner",
    "policy",
    "policy_opts",
    "seed",
    "lens",
    "lens_opts",
    "params",
}


def _build_config(entry: Dict, defaults: Dict, index: int) -> ExperimentConfig:
    merged = dict(defaults)
    merged.update(entry)
    removed = {"interval", "coherency_mode"} & set(merged)
    if removed:
        raise ConfigError(
            f"experiment #{index}: {sorted(removed)} were removed; use "
            f'"policy" / "policy_opts" (e.g. "policy": "simple", '
            f'"policy_opts": {{"mode": "a2a"}})'
        )
    unknown = set(merged) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(
            f"experiment #{index}: unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(_ALLOWED_KEYS)}"
        )
    for required in ("graph", "algorithm"):
        if required not in merged:
            raise ConfigError(f"experiment #{index}: missing {required!r}")
    params = merged.pop("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"experiment #{index}: params must be an object")
    policy_opts = merged.pop("policy_opts", {})
    if not isinstance(policy_opts, dict):
        raise ConfigError(f"experiment #{index}: policy_opts must be an object")
    lens_opts = merged.pop("lens_opts", {})
    if not isinstance(lens_opts, dict):
        raise ConfigError(f"experiment #{index}: lens_opts must be an object")
    return ExperimentConfig(
        params=params, policy_opts=policy_opts, lens_opts=lens_opts, **merged
    )


def load_experiment_file(path: str) -> Tuple[str, List[ExperimentConfig]]:
    """Parse a study file; returns ``(study name, configs)``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read experiment file {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    extras = set(doc) - {"name", "defaults", "experiments"}
    if extras:
        raise ConfigError(f"{path}: unknown top-level keys {sorted(extras)}")
    entries = doc.get("experiments")
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{path}: 'experiments' must be a non-empty list")
    defaults = doc.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ConfigError(f"{path}: 'defaults' must be an object")
    configs = [
        _build_config(e, defaults, i) for i, e in enumerate(entries)
    ]
    return str(doc.get("name", path)), configs


def run_experiment_file(
    path: str,
) -> Tuple[str, List[Tuple[ExperimentConfig, EngineResult]]]:
    """Load and execute every experiment in the file (cached harness)."""
    name, configs = load_experiment_file(path)
    results = [(cfg, run_config(cfg)) for cfg in configs]
    return name, results
