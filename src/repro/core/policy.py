"""The coherency-controller layer: pluggable coherency-point policies.

The paper's adaptive rule (§4.2.1) decides coherency points from two
features only — ``E/V`` and the active-count trend. The coherency lens
(PR 4) showed that laziness actually trades away *measurable* quantities
the rule never sees: pending ``deltaMsg`` mass and replica staleness
age. A :class:`CoherencyController` is the one decision abstraction:
it is fed a per-superstep :class:`CoherencySignals` snapshot, whose
extended signals :func:`read_signals` fills in only for controllers
that declare ``needs_signals`` (with the same per-machine pending read
the lens probes use, so controllers work with ``lens=False``).

Shipped controllers:

* :class:`PaperRuleController` (``"paper"``, the default) — the paper's
  learned rule with its three numbers as options (``ev_threshold``,
  ``trend_threshold``, ``budget_multiplier``); Fig 8(a)'s ``simple``
  and ``never`` strawmen are settings of those numbers
  (:data:`STRAWMAN_RULES`). It never requests the extended signals, so
  the default hot path computes nothing new;
* :class:`StalenessController` (``"staleness"``) — accumulated-delta-
  magnitude driven (cf. *Maiter* / *Delayed Asynchronous Iterative
  Graph Algorithms*): on LazyVertexAsync it delays partial exchanges
  while the pending mass decays below a fraction of its running peak
  (shipping dribbles of mass is what inflates the sync count), bounded
  by a hard staleness-age cap; on LazyBlockAsync it keeps lazy mode on
  through the decay phase for the same reason;
* :class:`BatchedController` (``"batched"``) — LazyVertexAsync
  partial-exchange batching: instead of letting each replica trigger
  its own exchange as it comes due, coalesce — wait until the *oldest*
  pending delta reaches ``max_delta_age``, then ship **everything**
  pending in one partial exchange. No delta waits longer than the same
  ``max_delta_age`` bound, but exchanges fire ~``max_delta_age``×
  less often.

Both signal-driven controllers inherit the paper rule's LazyBlockAsync
hooks (and its three options).

The user-facing knob is :class:`CoherencyPolicy`: one typed dataclass
collapsing the previously scattered coherency arguments
(``coherency_mode``, ``max_delta_age``) plus the controller choice and
its options. Policies are registered by name (:func:`register_policy` /
:func:`get_policy`) so ``repro.run(policy="staleness")``, the CLI's
``--policy`` and ``ExperimentConfig(policy=...)`` all share one
vocabulary.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigError
from repro.obs.lens import pending_delta

__all__ = [
    "CoherencySignals",
    "read_signals",
    "ExchangeDirective",
    "CoherencyController",
    "PaperRuleController",
    "STRAWMAN_RULES",
    "StalenessController",
    "BatchedController",
    "CoherencyPolicy",
    "make_controller",
    "controller_names",
    "register_policy",
    "get_policy",
    "policy_names",
    "resolve_policy",
]


# ----------------------------------------------------------------------
# Signals
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoherencySignals:
    """One superstep's controller inputs.

    ``ev_ratio``/``trend``/``active`` are the paper's features (free to
    compute); ``pending_mass``/``pending_replicas``/``staleness_max``
    are the extended signals, filled in by :func:`read_signals` only
    when the active controller sets ``needs_signals`` (they cost one
    pass over the pending deltas).
    """

    superstep: int
    ev_ratio: float
    trend: float
    active: int
    pending_mass: float = 0.0
    pending_replicas: int = 0
    staleness_max: int = 0

    def as_inputs(self) -> Dict[str, float]:
        """Flat snapshot for the lens decision audit log."""
        return {
            "ev_ratio": float(self.ev_ratio),
            "trend": float(self.trend),
            "active": int(self.active),
            "pending_mass": float(self.pending_mass),
            "pending_replicas": int(self.pending_replicas),
            "staleness_max": int(self.staleness_max),
        }


def read_signals(
    runtimes,
    algebra,
    superstep: int,
    ev_ratio: float,
    trend: float,
    active: int,
    ages: Optional[List[np.ndarray]] = None,
) -> CoherencySignals:
    """Snapshot all signals (``ages``: per-machine staleness clocks).

    Reads the pending deltas with the lens's per-machine
    :func:`~repro.obs.lens.pending_delta`, folded machine-ascending, but
    never touches the tracer or metrics.
    """
    mass = 0.0
    count = 0
    stale = 0
    for mi, rt in enumerate(runtimes):
        m_mass, m_count = pending_delta(rt, algebra)
        mass += m_mass
        count += m_count
        if m_count and ages is not None:
            stale = max(stale, int(ages[mi][rt.has_delta].max()))
    return CoherencySignals(
        superstep=superstep,
        ev_ratio=float(ev_ratio),
        trend=float(trend),
        active=int(active),
        pending_mass=float(mass),
        pending_replicas=count,
        staleness_max=stale,
    )


# ----------------------------------------------------------------------
# Controllers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExchangeDirective:
    """One superstep's partial-exchange decision (LazyVertexAsync).

    ``execute=False`` defers: no replica participates this superstep
    (unreplicated and subsumed deltas are still swept). ``min_age``
    selects the participants of an executed exchange — every replica
    whose pending delta is at least that many local rounds old.
    """

    execute: bool
    min_age: int
    rule: str


class CoherencyController(abc.ABC):
    """Strategy deciding both engines' coherency points.

    One controller instance lives for one engine run (controllers may
    keep cross-superstep state such as running peaks); build a fresh one
    per run via :meth:`CoherencyPolicy.make_controller`.
    """

    name = "abstract"
    #: Request the extended (mass/staleness/drift) signals. The default
    #: controller leaves this off so the paper path stays bit-identical
    #: *and* computation-identical.
    needs_signals = False

    @property
    def rule_name(self) -> str:
        """Label used in the decision audit log's ``rule`` field."""
        return self.name

    # ---- LazyBlockAsync hooks ----------------------------------------
    @abc.abstractmethod
    def turn_on_lazy(self, signals: CoherencySignals) -> bool:
        """Should the next superstep run a local computation stage?"""

    @abc.abstractmethod
    def local_budget(self, first_iteration_time: float) -> float:
        """Max modeled seconds a local stage may run (∞ = quiescence)."""

    # ---- LazyVertexAsync hook ----------------------------------------
    def partial_exchange(
        self, signals: CoherencySignals, max_delta_age: int
    ) -> ExchangeDirective:
        """Decide this superstep's partial exchange (default: paper rule —
        replicas due at ``max_delta_age`` trigger their own exchange)."""
        return ExchangeDirective(True, max_delta_age, "max-delta-age")


#: Fig 8(a)'s strawman rules as settings of the paper rule's numbers:
#: ``simple`` keeps lazy mode always on and runs every local stage to
#: local quiescence; ``never`` never turns it on (every superstep is a
#: coherency point — isolates the 3-syncs→1-sync saving from laziness).
STRAWMAN_RULES: Dict[str, Dict[str, float]] = {
    "simple": {"ev_threshold": math.inf, "budget_multiplier": math.inf},
    "never": {
        "ev_threshold": -math.inf,
        "trend_threshold": math.inf,
        "budget_multiplier": 0.0,
    },
}


class PaperRuleController(CoherencyController):
    """The paper's learned rule behind the controller protocol (default).

    * ``turnOnLazy()`` — lazy mode turns on iff
      ``E/V <= ev_threshold or trend >= trend_threshold`` (10 and 0.07
      in the paper), where ``trend = (cnt_{t-1} − cnt_t) / cnt_{t-1}``
      is the relative decrease of the active-vertex count between
      coherency points: poor locality (high E/V) in the *ascent* phase
      needs frequent synchronization; descent phases and local graphs
      do not.
    * ``doLC()`` — a local computation stage may run for at most
      ``budget_multiplier · T`` (3·T in the paper), where ``T`` is the
      modeled time of the stage's first micro-iteration.

    LazyVertexAsync keeps the per-replica ``max_delta_age`` trigger.
    Bit-identical to the pre-controller engines — the golden-number
    pins hold under this controller.
    """

    name = "paper"

    def __init__(
        self,
        ev_threshold: float = 10.0,
        trend_threshold: float = 0.07,
        budget_multiplier: float = 3.0,
    ) -> None:
        self.ev_threshold = float(ev_threshold)
        self.trend_threshold = float(trend_threshold)
        self.budget_multiplier = float(budget_multiplier)

    @property
    def rule_name(self) -> str:
        """``adaptive``, or the strawman these settings spell."""
        for label, preset in STRAWMAN_RULES.items():
            if all(getattr(self, k) == v for k, v in preset.items()):
                return label
        return "adaptive"

    def turn_on_lazy(self, signals: CoherencySignals) -> bool:
        return (
            signals.ev_ratio <= self.ev_threshold
            or signals.trend >= self.trend_threshold
        )

    def local_budget(self, first_iteration_time: float) -> float:
        return self.budget_multiplier * first_iteration_time


class StalenessController(PaperRuleController):
    """Delay exchanges while the pending delta mass decays.

    Tracks the running peak of the pending ``deltaMsg`` mass. Once the
    run enters its decay phase (pending mass below ``mass_floor`` × the
    peak) the accumulated magnitude no longer pays for a sync every
    superstep, so due replicas are *deferred* and their deltas keep
    coalescing — until either the mass climbs back over the floor or
    the oldest pending delta hits the hard age cap
    (``age_cap_factor × max_delta_age`` local rounds). On LazyBlockAsync
    the same signal keeps lazy mode on through the decay phase.
    """

    name = "staleness"
    needs_signals = True
    # decisions carry this controller's name, not the paper rule's label
    rule_name = CoherencyController.rule_name

    def __init__(
        self,
        mass_floor: float = 0.5,
        age_cap_factor: float = 2.0,
        **rule: float,
    ) -> None:
        super().__init__(**rule)
        if not 0.0 < mass_floor <= 1.0:
            raise ConfigError(
                f"staleness controller: mass_floor must be in (0, 1], "
                f"got {mass_floor}"
            )
        if age_cap_factor < 1.0:
            raise ConfigError(
                f"staleness controller: age_cap_factor must be >= 1, "
                f"got {age_cap_factor}"
            )
        self.mass_floor = float(mass_floor)
        self.age_cap_factor = float(age_cap_factor)
        self._peak_mass = 0.0

    def _decaying(self, pending_mass: float) -> bool:
        self._peak_mass = max(self._peak_mass, pending_mass)
        return 0.0 < pending_mass < self.mass_floor * self._peak_mass

    def turn_on_lazy(self, signals: CoherencySignals) -> bool:
        base = super().turn_on_lazy(signals)
        return base or self._decaying(signals.pending_mass)

    def partial_exchange(
        self, signals: CoherencySignals, max_delta_age: int
    ) -> ExchangeDirective:
        cap = max(max_delta_age + 1, int(math.ceil(
            self.age_cap_factor * max_delta_age
        )))
        decaying = self._decaying(signals.pending_mass)
        if signals.staleness_max >= cap:
            # the backlog hit the hard staleness bound: coalesce — ship
            # everything pending, not just the replicas that came due
            return ExchangeDirective(True, 1, "staleness-cap")
        if decaying:
            return ExchangeDirective(False, 0, "mass-decaying")
        return ExchangeDirective(True, max_delta_age, "mass-due")


class BatchedController(PaperRuleController):
    """Coalesce LazyVertexAsync partial exchanges under ``max_delta_age``.

    The per-replica age trigger spreads many tiny partial exchanges over
    consecutive supersteps (replicas come due one superstep apart). This
    controller batches them: defer while the oldest pending delta is
    younger than ``max_delta_age``, then ship *every* pending delta in
    one exchange. The staleness bound is unchanged — no delta ever waits
    more than ``max_delta_age`` local rounds — but the exchange count
    drops by roughly that factor. On LazyBlockAsync it falls back to the
    paper rule (there is nothing to batch: Algorithm 1 already runs one
    full exchange per superstep).
    """

    name = "batched"
    needs_signals = True
    # decisions carry this controller's name, not the paper rule's label
    rule_name = CoherencyController.rule_name

    def partial_exchange(
        self, signals: CoherencySignals, max_delta_age: int
    ) -> ExchangeDirective:
        if signals.staleness_max >= max_delta_age:
            return ExchangeDirective(True, 1, "batched-coalesce")
        return ExchangeDirective(False, 0, "batch-accumulate")


_CONTROLLERS: Dict[str, type] = {
    "paper": PaperRuleController,
    "staleness": StalenessController,
    "batched": BatchedController,
}


def controller_names() -> Tuple[str, ...]:
    """All known controller names, sorted."""
    return tuple(sorted(_CONTROLLERS))


def make_controller(name: str, **options: float) -> CoherencyController:
    """Build a fresh controller by name (controllers are stateful)."""
    try:
        cls = _CONTROLLERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown coherency controller {name!r}; known: "
            f"{', '.join(controller_names())}"
        ) from None
    try:
        return cls(**options)
    except TypeError as exc:
        raise ConfigError(
            f"controller {name!r} rejected options {sorted(options)}: {exc}"
        ) from None


# ----------------------------------------------------------------------
# The unified policy knob
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoherencyPolicy:
    """Every coherency knob in one typed, hashable value.

    Collapses the previously scattered arguments — ``run()``'s
    ``coherency_mode`` and the engines' ``max_delta_age`` — plus the
    controller choice and its numeric options (e.g. the paper rule's
    ``ev_threshold``/``trend_threshold``/``budget_multiplier``, or a
    signal-driven controller's ``mass_floor``). Accepted by
    :func:`repro.run` (``policy=``), the CLI (``--policy`` /
    ``--policy-opt k=v``) and
    :class:`~repro.bench.configs.ExperimentConfig`.
    """

    controller: str = "paper"
    mode: str = "dynamic"
    max_delta_age: int = 3
    options: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.controller not in _CONTROLLERS:
            raise ConfigError(
                f"unknown coherency controller {self.controller!r}; known: "
                f"{', '.join(controller_names())}"
            )
        if self.mode not in ("dynamic", "a2a", "m2m"):
            raise ConfigError(
                f"unknown coherency mode {self.mode!r}; known: dynamic, a2a, m2m"
            )
        if self.max_delta_age < 1:
            raise ConfigError(
                f"max_delta_age must be >= 1, got {self.max_delta_age}"
            )

    # ------------------------------------------------------------------
    def make_controller(self) -> CoherencyController:
        """A fresh (per-run) controller configured by this policy."""
        return make_controller(self.controller, **dict(self.options))

    def apply_opts(self, opts: Mapping[str, object]) -> "CoherencyPolicy":
        """Overlay ``--policy-opt``-style key=value overrides.

        The policy's own fields (``controller``, ``mode``,
        ``max_delta_age``) are recognized by name; anything else becomes
        a numeric controller option. A value of the wrong type raises
        :class:`ConfigError` naming its key.
        """
        pol = self
        for key, value in opts.items():
            if key == "controller":
                pol = replace(pol, controller=str(value))
            elif key == "mode":
                pol = replace(pol, mode=str(value))
            elif key == "max_delta_age":
                pol = replace(pol, max_delta_age=_integer(key, value))
            else:
                try:
                    numeric = float(value)
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"policy option {key!r} must be numeric, got {value!r}"
                    ) from None
                merged = dict(pol.options)
                merged[key] = numeric
                pol = replace(pol, options=tuple(sorted(merged.items())))
        return pol

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (bench outputs, experiment reports)."""
        return {
            "controller": self.controller,
            "mode": self.mode,
            "max_delta_age": self.max_delta_age,
            "options": dict(self.options),
        }


def _integer(key: str, value: object) -> int:
    """``value`` as an exact integer, else a ConfigError naming ``key``."""
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        number = math.nan
    if not number.is_integer():
        raise ConfigError(
            f"policy option {key!r} must be an integer, got {value!r}"
        )
    return int(number)


_POLICIES: Dict[str, CoherencyPolicy] = {}


def register_policy(name: str, policy: CoherencyPolicy) -> CoherencyPolicy:
    """Add a named policy to the registry (name must be unused)."""
    if name in _POLICIES:
        raise ConfigError(f"policy {name!r} is already registered")
    if not isinstance(policy, CoherencyPolicy):
        raise ConfigError(
            f"policy {name!r} must be a CoherencyPolicy, got "
            f"{type(policy).__name__}"
        )
    _POLICIES[name] = policy
    return policy


def get_policy(name: str) -> CoherencyPolicy:
    """Look a policy up by name (:class:`ConfigError` if unknown)."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown coherency policy {name!r}; known: "
            f"{', '.join(policy_names())}"
        ) from None


def policy_names() -> Tuple[str, ...]:
    """All registered policy names, sorted."""
    return tuple(sorted(_POLICIES))


# Builtin vocabulary: the paper rule and its Fig 8(a) strawmen, plus the
# two signal-driven controllers this layer introduces.
register_policy("paper", CoherencyPolicy())
for _name, _rule in STRAWMAN_RULES.items():
    register_policy(
        _name, CoherencyPolicy(options=tuple(sorted(_rule.items())))
    )
register_policy("staleness", CoherencyPolicy(controller="staleness"))
register_policy("batched", CoherencyPolicy(controller="batched"))


# ----------------------------------------------------------------------
# Policy resolution (the run()/harness path)
# ----------------------------------------------------------------------
def resolve_policy(
    policy: Union[str, CoherencyPolicy, None] = None,
    interval: object = None,
    coherency_mode: Optional[str] = None,
    max_delta_age: Optional[int] = None,
) -> Tuple[CoherencyPolicy, bool]:
    """Resolve a ``policy`` value (name / instance / None) to a policy.

    Returns ``(policy, explicit)`` where ``explicit`` is True when the
    caller named a policy — the knob that is an error on engines without
    a coherency-controller layer.

    The pre-PR-10 scattered knobs (``interval=`` / ``coherency_mode=`` /
    ``max_delta_age=``) were removed after a deprecation cycle; passing
    one raises :class:`ConfigError` with the ``policy=`` migration hint.
    """
    if interval is not None:
        raise ConfigError(
            'run(interval=...) was removed; use policy="simple" / '
            '"never" or policy=CoherencyPolicy(controller=..., '
            "options=...)"
        )
    if coherency_mode is not None:
        raise ConfigError(
            "run(coherency_mode=...) was removed; use "
            "policy=CoherencyPolicy(mode=...) or --policy-opt mode=..."
        )
    if max_delta_age is not None:
        raise ConfigError(
            "max_delta_age= was removed; use "
            "policy=CoherencyPolicy(max_delta_age=...) or "
            "--policy-opt max_delta_age=..."
        )
    explicit = policy is not None
    if isinstance(policy, str):
        policy = get_policy(policy)
    pol = policy if policy is not None else get_policy("paper")
    return pol, explicit
