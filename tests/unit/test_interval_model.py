"""Unit tests for the adaptive interval rule (paper §4.2.1).

The rule lives in :class:`~repro.core.policy.PaperRuleController`; Fig
8(a)'s strawmen are registered policies that set its three numbers, and
the trainable variant ships with ``examples/tune_interval_rule.py``.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from repro.core.policy import (
    STRAWMAN_RULES,
    CoherencySignals,
    PaperRuleController,
    get_policy,
)
from repro.errors import ConfigError

_EXAMPLE = Path(__file__).parents[2] / "examples" / "tune_interval_rule.py"


def _load_example():
    spec = importlib.util.spec_from_file_location("tune_interval_rule", _EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fit_interval_rule = _load_example().fit_interval_rule


def lazy(rule, ev_ratio, trend):
    return rule.turn_on_lazy(CoherencySignals(0, ev_ratio, trend, 0))


class TestAdaptiveRule:
    def test_paper_disjunction(self):
        m = PaperRuleController()
        # E/V <= 10 -> lazy regardless of trend (road graphs)
        assert lazy(m, 2.4, -0.5)
        # high E/V, ascending frontier -> eager
        assert not lazy(m, 23.8, -0.1)
        # high E/V, descending >= 7% -> lazy
        assert lazy(m, 23.8, 0.08)

    def test_boundaries_inclusive(self):
        m = PaperRuleController()
        assert lazy(m, 10.0, 0.0)
        assert lazy(m, 11.0, 0.07)
        assert not lazy(m, 10.01, 0.069)

    def test_budget_is_3t(self):
        m = PaperRuleController()
        assert m.local_budget(0.5) == pytest.approx(1.5)

    def test_custom_thresholds(self):
        m = PaperRuleController(ev_threshold=5.0, budget_multiplier=2.0)
        assert not lazy(m, 6.0, 0.0)
        assert m.local_budget(1.0) == 2.0


class TestOtherStrategies:
    def test_simple_always_on_unbounded(self):
        m = PaperRuleController(**STRAWMAN_RULES["simple"])
        assert lazy(m, 100.0, -1.0)
        assert math.isinf(m.local_budget(1.0))

    def test_never(self):
        m = PaperRuleController(**STRAWMAN_RULES["never"])
        assert not lazy(m, 1.0, 1.0)
        assert m.local_budget(1.0) == 0.0

    def test_factory(self):
        assert get_policy("paper").make_controller().rule_name == "adaptive"
        assert get_policy("simple").make_controller().rule_name == "simple"
        assert get_policy("never").make_controller().rule_name == "never"
        with pytest.raises(ConfigError):
            get_policy("bogus")


class TestFitting:
    def test_recovers_separable_rule(self):
        # ground truth: lazy good iff ev <= 8 or trend >= 0.1
        samples = []
        for ev in (2.0, 5.0, 8.0, 12.0, 20.0):
            for trend in (-0.2, 0.0, 0.1, 0.3):
                samples.append((ev, trend, ev <= 8 or trend >= 0.1))
        rule = fit_interval_rule(samples)
        for ev, trend, label in samples:
            assert lazy(rule, ev, trend) == label

    def test_requires_samples(self):
        with pytest.raises(ConfigError):
            fit_interval_rule([])

    def test_candidate_grids_honoured(self):
        samples = [(2.0, 0.0, True), (20.0, 0.0, False)]
        rule = fit_interval_rule(
            samples, ev_candidates=[10.0], trend_candidates=[0.5]
        )
        assert rule.ev_threshold == 10.0
        assert rule.trend_threshold == 0.5
