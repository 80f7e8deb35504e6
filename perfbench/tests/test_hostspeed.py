"""Host-speed samples: cadence between ops and the scale factors."""

import pytest

from perfbench import hostspeed
from perfbench.hostspeed import EVERY_S, PER_SETUP, REF_NOMINAL_S, HostSpeed


def test_samples_after_enough_op_time(monkeypatch):
    monkeypatch.setattr(hostspeed, "timed_load", lambda: REF_NOMINAL_S)
    speed = HostSpeed()
    speed.after_op(EVERY_S / 2)
    assert speed.ops == []
    speed.after_op(EVERY_S / 2)
    assert len(speed.ops) == 1
    # the op time counts again from zero after a sample
    speed.after_op(EVERY_S / 2)
    assert len(speed.ops) == 1
    speed.after_op(3 * EVERY_S)
    assert len(speed.ops) == 2
    speed.after_setup()
    assert len(speed.setup) == PER_SETUP and len(speed.ops) == 2


def test_factors():
    speed = HostSpeed()
    speed.ops = [REF_NOMINAL_S, 2 * REF_NOMINAL_S]
    speed.setup = [REF_NOMINAL_S, 2 * REF_NOMINAL_S, 9 * REF_NOMINAL_S]
    assert speed.ops_factor == pytest.approx(1.5)
    # the median keeps one stalled sample out of the setup factor
    assert speed.setup_factor == pytest.approx(2.0)


def test_reference_load_is_timed():
    assert hostspeed.timed_load() > 0
