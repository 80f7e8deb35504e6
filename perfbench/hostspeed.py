"""Host-speed calibration: a fixed reference load timed between ops.

On a small shared host the speed drifts by up to a quarter over minutes
as other tenants come and go, and a fixed CPU-and-memory loop slows
down together with the program's ops. Each run times this reference
load right after each setup and between its ops (outside every timed
interval), and scales the setup and op times measured at those moments
to a host on which the load takes ``REF_NOMINAL_S``, so two runs
compare the program rather than the moment they ran at. The load is
plain Python and numpy, shares no code with the program, and is the
same for every commit; the raw figures are printed beside the scaled
ones.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: the reference load's time on a 2-core x86 host (its mean over runs)
REF_NOMINAL_S = 0.030
#: take a sample after at least this much op time
EVERY_S = 0.5
#: samples taken after each setup
PER_SETUP = 3

_rng = np.random.default_rng(12345)
_KEYS = _rng.integers(0, 20_000, 60_000)
_KEY_LIST = _KEYS.tolist()
_VALUES = _rng.random(150_000)


def reference_load() -> None:
    """Dict counting in the interpreter, then a sort and a histogram:
    the mix of Python objects and numpy array passes the program runs."""
    counts: dict = {}
    for k in _KEY_LIST:
        counts[k] = counts.get(k, 0) + 1
    np.argsort(_VALUES, kind="stable")
    np.bincount(_KEYS)


def timed_load() -> float:
    t0 = time.perf_counter()
    reference_load()
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-load samples of one run; a factor > 1 is a slow host."""

    def __init__(self) -> None:
        self.setup: List[float] = []
        self.ops: List[float] = []
        self._since = 0.0

    def after_setup(self) -> None:
        self.setup.extend(timed_load() for _ in range(PER_SETUP))

    def after_op(self, op_s: float) -> None:
        self._since += op_s
        if self._since >= EVERY_S:
            self._since = 0.0
            self.ops.append(timed_load())

    @property
    def setup_factor(self) -> float:
        """For the median setup time: the median sample of the setups."""
        return float(np.median(self.setup)) / REF_NOMINAL_S

    @property
    def ops_factor(self) -> float:
        """For op times summed or ranked over the loop: the mean sample."""
        return float(np.mean(self.ops)) / REF_NOMINAL_S
