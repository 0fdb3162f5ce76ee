"""A fixed reference loop that measures how fast the host runs right now.

The host these numbers come from is shared: the same code runs up to about
1.5x slower at one moment than at another, in spells of seconds to minutes
that no statistic over one run removes. So the benchmark times this loop,
which never calls eqalarm, right before and right after every operation it
measures, and reports each operation in units of the loop: its seconds x
``REF_S`` / (the loop's mean seconds around it). That is the time the
operation would take on a host where the loop takes ``REF_S`` seconds, about
a 2-vCPU VM at a quiet moment. A change to eqalarm moves the operation and
not the loop, so the ratio measures the program; a slow spell moves both.

The loop mixes what eqalarm's own time goes to: interpreted Python, creating
small numpy generators (as the per-replicate substreams do), and vectorised
trigonometry over gathered arrays (as the haversine joins do).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.010  # seconds the loop is taken to last; the unit of every reported time

_N_POINTS = 100_000
_N_GENERATORS = 100
_N_STEPS = 20_000


class Reference:
    """The reference loop over fixed inputs; ``time()`` times it now."""

    def __init__(self):
        rng = np.random.default_rng(20002004)
        self._lat = rng.uniform(-1.2, 1.2, _N_POINTS)
        self._lon = rng.uniform(-3.1, 3.1, _N_POINTS)
        self._idx = rng.permutation(_N_POINTS)
        self.time()  # warm caches and numpy's lazy set-up

    def time(self) -> float:
        """Median seconds of three runs of the loop, so that one run caught
        by an interrupt or a burst does not set the scale."""
        return statistics.median(self._once() for _ in range(3))

    def _once(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(_N_STEPS):
            acc += i % 7
        for k in range(_N_GENERATORS):
            acc += int(np.random.default_rng([k, acc & 0xFF]).permutation(30)[0])
        lat, lon = self._lat, self._lon[self._idx]
        a = np.sin(lat) ** 2 + np.cos(lat) * np.cos(lon) * np.sin(lon * 0.5) ** 2
        acc += int(np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0))).sum())
        return time.perf_counter() - start


def scaled(seconds: float, ref_seconds: float) -> float:
    """``seconds`` in reference units: seconds on a host where the loop takes REF_S."""
    return seconds * REF_S / ref_seconds
