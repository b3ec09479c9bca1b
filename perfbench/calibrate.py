"""A fixed reference computation that tells how fast this machine runs now.

On a small shared machine the speed of one core drifts by a fifth or more
from one minute to the next, while the work of a workload stays the same.
A run therefore times this reference work in short bursts between its
rounds, on the same core as the rounds, and reports its times in
reference seconds: measured seconds scaled by REF_UNIT_S over the mean
time of one unit during the run.

The unit mixes the two kinds of work the qmds kernels do: a pure-Python
loop over field tables, as in `gf` and `kernels.rref`, and numpy gathers
and reductions on uint8 arrays, as in `kernels.batch_rank` and the word
enumerators.  It uses nothing from qmds, so a change to qmds cannot
change it.
"""

from __future__ import annotations

import time

import numpy as np

# Mean seconds of one unit on the reference machine (the 2-core VM of the
# README's figures); reference seconds equal measured seconds there.
REF_UNIT_S = 0.02

_LOG = [(7 * i) % 255 for i in range(256)]
_EXP = [(3 * i + 1) % 256 for i in range(512)]
_rng = np.random.default_rng(0x5EED)
_TABLE = _rng.integers(0, 64, size=(64, 64), dtype=np.uint8)
_MATS = _rng.integers(0, 64, size=(1024, 8, 26), dtype=np.uint8)


def unit() -> int:
    """One unit of reference work; returns a value so none of it is idle."""
    acc, seen = 1, {}
    for i in range(48000):
        acc = _EXP[_LOG[acc] + _LOG[(i & 255) | 1]] or 1
        seen[i & 511] = acc
    m = _MATS
    for col in range(6):
        piv = np.argmax(m[:, :, col] != 0, axis=1)
        row = m[np.arange(m.shape[0]), piv]
        m = _TABLE[m, row[:, None, :]]
    return acc + int(m[0, 0, 0])


def burst(seconds: float) -> list[float]:
    """Times of whole units run until `seconds` have passed (at least one)."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        unit()
        times.append(time.perf_counter() - t0)
    return times
