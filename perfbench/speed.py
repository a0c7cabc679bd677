"""The host's speed, sampled between timed sections.

The benchmark shares a host whose speed drifts by 10-45% from one minute
to the next (other tenants, CPU steal).  So each timing is taken next to a
fixed reference task that runs no program code, and reported in reference
time: raw seconds x (reference rate around the timing / REF_RATE).  A host
that runs 20% fast for a minute speeds up the program and the reference
alike, and the reported figure stays put; a change to the program moves it
in full.  Standard error of each run gives the factors, so raw times can be
recovered.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

# Reference units per second on the machine the bounds were set on (4
# shared vCPUs, Python 3.11): the median of 60 samples.  It fixes only the
# scale of the reported times, not their spread.
REF_RATE = 360.0
SLICE_S = 0.1  # one sample runs the reference task this long

_RNG = np.random.default_rng(20_240_601)
_ARR = _RNG.integers(0, 1 << 30, 20_000)
_BLOB = _RNG.integers(0, 50, 20_000).astype(np.uint8).tobytes()
_WORDS = [str(x) for x in range(5_000)]


def _unit() -> int:
    """One unit of reference work (about 3 ms): interpreter-bound dict and
    sort work, a numpy sort and a zlib compression."""
    d: dict[str, int] = {}
    for w in _WORDS:
        d[w] = d.get(w, 0) + len(w)
    top = sorted(d.items(), key=lambda kv: -kv[1])[:10]
    np.sort(_ARR)
    return len(zlib.compress(_BLOB, 6)) + len(top)


def sample() -> float:
    """Reference units per second over about SLICE_S seconds."""
    t0 = time.perf_counter()
    n = 0
    while True:
        _unit()
        n += 1
        dt = time.perf_counter() - t0
        if dt >= SLICE_S:
            return n / dt


class Clock:
    """``factor()`` samples the reference speed and returns the factor
    that turns a raw time measured since the previous sample into reference
    time: the mean of the two samples over REF_RATE."""

    def __init__(self):
        self._last = sample()
        self.factors: list[float] = []

    def factor(self) -> float:
        now = sample()
        f = (self._last + now) / 2 / REF_RATE
        self._last = now
        self.factors.append(f)
        return f

    def resync(self) -> None:
        """Start the next interval here, after untimed work."""
        self._last = sample()
