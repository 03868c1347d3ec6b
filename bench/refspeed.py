"""Wall times scaled to a reference CPU speed.

On a shared virtual machine the CPU speed one process gets changes by up to
1.8x for tens of seconds at a time, as other tenants load the cores; raw wall
times of identical work then spread by 25-30% between runs.  The benchmark
therefore brackets every timed unit of work with a short fixed pure-Python
loop and multiplies the unit's wall time by REF_LOOP_S over the loop's mean
time around it: the result is the time the unit would have taken had the
machine run the loop at its reference speed.  Work that slows less than the
loop under contention (or more) is measured correspondingly off; raw wall
times are reported next to the scaled ones.
"""

from __future__ import annotations

import time

# The loop's time on an otherwise idle 2.1 GHz Xeon core (Python 3.11).
REF_LOOP_S = 0.0108


def loop_seconds() -> float:
    t0 = time.perf_counter()
    s = 0.0
    d = {}
    for i in range(120000):
        s += i * 0.5
        d[i & 255] = s
    return time.perf_counter() - t0


class Clock:
    """Times work in wall seconds and in reference seconds."""

    def __init__(self):
        self._last = loop_seconds()

    def scale(self, wall: float) -> float:
        """Reference seconds for ``wall``, measured since the previous call."""
        after = loop_seconds()
        scaled = wall * REF_LOOP_S / (0.5 * (self._last + after))
        self._last = after
        return scaled

    def time(self, fn, *args):
        """Return (fn(*args), wall seconds, reference seconds)."""
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        return out, wall, self.scale(wall)
