"""Host-speed calibration: a fixed pure-Python loop timed alongside the work.

On a shared host, other tenants' load slows this process by up to half for
seconds at a time, and the process cannot see it (its CPU time grows with
its wall time).  While a Calibrator is active, a SIGALRM handler runs a
fixed loop every PERIOD_S of wall time.  An interval of work is then
converted to reference seconds: its wall time, less the handler's own time,
times REFERENCE_LOOP_S over the loop's duration measured during or next to
the interval.  A reference second is the time in which the loop would run
1 / REFERENCE_LOOP_S times, so load that slows the loop and the program
alike cancels out.  The loop shares no code with the program.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from array import array

#: wall-clock period of the calibration loop
PERIOD_S = 0.02

#: nominal duration of one calibration loop (about its duration on an idle
#: Xeon core under CPython 3.11)
REFERENCE_LOOP_S = 0.0006

_LOOP_STEPS = 2500


def reference_loop() -> float:
    """Float arithmetic, small tuples and dict stores, like the program's mix."""
    acc = 0.0
    table = {}
    for i in range(_LOOP_STEPS):
        x = i * 0.5 + 1.0
        acc += x * x / (x + 1.0) - math.sqrt(x)
        table[i & 63] = (x, acc)
    return acc


class Calibrator:
    """Runs reference_loop on a timer and converts wall intervals."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        reference_loop()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        return False

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the work done between two perf_counter stamps.

        The loops run inside the interval are taken out, and the work before
        each loop is scaled by that loop's speed (the work after the last one
        by the last one's).  An interval holding no loop takes the mean speed
        of its two neighbours.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if lo == hi:
            near = self.durations[max(lo - 1, 0):lo + 1]
            return (end - start) * REFERENCE_LOOP_S / statistics.fmean(near)
        total = 0.0
        edge = start
        for j in range(lo, hi):
            total += (self.starts[j] - edge) / self.durations[j]
            edge = self.starts[j] + self.durations[j]
        total += (end - edge) / self.durations[hi - 1]
        return total * REFERENCE_LOOP_S

    def slowdown(self) -> dict:
        """Loop duration over REFERENCE_LOOP_S: median and extremes."""
        ratios = sorted(d / REFERENCE_LOOP_S for d in self.durations)
        return {"samples": len(ratios), "median": statistics.median(ratios),
                "min": ratios[0], "max": ratios[-1]}
