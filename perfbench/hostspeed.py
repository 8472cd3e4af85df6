"""Host speed, from a fixed pure-Python reference load probed before every task.

The benchmark runs on a few cores of a shared host.  There the speed of one
thread drifts by 20-30% within tens of seconds, as neighbours come and go on
the same cores and caches, and CPU time drifts with it, so raw task times of
the same code spread by more than a regression worth catching.  Speed moves
within a second too: the same sweep task, timed in two passes, differed by
28-49% (interquartile range of the log ratio over the 618 tasks, in three
pairs of passes).  A timed pass
therefore probes the host before every task with `unit()`: a fixed load made
only of the standard library, much like the program's own work (exact
rational arithmetic on small slotted objects, tuple-keyed dicts, sorting).
Each task time is then scaled by `NOMINAL_S / p`, where `p` is the median of
the probes nearest in time to the task: the two before it and the two after.
That cut the same spread to 13-17%.  The result is the time the task would take
at the speed the reference host had when `NOMINAL_S` was measured.

The probes run outside the timed region, with the garbage collector off, and
use nothing from ncstar, so a change to the program cannot move them.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from math import gcd

# Median time of one `unit()` on the reference host (2 vCPU Intel Xeon at
# 2.1 GHz, Python 3.11.7).  A fixed scale: changing it changes every
# normalized figure, so it changes only with a new baseline.
NOMINAL_S = 0.0053
NEIGHBOURS = 4  # probes whose median gives the speed at one task


class _Q:
    """(a + b*i)/q, reduced: the shape of the program's own exact scalars."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b, q):
        g = gcd(gcd(a, b), q)
        if g > 1:
            a //= g
            b //= g
            q //= g
        self.a = a
        self.b = b
        self.q = q

    def __add__(self, o):
        return _Q(self.a * o.q + o.a * self.q, self.b * o.q + o.b * self.q, self.q * o.q)

    def __mul__(self, o):
        return _Q(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, self.q * o.q)


def unit() -> int:
    """The reference load: sparse rows over `_Q`, reduced against earlier rows."""
    zero = _Q(0, 0, 1)
    rows = {}
    for i in range(40):
        row = {(j % 7, (i * j) % 5, j): _Q(i + j, i - j, i % 5 + 1) for j in range(12)}
        for key in sorted(row):
            if key in rows:
                c = row[key]
                for k, v in rows[key].items():
                    row[k] = row.get(k, zero) + c * v
        rows[min(row)] = row
    return len(rows)


class HostSpeed:
    """The probes of one timed pass, and the scale they give each task."""

    def __init__(self):
        self.starts = []
        self.seconds = []

    def probe(self):
        """Time one `unit()`."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            unit()
            seconds = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.seconds.append(seconds)

    def scale(self, at: float) -> float:
        """NOMINAL_S over the median of the `NEIGHBOURS` probes nearest to time `at`."""
        if not self.seconds:
            raise ValueError("no probe was taken")
        k = bisect.bisect(self.starts, at)
        lo = max(0, min(k - NEIGHBOURS // 2, len(self.starts) - NEIGHBOURS))
        return NOMINAL_S / statistics.median(self.seconds[lo:lo + NEIGHBOURS])
