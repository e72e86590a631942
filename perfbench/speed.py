"""Host-speed meter: a fixed reference loop, timed between solves.

The benchmark host is a shared VM whose speed drifts by tens of percent
within a minute (a fixed loop ran 0.22-0.29 s, and one solve 0.69-1.06 s,
within a few seconds), because other tenants load the same cores.  That
drift is slower than one solve and faster than a run, so it moves every
timed metric from run to run by more than the benchmark's bounds.

A worker therefore runs ``reference()`` between solves, for about DUTY of
the time it spends solving, and scales its timings by ``REF_S / (mean
time of one reference call)``: a pass total by the mean over the whole
pass, and each solve by the mean of the LOCAL_CALLS calls nearest to it
in time, since the speed also moves within a pass.  The reported seconds
are seconds at a host speed where one reference call takes REF_S.  The
reference loop does the kind of work the solver does (tuples, dicts,
sorts, string formatting) and shares no code or state with it, so a
change to skeindepth moves the scaled timings as it moves the raw ones.
The loop's own time is left out of every timing.
"""

from __future__ import annotations

import bisect
import time

# one reference() call on the 2-vCPU x86 VM where the benchmark was defined
REF_S = 0.001
# reference time per second of measured work
DUTY = 0.1
# calls made before the first factor is read, when nothing was measured yet
MIN_CALLS = 20
# calls that give the speed at one moment of a pass
LOCAL_CALLS = 16


def reference() -> str:
    """One call of the reference loop: about 1 ms of interpreter work.

    It relabels a fixed list of 5-tuples under a dict, sorts them and
    keeps the least "%d,..." serialization, as a canonical form would,
    and counts tuple keys in a dict.  Neither part calls skeindepth.
    """
    rows = [((i * 7) % 23, (i * 11) % 23, (i * 5) % 23, (i * 3) % 23, 1 - 2 * (i & 1)) for i in range(12)]
    best = ""
    for s in range(30):
        mapping = {}
        for k in range(24):
            mapping[(k + s) % 24] = (k * 5 + s) % 24 + 1
        relabeled = [(mapping[a], mapping[b], mapping[c], mapping[d], e) for a, b, c, d, e in rows]
        code = ";".join("%d,%d,%d,%d,%d" % r for r in sorted(relabeled)) + "|L%d" % (s & 1)
        if not best or code < best:
            best = code
    table: dict[tuple[int, int, int], int] = {}
    for i in range(750):
        key = ((i * 7) % 97, (i * 13) % 89, i % 83)
        table[key] = table.get(key, 0) + 1
    return best + str(len(table))


class SpeedMeter:
    """Keeps reference time at DUTY of the measured work; gives the scale."""

    def __init__(self) -> None:
        self.seconds = 0.0  # spent in reference calls
        self.work_s = 0.0
        # (midpoint, duration) of every call, in time order
        self.marks: list[tuple[float, float]] = []

    def _call(self) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.seconds += t1 - t0
        self.marks.append(((t0 + t1) / 2, t1 - t0))

    def after(self, work_s: float) -> None:
        """Account ``work_s`` of measured work and run the calls now due."""
        self.work_s += work_s
        while self.seconds < DUTY * self.work_s:
            self._call()

    def factor(self) -> float:
        """Multiply a measured time by this to get it at reference speed."""
        while len(self.marks) < MIN_CALLS:
            self._call()
        return REF_S * len(self.marks) / self.seconds

    def local_factor(self, at: float) -> float:
        """The factor from the LOCAL_CALLS calls nearest to time ``at``."""
        self.factor()
        lo = hi = bisect.bisect_left(self.marks, (at,))
        while hi - lo < min(LOCAL_CALLS, len(self.marks)):
            if lo and (hi == len(self.marks) or at - self.marks[lo - 1][0] < self.marks[hi][0] - at):
                lo -= 1
            else:
                hi += 1
        return REF_S * (hi - lo) / sum(dt for _, dt in self.marks[lo:hi])
