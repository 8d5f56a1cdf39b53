"""Host speed, measured beside the work on the same core.

The cores of a shared VM change speed with what the host's other tenants
run.  On the 2-core Xeon VM the baseline comes from, a fixed loop takes
either its usual time or 1.3-1.75 times that, in spells of seconds to
about a minute, and the two cores switch independently of each other.
One paper-pipeline pass, timed twice in a row on the same data, took 32
and 43 s.  A median over the slices of a run cannot hide a spell as long
as the run.

So each workload runs on one core (:func:`pin`; the serve-http server
process inherits it) and a :class:`SpeedProbe` thread on that core times
a fixed reference loop every 25 ms.  A time measured over an interval is
divided by the interval's :meth:`SpeedProbe.slowdown`: the median
reference time in the interval over :data:`REFERENCE_S`, the reference
time at full speed.  The quotient reads as the time the work would take
on a core at full speed.  The loop is interpreter work, as most of the
program's is, and is timed in thread CPU time, so that the other threads
sharing the core do not stretch it.

Over ten seeds on that VM, while the probe read slowdowns of 0.78-1.38,
dividing cut the spread (interquartile range over median) of the
pipeline pass time from 27% to 2.5%, and of stream-day's CPU per hour
from 17% to 3.8%.

The probe takes about 1% of the core.  It costs every commit the same.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import List, Tuple

#: The reference loop's thread CPU time at full speed: about its lower
#: decile on the baseline host, idle or busy.  Only the ratio of two
#: measurements matters; this constant makes scaled times read close to
#: raw ones on a quiet host.
REFERENCE_S = 200e-6

PERIOD_S = 0.025


def pin() -> None:
    """Run this process on the first core it may use.  The threads and
    processes it starts later inherit the core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _reference() -> float:
    """A fixed stretch of interpreter work; returns the thread CPU seconds
    it took."""
    start = time.thread_time()
    total = 0
    for i in range(3000):
        total += i * i
    return time.thread_time() - start


class SpeedProbe:
    """Times the reference loop every :data:`PERIOD_S` on a daemon thread."""

    def __init__(self) -> None:
        self._samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-speed-probe",
                                        daemon=True)

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._samples.append((time.perf_counter(), _reference()))

    def slowdown(self, start: float, end: float) -> float:
        """Median reference time over ``[start, end)`` (``perf_counter``
        seconds) divided by :data:`REFERENCE_S`; 1.0 reads as full speed.
        An interval shorter than the probe period takes its nearest
        sample."""
        samples = list(self._samples)
        if not samples:
            raise RuntimeError("the speed probe has taken no sample")
        inside = [s for t, s in samples if start <= t < end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return statistics.median(inside) / REFERENCE_S

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
