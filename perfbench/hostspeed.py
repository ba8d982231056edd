"""Host speed, sampled by a fixed reference loop while the benchmark runs.

On a shared host the speed of the machine swings within seconds: the same
grid driven twice back to back can take 30-50 % longer the second time,
and a fixed loop timed beside it swings just as much.  Over ten runs of
``heartbeat-large``, wall-clock jobs/s spread by 0.25 of its median
(quartile distance) for that reason alone.

:class:`HostSpeed` runs a short reference loop every ``PERIOD_S`` seconds
of host time, from a ``SIGALRM`` handler in the benchmark's own process,
and converts a host-time interval into *reference seconds*: the
interval's host time, less the time spent in the loop, scaled by how much
slower or faster the loop ran in that interval than ``REF_LOOP_S``.  A
change to the program moves reference seconds exactly as it moves host
seconds, while the host's own drift cancels out.  The loop touches
nothing of the program, so simulated results do not change; the run
checks that they do not.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time

#: Host seconds between two runs of the reference loop.
PERIOD_S = 0.05
#: Iterations of one reference loop.
LOOPS = 3000
#: Host seconds one reference loop takes on the reference machine: about
#: the median inside benchmark runs on a 2-core Xeon VM, where the loop
#: runs on caches the simulator just used (1.5 ms back to back, 1.8-2.5 ms
#: between simulator events).  Reference seconds equal host seconds on a
#: machine running the loop this fast.
REF_LOOP_S = 0.002


def reference_loop() -> None:
    """A fixed mix of heap and dict operations, like the simulator's."""
    heap: list[int] = []
    table: dict[int, int] = {}
    for i in range(LOOPS):
        heapq.heappush(heap, (i * 7919) % 100003)
        table[i & 1023] = i
        if len(heap) > 512:
            heapq.heappop(heap)


class HostSpeed:
    """Samples the reference loop while installed (a context manager)."""

    def __init__(self) -> None:
        #: Start time and duration of every loop run, in host seconds.
        self.at: list[float] = []
        self.took: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.took.append(time.perf_counter() - t0)
        self.at.append(t0)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the host interval from ``t0`` to ``t1``.

        The handler runs between two bytecodes of the main code, so every
        loop run lies wholly inside or wholly outside the interval.  An
        interval too short to hold a loop run is scaled by the last run
        before it.
        """
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_left(self.at, t1)
        sampled = sum(self.took[i:j])
        if j > i:
            loop_s = sampled / (j - i)
        elif j:
            loop_s = self.took[j - 1]
        else:
            return t1 - t0
        return (t1 - t0 - sampled) * REF_LOOP_S / loop_s

    def factor(self) -> float:
        """Reference seconds per host second over the whole sampling."""
        return REF_LOOP_S / statistics.median(self.took) if self.took \
            else 1.0
