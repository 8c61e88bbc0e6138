"""Host speed, measured while the benchmark runs, to take out host noise.

The benchmark box is a shared virtual machine whose speed drifts by up to
half: the same pass over the same items took from 10.4 to 15.2 s in
consecutive runs, and slow spells last from a second to a minute, so
medians within one run cannot remove them.  While a run measures, a timer
interrupts it every PERIOD_S of CPU time and times a small fixed integer
loop, which never touches the engine.  Every measured interval then has
the loop's own time taken out and is scaled by REF_S over the median loop
time near it.  Times reported this way are seconds at the reference
speed; the raw times are printed next to them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# median loop time on the reference box (2 cores, Python 3.11)
REF_S = 0.0010
PERIOD_S = 0.05
# samples within this distance of an interval speak for it
WINDOW_S = 0.25
MIN_SAMPLES = 15


def _loop() -> None:
    x = 0
    for i in range(10000):
        x = (x * 31 + i) % 1000003


class HostSpeed:
    def __init__(self) -> None:
        self.times: list[float] = []  # sample start times, increasing
        self.costs: list[float] = []

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _loop()
        self.costs.append(time.perf_counter() - t0)
        self.times.append(t0)

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def median(self) -> float:
        return statistics.median(self.costs)

    def net(self, start: float, seconds: float) -> float:
        """``seconds`` from ``start`` without the samples taken inside."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, start + seconds)
        return seconds - sum(self.costs[lo:hi])

    def scale(self, start: float, seconds: float) -> float:
        """Net ``seconds`` measured from ``start``, at the reference speed:
        against the samples within WINDOW_S of the interval, or the
        MIN_SAMPLES nearest its middle when that is more."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, start + seconds / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return self.net(start, seconds) * REF_S / statistics.median(self.costs[lo:hi])
