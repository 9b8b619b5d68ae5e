"""Host-speed probe: scales the end-to-end timings to one reference speed.

The benchmark runs on a few cores of a shared host whose speed changes on
its own, between two levels about 1.4 to 1.6 times apart, for stretches from
under a second to minutes. A fixed loop that never touches cyclecap shows
the same changes as repeated identical decodes of one image, on either
core. Over five runs of the same code, the quartile distance of the
benchmark's wall-time figures reached 0.3 to 0.4 of their median, more than
the regressions the benchmark has to catch.

So while the untraced pass runs, a SIGALRM handler times a fixed loop of
small numpy operations every ``PERIOD_S`` seconds. A measured interval
becomes reference seconds: its wall time less the probes that ran inside
it, times the mean of ``REFERENCE_S`` over the probe's duration, taken over
the probes near the interval. That is the time the interval would have
taken on a host where the probe takes ``REFERENCE_S``. A program that gets
slower shows in full, since the probe runs no program code; a host that
gets slower slows the probe as well and cancels out.

The probe mimics the program's mix, Python dispatching numpy calls on small
arrays: over 150 s of train-long jobs and decode rounds, the log wall time of
a job or round rose 1.1 times as fast as the probe's log duration (r 0.84 to
0.92). For a pure-Python loop the factor was 1.3 to 1.6, so it corrected
too little. The probe runs cold, after whatever the program did; a change
to the program's memory footprint can move its duration by a few percent,
so each run prints the probe's median.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

PERIOD_S = 0.025
# The probe takes about this long on the 2-vCPU VM the benchmark was built
# on; any fixed value would do.
REFERENCE_S = 1e-4
_X = np.linspace(0.0, 1.0, 64)


def probe_loop() -> np.ndarray:
    x = _X
    for _ in range(20):
        x = np.tanh(x * 0.5 + 0.1)
    return x


class HostProbe:
    """Context manager that times ``probe_loop`` every ``PERIOD_S`` seconds
    from a SIGALRM handler in the main thread."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def __enter__(self) -> HostProbe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, _signum, _frame) -> None:
        t0 = perf_counter()
        probe_loop()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def reference_seconds(self, start: float, end: float, margin: float = 0.0) -> float:
        """Seconds that [start, end) would have taken at the reference speed.

        The speed is the mean over the probes that started within ``margin``
        of the interval; give a short interval a margin so that it has
        several probes."""
        inside = sum(self.durations[bisect_left(self.starts, start):
                                    bisect_left(self.starts, end)])
        near = self.durations[bisect_left(self.starts, start - margin):
                              bisect_right(self.starts, end + margin)]
        if not near:
            raise RuntimeError(f"no host-speed probe ran within {margin} s of "
                               f"an interval of {end - start:.3f} s")
        return (end - start - inside) * statistics.fmean(REFERENCE_S / d for d in near)

    def summary(self) -> str:
        ms = [d * 1e3 for d in self.durations]
        q = statistics.quantiles(ms, n=10)
        return (f"{len(ms)} probes, median {statistics.median(ms):.3f} ms, "
                f"p10 {q[0]:.3f} ms, p90 {q[-1]:.3f} ms "
                f"(reference {REFERENCE_S * 1e3:.3f} ms)")
