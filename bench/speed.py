"""A clock that runs at the host's speed, for steady timings on a shared machine.

The virtual CPUs the benchmark gets are slowed by the host now and then, by up
to two thirds, for stretches of a second to minutes; CPU time slows with them,
so neither wall nor CPU time repeats from run to run. `SpeedClock` times a
small fixed kernel every TICK_S seconds, from a SIGALRM handler, and counts
each stretch between two ticks at the speed the kernel showed there:
stretch x KERNEL_S / kernel seconds. The kernel's own time is left out. So a
span of this clock is the time the same work takes on a host that runs the
kernel in KERNEL_S seconds. The kernel does what the program spends its time
on: a pure-Python loop, small-array numpy arithmetic, Python function calls
and small array allocations. Together these follow the host's speed better
than any one of them alone, or with memory-bound loops added.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

TICK_S = 0.025      # wall seconds between two kernel timings
KERNEL_S = 0.0012   # nominal seconds of one kernel(), about its time on an idle host

_A = np.full((5, 5), 0.1)


def _add(x, y=1):
    return x + y


def kernel() -> float:
    """Wall seconds of a fixed piece of work, one to two milliseconds."""
    start = time.perf_counter()
    s = 0
    for i in range(8_000):
        s += i * i
    v = np.ones(5)
    for _ in range(100):
        v = np.sin(_A @ v) + 0.5 * v
    for i in range(3_000):
        _add(i)
    for _ in range(300):
        np.zeros(50) + 1.0
    return time.perf_counter() - start


class SpeedClock:
    """`read()` gives seconds at the speed KERNEL_S; ticks only between start() and stop()."""

    def __init__(self, tick_s: float = TICK_S):
        self.tick_s = tick_s
        kernel()  # warm-up
        self.kernel_s = [kernel()]
        # (seconds counted up to `last`, perf_counter at the last tick's end, kernel seconds
        # then), replaced whole so that read() never sees half of a tick's update
        self._state = (0.0, time.perf_counter(), self.kernel_s[0])
        self._busy = False
        self._previous = None

    def _tick(self, *_):
        if self._busy:  # a tick that comes due while the last one runs is dropped
            return
        self._busy = True
        try:
            counted, last, k = self._state
            start = time.perf_counter()
            k = kernel()
            self.kernel_s.append(k)
            self._state = (counted + (start - last) * KERNEL_S / k, time.perf_counter(), k)
        finally:
            self._busy = False

    def read(self) -> float:
        counted, last, k = self._state
        return counted + (time.perf_counter() - last) * KERNEL_S / k

    def start(self):
        counted, _, k = self._state
        self._state = (counted, time.perf_counter(), k)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def summary(self) -> dict:
        ks = self.kernel_s
        return {"ticks": len(ks), "kernel_median_s": statistics.median(ks),
                "kernel_min_s": min(ks), "kernel_max_s": max(ks)}
