"""Scalar piece lookup of a step table, independent of tvkuramoto.

`piece_at` is the package's table lookup for one time, as a scalar loop: fold
the time onto one period (or clip it to the last switch), snap a time up to
1e-9 s below a switch or a period end onto it (the distance within which the
step grid must hit a switch), and bisect a list of the switch times to the
right. It takes plain times, a period and the time list, and shares no code
with the package."""

import bisect
import math

SNAP = 1e-9  # seconds: a query this close below a switch reads the new piece


def fold_periodic(t, period):
    """t mapped onto [0, period), a time within the snap below a period end onto the next."""
    cycles = t / period
    n = math.floor(cycles)
    if cycles - n > 1.0 - SNAP / period:
        n += 1
    return max(t - n * period, 0.0)


def piece_at(times, period, t):
    """Index k of the piece that holds at time t >= 0 of the table starting at times[k]."""
    times = [float(x) for x in times]
    tau = min(t, times[-1]) if period is None else fold_periodic(t, period)
    return bisect.bisect_right(times, tau + SNAP) - 1
