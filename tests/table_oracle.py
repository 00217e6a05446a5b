"""Scalar piece lookup of a step table, independent of tvkuramoto.

`piece_at` is the rule the package's table signal used for one time before its
lookup became one array pass: fold the time onto one period (or clip it to the
last switch), snap a time a relative 1e-9 of the span below a switch onto it,
and bisect a list of the switch times to the right. It takes plain times, a
period and the time list, and shares no code with the package.
"""

import bisect
import math

SNAP = 1e-9  # relative half-width for snapping a query onto a switch


def fold_periodic(t, period):
    """t mapped onto [0, period), a time within the snap below a period end onto the next."""
    cycles = t / period
    n = math.floor(cycles)
    if cycles - n > 1.0 - SNAP:
        n += 1
    return max(t - n * period, 0.0)


def piece_at(times, period, t):
    """Index k of the piece that holds at time t >= 0 of the table starting at times[k]."""
    times = [float(x) for x in times]
    span = period if period is not None else times[-1] + 1.0
    tau = min(t, times[-1]) if period is None else fold_periodic(t, period)
    return bisect.bisect_right(times, tau + SNAP * span) - 1
