"""Brute-force sliding-window spanning-tree oracle for piecewise-constant schedules.

It shares no code with tvkuramoto. A schedule is (times, values, period):
values[k] holds on [times[k], times[k+1]); with a period the pattern repeats
(the last value runs to the period end), without one the last value holds for
ever. A window integral is summed piece by piece over every occurrence of every
piece that meets the window; a spanning tree is found by a search from every
root along the links j -> i with integral entry z[i, j] > eta.

A window integral z(s) is linear in its start s between kinks, the starts where
s or s + T meets a switch. Between two kinks each entry crosses eta at most
once, where linear interpolation of the kink values puts it. The oracle checks
dense starts, every kink and every crossing, and one start between each two of
them, so it sees every graph a window takes.
"""

import math

import numpy as np


def window_integral(times, values, period, s, t):
    """Integral of the schedule over [s, t], piece occurrence by piece occurrence."""
    ends = list(times[1:]) + [period if period is not None else math.inf]
    cycles = range(int(s // period), int(t // period) + 1) if period is not None else [0]
    total = np.zeros_like(np.asarray(values[0], dtype=float))
    for n in cycles:
        offset = n * period if period is not None else 0.0
        for lo, hi, value in zip(times, ends, values):
            overlap = min(offset + hi, t) - max(offset + lo, s)
            if overlap > 0:
                total = total + np.asarray(value, dtype=float) * overlap
    return total


def has_root(z, eta):
    """True iff some node reaches every node along the kept links j -> i (z[i, j] > eta)."""
    m = len(z)
    kept = [[i for i in range(m) if i != j and z[i][j] > eta] for j in range(m)]
    for root in range(m):
        seen, stack = {root}, [root]
        while stack:
            for i in kept[stack.pop()]:
                if i not in seen:
                    seen.add(i)
                    stack.append(i)
        if len(seen) == m:
            return True
    return False


def _kinks(times, period, window):
    if period is not None:
        found = {(b - c * window) % period for b in times for c in (0, 1)}
        return sorted({x for x in found if x < period} | {0.0})
    found = set(times) | {b - window for b in times if b - window > 0}
    return sorted(found | {0.0})


def cor1_passes(times, values, period, window, eta, dense=200):
    """True iff every window start of the schedule keeps a spanning tree at eta."""
    span = period if period is not None else float(times[-1])
    kinks = _kinks(times, period, window)
    ends = kinks + [kinks[0] + period] if period is not None else kinks
    z = [window_integral(times, values, period, s, s + window) for s in ends]
    crossings = []
    for a, b, za, zb in zip(ends, ends[1:], z, z[1:]):
        for i, j in zip(*np.nonzero((za - eta) * (zb - eta) < 0)):
            crossings.append(a + (eta - za[i, j]) / (zb[i, j] - za[i, j]) * (b - a))
    points = sorted(set(kinks) | set(crossings) | set(np.linspace(0.0, span, dense).tolist()))
    gaps = points + [points[0] + period] if period is not None else points  # and the wrap
    points += [(a + b) / 2 for a, b in zip(gaps, gaps[1:])]
    return all(has_root(window_integral(times, values, period, s, s + window), eta)
               for s in points)
