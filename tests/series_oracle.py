"""Reference alpha series and verdicts of thm3/cor2, sharing no code with the package.

A coupling is given by its plain numbers: a step table (times, values, period or
None), or an entrywise base + amplitude * trig(t / time_scale + phase). A window
integral is summed here over every piece instance the window meets, or read from
the sinusoid's antiderivative; alpha is the second smallest eigenvalue, by
numpy.linalg.eigh, of the tilde of the window-averaged Laplacian. The verdicts
read CYCLES whole cycles of windows of a periodic coupling whose h/P is the
fraction a/b, or, for an aperiodic table, every window up to its last switch and
TAIL whole windows past it: past the last switch every window averages the last
value, and a periodic coupling's windows repeat once b windows span a whole
number of periods.
"""

import math
from fractions import Fraction

import numpy as np

CYCLES = 20
TAIL = 20


def table_integral(times, values, period):
    """[a, b] -> integral of the step table values[k] on [times[k], times[k+1]), the last
    piece running to the period's end or, with no period, for ever."""
    values = [np.asarray(v, dtype=float) for v in values]
    ends = list(times[1:]) + [math.inf if period is None else period]

    def integral(a, b):
        total = np.zeros_like(values[0])
        cycle = 0 if period is None else math.floor(a / period)
        while True:
            shift = 0.0 if period is None else cycle * period
            for lo, hi, v in zip(times, ends, values):
                overlap = min(b, hi + shift) - max(a, lo + shift)
                if overlap > 0:
                    total = total + overlap * v
            if period is None or (cycle + 1) * period >= b:
                return total
            cycle += 1

    return integral


def sinusoid_integral(base, amplitude, phase, time_scale, trig):
    """[a, b] -> integral of base + amplitude * trig(t / time_scale + phase)."""
    base, amplitude, phase = (np.asarray(v, dtype=float) for v in (base, amplitude, phase))
    if trig == "cos":
        prim = lambda t: time_scale * np.sin(t / time_scale + phase)
    else:
        prim = lambda t: -time_scale * np.cos(t / time_scale + phase)
    return lambda a, b: base * (b - a) + amplitude * (prim(b) - prim(a))


def alpha(avg, r):
    """lambda2 of the tilde Laplacian of a symmetric coupling average: each nonpositive
    off-diagonal Laplacian entry times cos(r), the diagonal refit to zero row sums."""
    a = np.array(avg, dtype=float)
    np.fill_diagonal(a, 0.0)
    lap = -a
    lap[lap <= 0] *= math.cos(r)
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return float(np.linalg.eigh(lap)[0][1])


def series(integral, r, h, count):
    """alpha_0 .. alpha_{count-1}, window k being [k h, (k+1) h]."""
    return [alpha(integral(k * h, (k + 1) * h) / h, r) for k in range(count)]


def verdicts(integral, r, h, alpha_hat, last_switch=None, ratio=None):
    """{"thm3": ..., "cor2": ..., "alphas": [...]} over CYCLES cycles of a periodic
    coupling with h/P = ratio (a, b), or, given the last switch of an aperiodic table,
    over the windows up to it and TAIL windows past it, the tail read explicitly."""
    if ratio is not None:
        count = CYCLES * Fraction(*ratio).denominator
        alphas = series(integral, r, h, count)
        diverges = sum(alphas) > 0
    else:
        count = math.ceil(last_switch / h) + 1 + TAIL
        alphas = series(integral, r, h, count)
        tail = alphas[-TAIL:]
        assert max(tail) - min(tail) <= 1e-12 * max(1.0, abs(tail[0])), "tail is not constant"
        diverges = sum(tail) > 0
    return {"thm3": "pass" if diverges else "fail",
            "cor2": "pass" if min(alphas) > alpha_hat else "fail",
            "alphas": alphas}


def verdicts_of(sig, r, h, alpha_hat, ratio=None):
    """verdicts of a package signal, read from its stored numbers alone: a table's times,
    values and period, or a sinusoid's base, amplitude, phase, time scale and trig."""
    if hasattr(sig, "times"):
        integral = table_integral(sig.times.tolist(), sig.values, sig.period)
        last_switch = float(sig.times[-1])
    else:
        integral = sinusoid_integral(sig.base, sig.amplitude, sig.phase, sig.time_scale,
                                     sig.trig)
        last_switch = None
    return verdicts(integral, r, h, alpha_hat, last_switch, ratio)
