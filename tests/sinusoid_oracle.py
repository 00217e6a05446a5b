"""The dense value of a sinusoid signal, base + amplitude * trig(t/time_scale + phase),
computed the way the package computed it before it split off its constant entries.

The amplitude term is expanded as c cos(x) + s sin(x), with x = t/time_scale,
c and s taken from the phase by numpy's elementwise cos and sin, and cos(x),
sin(x) taken by `math` at each time. Every entry of every value is
base + c cos(x) + s sin(x), summed left to right, so a -0.0 base keeps the
sign the two zero products give it. It imports nothing from the package.
"""

from __future__ import annotations

import math

import numpy as np


def coefficients(amplitude, phase, trig):
    """(c, s) with amplitude * trig(x + phase) = c cos(x) + s sin(x)."""
    amplitude, phase = np.asarray(amplitude, dtype=float), np.asarray(phase, dtype=float)
    ac, as_ = amplitude * np.cos(phase), amplitude * np.sin(phase)
    return (as_, ac) if trig == "sin" else (ac, -as_)


def value(base, amplitude, phase, trig, time_scale, t):
    """The value at t: a float for a scalar signal at a scalar time, else an array whose
    value axes follow the time axes."""
    base = np.asarray(base, dtype=float)
    c, s = coefficients(amplitude, phase, trig)
    shape = np.broadcast_shapes(base.shape, c.shape)
    times = np.asarray(t, dtype=float)
    rows = []
    for u in times.ravel().tolist():
        x = u / time_scale
        rows.append(np.broadcast_to(base + c * math.cos(x) + s * math.sin(x), shape))
    out = np.array(rows).reshape(times.shape + shape)
    return float(out) if out.ndim == 0 else out


def evaluate(sig, t):
    """value(...) of a sinusoid signal, read from its public fields."""
    return value(sig.base, sig.amplitude, sig.phase, sig.trig, sig.time_scale, t)
