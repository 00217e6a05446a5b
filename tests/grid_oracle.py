"""The even-point sample grid, the reading of the references that stand for it.

`even_grid` is the grid tvkuramoto.signals.sample_grid drew before a grid of
tables alone became their switch times: num even points on each of [0, s) and
[s, s + P), and every switch, whatever the signals. s is the last switch of an
aperiodic table and P the common period. The references that read a table at
even points draw their times here, so they do not follow the package's grid.
"""

import numpy as np

from tvkuramoto.signals import TableSignal, TimeSignal, common_period


def even_grid(signals, num=1000):
    """num even points on each of [0, s) and [s, s + P), and every switch in [0, s + P)."""
    if isinstance(signals, TimeSignal):
        signals = [signals]
    settle = max([float(s.times[-1]) for s in signals
                  if isinstance(s, TableSignal) and s.period is None], default=0.0)
    span = settle + (common_period(signals) or 0.0)
    num = max(int(num), 2)
    pts = [np.linspace(0.0, settle, num, endpoint=False),
           np.linspace(settle, span, num, endpoint=False)]
    for s in signals:
        bp = s.breakpoints_in(0.0, span)
        pts.append(bp[bp < span])
    return np.unique(np.concatenate(pts))
