"""Grid-point-by-grid-point oracle for certificates.invariance_pointwise.

It builds the drift-margin matrix at every time of the joint sample grid, as
the certificate did before it computed one matrix per distinct (omega,
coupling) pair of values, and keeps the earliest grid time of the strict
maximum. It shares the grid and the per-pair sums with tvkuramoto, so a
difference from the certificate can only come from the per-pair reuse.
"""

import math

import numpy as np

from tvkuramoto.certificates import CertificateReport
from tvkuramoto.graph import _pair_sums
from tvkuramoto.signals import sample_grid


def invariance_pointwise_json(omega, coupling, r):
    """The to_json() of the invariance-pointwise report, margins built at every grid time."""
    m = coupling.shape[0]
    grid = sample_grid([omega, coupling])
    sin_r = math.sin(r)
    worst = -math.inf
    worst_loc = None
    for t in grid.tolist():
        w, a = omega.evaluate(t), coupling.evaluate(t)
        common_min, neg_sum = _pair_sums(a)
        mixing = ((a + a.T) + neg_sum + common_min) * sin_r
        lhs = np.subtract.outer(w, w) - mixing
        np.fill_diagonal(lhs, -math.inf)
        i, j = divmod(int(np.argmax(lhs)), m)
        if lhs[i, j] > worst:
            worst = float(lhs[i, j])
            worst_loc = (t, i + 1, j + 1)
    return CertificateReport(
        "invariance-pointwise", "pass" if worst < 0.0 else "fail",
        witnesses={"max_lhs": worst, "margin": -worst, "worst_time": worst_loc[0],
                   "worst_pair": [worst_loc[1], worst_loc[2]], "grid_size": int(grid.size)},
        parameters={"r": r},
    ).to_json()
