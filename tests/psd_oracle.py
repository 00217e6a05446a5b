"""Reference PSD probes, one eigensolve per probe time.

These are the loops thm3/cor2 and the fast-switching sweep ran before each
stored piece was tested once: every distinct probe time, in order, gets its
own Laplacian and psd_fault call. The package must report what these report.
"""

import numpy as np

from tvkuramoto.certificates import psd_fault
from tvkuramoto.graph import laplacian_from_adjacency


def _first_fault(coupling, probe):
    for t in np.unique(probe):
        fault, low = psd_fault(laplacian_from_adjacency(coupling.evaluate(float(t))))
        if fault is not None:
            return t, low
    return None


def thm3_witness(coupling, h, num_windows):
    """The inconclusive witness of thm3 over its 51 even probes and the switches, or None."""
    horizon = h * num_windows
    found = _first_fault(coupling, np.concatenate([coupling.breakpoints_in(0.0, horizon),
                                                   np.linspace(0.0, horizon, 51)]))
    if found is None:
        return None
    t, low = found
    return ({"asymmetric_at": float(t)} if low is None
            else {"not_psd_at": float(t), "min_eigenvalue": low})


def fast_notes(coupling):
    """certification_notes of the fast sweep over one period: 33 even probes and the switches."""
    found = _first_fault(coupling, np.concatenate([
        coupling.breakpoints_in(0.0, coupling.period),
        np.linspace(0.0, coupling.period, 33, endpoint=False)]))
    if found is None:
        return ""
    t, low = found
    return (f"coupling schedule is not symmetric at t = {t}" if low is None
            else f"coupling Laplacian is not PSD at t = {t} (eigenvalue {low:.4g})")
