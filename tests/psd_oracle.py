"""Reference PSD probes, one eigensolve per probe time.

These are the loops thm3/cor2 and the fast-switching sweep ran before each
stored piece was tested once: every probe time, the 128-point even grid of
the coupling (grid_oracle.even_grid), in order, gets its own Laplacian and
psd_fault call. The package must report what these report.
"""

from tvkuramoto.certificates import psd_fault
from tvkuramoto.graph import laplacian_from_adjacency

from grid_oracle import even_grid


def _first_fault(coupling):
    for t in even_grid(coupling, num=128):
        fault, low = psd_fault(laplacian_from_adjacency(coupling.evaluate(float(t))))
        if fault is not None:
            return t, low
    return None


def thm3_witness(coupling):
    """The inconclusive witness of thm3 over the probe times, or None."""
    found = _first_fault(coupling)
    if found is None:
        return None
    t, low = found
    return ({"asymmetric_at": float(t)} if low is None
            else {"not_psd_at": float(t), "min_eigenvalue": low})


def fast_notes(coupling):
    """certification_notes of the fast sweep over the probe times."""
    found = _first_fault(coupling)
    if found is None:
        return ""
    t, low = found
    return (f"coupling schedule is not symmetric at t = {t}" if low is None
            else f"coupling Laplacian is not PSD at t = {t} (eigenvalue {low:.4g})")
