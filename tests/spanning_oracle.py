"""Reference loops for the spanning-tree criteria, one window at a time.

Each window gets its own scalar integral, Laplacian, threshold graph and
spanning-tree closure, and the negative-coupling probe reads every probe
time, as thm1 and cor1 did before they cached a verdict per distinct graph and
read each stored piece once. A sinusoid's most negative entry comes instead from
the closed form of each entry's minimum over all t.
The threshold and the closure are this module's own, not the package's, so the
fast paths in tvkuramoto.certificates are checked against code they do not share.
The fast paths must return what these return.
"""

import math

import numpy as np

from tvkuramoto.graph import laplacian_from_adjacency

from grid_oracle import even_grid


def threshold(lap, eta):
    """The edges (i, j), i != j, whose Laplacian entry l_ij is strictly below -eta."""
    lap = np.asarray(lap, dtype=float)
    return (lap < -eta) & ~np.eye(lap.shape[0], dtype=bool)


def brute_force_spanning_tree(edges: np.ndarray) -> bool:
    """Transitive-closure oracle: some root reaches all nodes along j -> i."""
    m = edges.shape[0]
    reach = edges.T.copy()  # reach[j, i]: j influences i directly
    np.fill_diagonal(reach, True)
    for _ in range(m):
        reach = reach | (reach @ reach)
    return bool(reach.all(axis=1).any())


def thm1_windows(coupling, partition, eta, bins):
    """(passed, first failing window or None, windows checked) over every bin."""
    partition = np.asarray(partition, dtype=float)
    etas = np.broadcast_to(np.asarray(eta, dtype=float), (partition.size - 1,))
    checked, first_fail = 0, None
    for n in range(partition.size - 1):
        edges = np.linspace(partition[n], partition[n + 1], bins + 1)
        for k in range(bins):
            z = laplacian_from_adjacency(
                coupling.integrate_window(float(edges[k]), float(edges[k + 1])))
            checked += 1
            if not brute_force_spanning_tree(threshold(z, float(etas[n]))) and first_fail is None:
                first_fail = {"interval": n + 1, "bin": k + 1,
                              "window": [float(edges[k]), float(edges[k + 1])]}
    return first_fail is None, first_fail, checked


def cor1_starts(coupling, window, eta, starts):
    """(passed, first failing start or None) over the starts in order."""
    for t in np.asarray(starts, dtype=float):
        z = laplacian_from_adjacency(coupling.integrate_window(float(t), float(t) + window))
        if not brute_force_spanning_tree(threshold(z, eta)):
            return False, float(t)
    return True, None


def most_negative_entry(coupling):
    """{"t", "pair", "value"} of the first most negative entry below -1e-12 at any of the
    probe times, the 128-point even grid of the coupling, or None."""
    worst = None
    for u in even_grid(coupling, num=128):
        a = coupling.evaluate(float(u))
        k = int(np.argmin(a))
        value = float(a.flat[k])
        if value < -1e-12 and (worst is None or value < worst["value"]):
            i, j = divmod(k, a.shape[0])
            worst = {"t": float(u), "pair": [i + 1, j + 1], "value": value}
    return worst


def sinusoid_most_negative_entry(coupling):
    """most_negative_entry of a SinusoidSignal from its closed form, over all t >= 0.

    Entry b + A trig(t/tau + phi) is least, b - |A|, where its argument is pi for cos
    and 3 pi/2 for sin, or half a turn on from there when A < 0; its earliest such t
    is tau times that argument minus phi, taken mod 2 pi. A zero A gives b at t = 0.
    Ties go to the earlier time, then to row-major order.
    """
    b, amp, phase = (np.broadcast_to(v, coupling.shape)
                     for v in (coupling.base, coupling.amplitude, coupling.phase))
    low = math.pi if coupling.trig == "cos" else 1.5 * math.pi
    worst = None
    for (i, j), a in np.ndenumerate(amp):
        if a == 0.0:
            t, value = 0.0, float(b[i, j])
        else:
            arg = low if a > 0 else low + math.pi
            t = coupling.time_scale * ((arg - float(phase[i, j])) % (2 * math.pi))
            value = float(b[i, j]) - abs(float(a))
        if value < -1e-12 and (worst is None or (value, t) < (worst["value"], worst["t"])):
            worst = {"t": t, "pair": [i + 1, j + 1], "value": value}
    return worst
