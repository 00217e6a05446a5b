"""Property tests: graph and certificate quantities do not depend on node labels."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tvkuramoto.certificates import thm2_window_check
from tvkuramoto.graph import ergodic_quantities, has_spanning_tree, laplacian_from_adjacency
from tvkuramoto.linalg import restricted_spectrum
from tvkuramoto.signals import SwitchingSignal, sample_grid


@st.composite
def labelled_schedules(draw):
    """Seeded signed switching pieces on m nodes plus a relabelling of the nodes."""
    m = draw(st.integers(2, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    perm = np.array(draw(st.permutations(range(m))))
    rng = np.random.default_rng(seed)
    pieces = []
    for _ in range(int(rng.integers(1, 4))):
        a = rng.uniform(-0.5, 1.0, (m, m)) * (rng.random((m, m)) < 0.7)
        np.fill_diagonal(a, 0.0)
        pieces.append(a)
    return pieces, perm


@settings(derandomize=True, max_examples=40, deadline=None)
@given(labelled_schedules())
def test_quantities_invariant_under_node_relabelling(case):
    pieces, perm = case
    relabelled = [a[np.ix_(perm, perm)] for a in pieces]
    durations = np.linspace(0.3, 0.6, len(pieces))
    sig = SwitchingSignal(durations, pieces)
    sig_p = SwitchingSignal(durations, relabelled)
    grid = sample_grid(sig, num=16)

    assert np.allclose(ergodic_quantities(sig, grid), ergodic_quantities(sig_p, grid),
                       rtol=0.0, atol=1e-12)

    for a, a_p in zip(pieces, relabelled):
        assert has_spanning_tree(a > 0.2) == has_spanning_tree(a_p > 0.2)
        lap = laplacian_from_adjacency(np.abs(a + a.T))
        lap_p = laplacian_from_adjacency(np.abs(a_p + a_p.T))
        assert np.allclose(restricted_spectrum(lap), restricted_spectrum(lap_p),
                           rtol=0.0, atol=1e-10 * max(1.0, np.abs(lap).max()))

    starts = np.linspace(0.0, sig.period, 5, endpoint=False)
    window = 1.7 * sig.period
    avg = thm2_window_check(sig, math.pi / 3, window, 0.1, starts).witnesses
    avg_p = thm2_window_check(sig_p, math.pi / 3, window, 0.1, starts).witnesses
    assert np.allclose(avg["window_averages"], avg_p["window_averages"], rtol=0.0, atol=1e-12)
