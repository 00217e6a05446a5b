"""Property tests: graph and certificate quantities do not depend on node labels,
and the spanning-tree criteria are monotone in their threshold."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tvkuramoto.certificates import (
    cor1_sliding_window_check, thm1_spanning_tree_check, thm2_window_check,
)
from tvkuramoto.graph import ergodic_quantities, has_spanning_tree, laplacian_from_adjacency
from tvkuramoto.linalg import restricted_spectrum
from tvkuramoto.signals import SwitchingSignal, TableSignal, sample_grid


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


@st.composite
def nonnegative_schedules(draw):
    """Seeded sparse nonnegative pieces as a periodic or an aperiodic table, a relabelling
    of the nodes, and two thresholds eta_low < eta_high."""
    m = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    perm = np.array(draw(st.permutations(range(m))))
    periodic = draw(st.booleans())
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 5))
    pieces = []
    for _ in range(count):
        a = rng.uniform(0.0, 1.5, (m, m)) * (rng.random((m, m)) < 0.5)
        np.fill_diagonal(a, 0.0)
        pieces.append(a)
    gaps = rng.uniform(0.2, 1.0, count)
    times = np.concatenate([[0.0], np.cumsum(gaps)[:-1]])
    eta_low, eta_high = np.sort(rng.uniform(0.02, 0.6, 2))
    period = float(gaps.sum()) if periodic else None
    return times, pieces, period, perm, float(eta_low), float(eta_high)


def _spanning_reports(sig, eta):
    partition = np.linspace(0.0, 6.0, 4)
    return [thm1_spanning_tree_check(sig, partition, eta).to_json(),
            thm1_spanning_tree_check(sig, partition, eta, bins=1).to_json(),
            cor1_sliding_window_check(sig, 0.9, eta).to_json(),
            cor1_sliding_window_check(sig, 2.5, eta).to_json()]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(nonnegative_schedules())
def test_spanning_tree_criteria_under_relabelling_and_lower_thresholds(case):
    times, pieces, period, perm, eta_low, eta_high = case
    sig = TableSignal(times, pieces, period)
    sig_p = TableSignal(times, [a[np.ix_(perm, perm)] for a in pieces], period)
    high = _spanning_reports(sig, eta_high)
    # verdicts and witnesses (window, bin and start times) do not depend on node labels
    assert _spanning_reports(sig_p, eta_high) == high
    # a graph kept at eta_high keeps every edge at eta_low, so a pass stays a pass
    for rep_high, rep_low in zip(high, _spanning_reports(sig, eta_low)):
        if rep_high["verdict"] == "pass":
            assert rep_low["verdict"] == "pass"
