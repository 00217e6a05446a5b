"""Property tests: graph and certificate quantities do not depend on node labels, the
spanning-tree criteria are monotone in their threshold, window averages scale and add
as integrals do, and a certificate's pass implies what the paper's hypotheses need."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tvkuramoto.certificates import (
    PROBE_POINTS, cor1_sliding_window_check, cor2_uniform_check, thm1_spanning_tree_check,
    thm2_window_check, thm3_series_check,
)
from tvkuramoto.graph import ergodic_quantities, has_spanning_tree, laplacian_from_adjacency
from tvkuramoto.linalg import restricted_spectrum
from tvkuramoto.signals import ConstantSignal, SinusoidSignal, SwitchingSignal, TableSignal
from grid_oracle import even_grid


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


@settings(max_examples=40)
@given(labelled_schedules())
def test_quantities_invariant_under_node_relabelling(case):
    pieces, perm = case
    relabelled = [a[np.ix_(perm, perm)] for a in pieces]
    durations = np.linspace(0.3, 0.6, len(pieces))
    sig = SwitchingSignal(durations, pieces)
    sig_p = SwitchingSignal(durations, relabelled)

    assert np.allclose(ergodic_quantities(sig), ergodic_quantities(sig_p),
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


@settings(max_examples=40)
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


SIGNAL_KINDS = ["constant", "sinusoid", "switching", "periodic-table", "aperiodic-table"]


def _signal(kind, rng, shape, low=-1.0, symmetric=False):
    """A signal of the kind with values of the shape, entries in [low, 1.5), or sums of
    two such entries in symmetric matrices."""
    count = int(rng.integers(1, 5))
    values = [rng.uniform(low, 1.5, shape) for _ in range(count)]
    if len(shape) == 2:
        values = [v + v.T if symmetric else v for v in values]
        for v in values:
            np.fill_diagonal(v, 0.0)
    durations = rng.uniform(0.2, 1.0, count)
    times = np.concatenate([[0.0], np.cumsum(durations)[:-1]])
    if kind == "constant":
        return ConstantSignal(values[0])
    if kind == "sinusoid":
        return SinusoidSignal(values[0], 0.5 * values[-1], rng.uniform(-3.0, 3.0),
                              trig=str(rng.choice(["sin", "cos"])),
                              time_scale=float(rng.uniform(0.1, 1.0)))
    if kind == "switching":
        return SwitchingSignal(durations, values)
    return TableSignal(times, values, float(durations.sum()) if kind == "periodic-table"
                       else None)


@settings(max_examples=60)
@given(st.sampled_from(SIGNAL_KINDS), st.sampled_from([(), (3,), (3, 3)]),
       st.integers(0, 2**32 - 1))
def test_window_averages_scale_with_time_compress_and_add_over_adjacent_windows(
        kind, shape, seed):
    rng = np.random.default_rng(seed)
    sig = _signal(kind, rng, shape)
    s, t, u = np.sort(rng.uniform(0.0, 8.0, 3)) + np.array([0.0, 0.05, 0.1])
    avg = sig.window_average(s, t)
    scale = max(1.0, float(np.abs(avg).max()))
    # (u - s) avg(s, u) = (t - s) avg(s, t) + (u - t) avg(t, u)
    assert np.allclose((u - s) * sig.window_average(s, u),
                       (t - s) * avg + (u - t) * sig.window_average(t, u),
                       rtol=0.0, atol=1e-10 * scale * (u - s))
    if kind == "aperiodic-table":  # only a periodic table has a period to compress
        return
    eps = float(rng.uniform(0.01, 3.0))
    assert np.allclose(sig.time_compress(eps).window_average(eps * s, eps * t), avg,
                       rtol=0.0, atol=1e-9 * scale)


def _series_case(kind, m, seed):
    """(signal, r, h, alpha_hat) for thm3/cor2: a symmetric coupling, most of them PSD, and
    half the time, of a periodic one, an h that is a whole fraction a/b of the period."""
    rng = np.random.default_rng(seed)
    sig = _signal(kind, rng, (m, m), low=-0.3 if seed % 3 == 0 else 0.0, symmetric=True)
    r, h = float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.2, 2.0))
    if sig.period is not None and seed % 2:
        h = sig.period * int(rng.integers(1, 6)) / int(rng.integers(1, 6))
    return sig, r, h, float(rng.choice([1e-6, 0.1]))


@settings(max_examples=40)
@given(st.sampled_from(SIGNAL_KINDS), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_cor2_pass_implies_thm3_pass_on_the_whole_series(kind, m, seed):
    sig, r, h, alpha_hat = _series_case(kind, m, seed)
    if cor2_uniform_check(sig, r, h, 1, alpha_hat).verdict == "pass":
        assert thm3_series_check(sig, r, h, 1, alpha_hat).verdict == "pass"


@settings(max_examples=40)
@given(st.sampled_from(SIGNAL_KINDS), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_thm3_and_cor2_verdicts_do_not_depend_on_num_windows(kind, m, seed):
    # num_windows sets how many alphas are listed, and nothing else
    sig, r, h, alpha_hat = _series_case(kind, m, seed)
    for check in (thm3_series_check, cor2_uniform_check):
        one, seven = (check(sig, r, h, n, alpha_hat) for n in (1, 7))
        assert one.verdict == seven.verdict
        assert one.witnesses.get("repeat") == seven.witnesses.get("repeat")
        assert seven.witnesses.get("alpha_series", [None])[0] == \
            one.witnesses.get("alpha_series", [None])[0]


@settings(max_examples=40)
@given(st.sampled_from(SIGNAL_KINDS), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_spanning_tree_pass_implies_no_negative_coupling_at_any_probe_time(kind, m, seed):
    rng = np.random.default_rng(seed)
    sig = _signal(kind, rng, (m, m), low=-0.05 if seed % 2 else 0.0)
    window = float(rng.uniform(0.2, 2.0))
    reports = [thm1_spanning_tree_check(sig, np.linspace(0.0, 3.0, 4), 0.05),
               cor1_sliding_window_check(sig, window, 0.05 * window)]
    if any(rep.verdict == "pass" for rep in reports):
        for t in even_grid(sig, PROBE_POINTS):
            assert sig.evaluate(float(t)).min() >= -1e-12
        if isinstance(sig, TableSignal):  # the probe times read every piece
            assert min(v.min() for v in sig.values) >= -1e-12
