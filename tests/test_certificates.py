import json
import math

import numpy as np
import pytest

from tvkuramoto.certificates import (
    CRITERIA,
    cor1_sliding_window_check,
    cor2_uniform_check,
    invariance_pointwise,
    invariance_robust,
    run_check,
    thm1_spanning_tree_check,
    thm2_window_check,
    thm3_series_check,
    tilde_laplacian,
    xi_index,
)
from tvkuramoto.cli import bundled_config_path
from tvkuramoto.dynamics import PhaseTrajectory, invariance_monitor, pd_divergence, simulate
from tvkuramoto.graph import laplacian_from_adjacency
from tvkuramoto.linalg import lambda2
from tvkuramoto.signals import (
    ConstantSignal, SinusoidSignal, SwitchingSignal, TableSignal, signal_from_json,
)
from xi_oracle import xi_vertex_oracle

TWO_NODE = np.array([[0.0, 1.0], [1.0, 0.0]])


def connected_nonneg_coupling(rng, m):
    a = rng.uniform(0.3, 1.5, (m, m))
    a = np.triu(a, 1)
    a = a + a.T
    return a


# --- invariance -------------------------------------------------------------


def test_pointwise_identical_frequencies_pass():
    rng = np.random.default_rng(0)
    a = connected_nonneg_coupling(rng, 4)
    rep = invariance_pointwise(ConstantSignal(np.ones(4)), ConstantSignal(a), math.pi / 4)
    assert rep.verdict == "pass"
    assert rep.witnesses["max_lhs"] < 0


def test_pointwise_frequency_gap_fails_at_pair():
    rep = invariance_pointwise(ConstantSignal([2.0, 0.0]),
                               ConstantSignal(np.zeros((2, 2))), 0.3)
    assert rep.verdict == "fail"
    assert rep.witnesses["worst_pair"] == [1, 2]


def test_pointwise_matches_term_by_term_oracle():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 5))
    np.fill_diagonal(a, 0.0)
    w = rng.uniform(0, 0.5, 5)
    r = 0.8
    rep = invariance_pointwise(ConstantSignal(w), ConstantSignal(a), r)

    worst = -math.inf
    s = math.sin(r)
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            lam = {k for k in range(5) if a[i, k] > 0 and a[j, k] > 0}
            lhs = w[i] - w[j] - (a[i, j] + a[j, i]) * s
            lhs -= sum(min(a[i, k], 0) + min(a[j, k], 0)
                       for k in range(5) if k not in lam and k not in (i, j)) * s
            lhs -= sum(min(a[i, k], a[j, k]) for k in lam) * s
            worst = max(worst, lhs)
    assert rep.witnesses["max_lhs"] == pytest.approx(worst, abs=1e-12)
    assert rep.verdict == ("pass" if worst < 0 else "fail")


def test_xi_matches_vertex_enumeration_oracle():
    # Mixed-sign matrices on 2..6 nodes. A case is decisive when the oracle
    # with both cos factors differs from every uniform choice (all cos r, all
    # 1): only a per-entry choice of cos factor attains xi there.
    rng = np.random.default_rng(12)
    decisive = 0
    cases = 120
    for _ in range(cases):
        m = int(rng.integers(2, 7))
        a = rng.normal(size=(m, m))
        r = float(rng.uniform(0.0, 1.5))
        expected = xi_vertex_oracle(a, r)
        assert xi_index(a, r) == pytest.approx(expected, abs=1e-12)
        uniform = [xi_vertex_oracle(a, r, factors=(f,)) for f in (math.cos(r), 1.0)]
        decisive += min(abs(expected - u) for u in uniform) > 1e-9
    assert decisive >= cases // 5


def test_robust_zero_gap_passes():
    rng = np.random.default_rng(2)
    a = connected_nonneg_coupling(rng, 4)
    rep = invariance_robust(ConstantSignal(np.ones(4)), ConstantSignal(a), math.pi / 4)
    assert rep.verdict == "pass"
    assert rep.witnesses["delta_omega"] == 0.0


def test_robust_two_node_arithmetic():
    rep = invariance_robust(ConstantSignal([1.2, 1.0]), ConstantSignal(TWO_NODE), math.pi / 3)
    assert rep.verdict == "pass"
    assert rep.witnesses["lhs"] == pytest.approx(0.2 / math.sin(math.pi / 3), abs=1e-12)
    assert rep.witnesses["rhs"] == pytest.approx(2.0)


def test_robust_uncoupled_gap_fails():
    rep = invariance_robust(ConstantSignal([1.2, 1.0]),
                            ConstantSignal(np.zeros((2, 2))), math.pi / 3)
    assert rep.verdict == "fail"


def test_robust_r_zero_division_guard():
    rep = invariance_robust(ConstantSignal([1.2, 1.0]), ConstantSignal(TWO_NODE), 0.0)
    assert rep.verdict == "fail"
    ok = invariance_robust(ConstantSignal([1.0, 1.0]), ConstantSignal(TWO_NODE), 0.0)
    assert ok.verdict == "pass"


# --- aggregated connectivity -------------------------------------------------


def test_thm1_constant_connected_passes():
    rng = np.random.default_rng(3)
    a = connected_nonneg_coupling(rng, 4)
    sig = ConstantSignal(a)
    eta = 0.5 * a[a > 0].min()  # half the smallest integrated weight per unit bin
    rep = thm1_spanning_tree_check(sig, [0.0, 3.0, 6.0], eta)
    assert rep.verdict == "pass"


def test_thm1_blinking_graph_bin_placement():
    # two subgraphs, each disconnected, union connected
    g_a = np.zeros((3, 3))
    g_a[0, 1] = g_a[1, 0] = 1.0
    g_b = np.zeros((3, 3))
    g_b[1, 2] = g_b[2, 1] = 1.0
    blink = SwitchingSignal([1.0, 1.0], [g_a, g_b])
    # one bin spanning a full blink cycle sees the union
    rep = thm1_spanning_tree_check(blink, [0.0, 2.0, 4.0], eta=0.4, bins=1)
    assert rep.verdict == "pass"
    # bins confined to a single phase see a disconnected graph
    rep = thm1_spanning_tree_check(blink, [0.0, 1.0], eta=0.4, bins=2)
    assert rep.verdict == "fail"
    assert rep.witnesses["first_failing_window"]["interval"] == 1

    # simulation oracle for the pass configuration: PDs of two runs converge
    omega = ConstantSignal(np.full(3, 1.0))
    t1 = simulate(np.array([0.2, -0.1, 0.1]), omega, blink, 60.0, 1e-3)
    t2 = simulate(np.array([-0.2, 0.1, 0.0]), omega, blink, 60.0, 1e-3)
    assert pd_divergence(t1, t2).final < 1e-6


def test_thm1_disconnected_fails_every_window():
    g = np.zeros((4, 4))
    g[0, 1] = g[1, 0] = g[2, 3] = g[3, 2] = 1.0
    rep = thm1_spanning_tree_check(ConstantSignal(g), [0.0, 1.0, 2.0], 0.1)
    assert rep.verdict == "fail"
    assert rep.witnesses["first_failing_window"] == {
        "interval": 1, "bin": 1, "window": [0.0, 1.0 / 3.0]}


def test_thm1_negative_coupling_inconclusive():
    a = np.array([[0.0, -0.5], [1.0, 0.0]])
    rep = thm1_spanning_tree_check(ConstantSignal(a), [0.0, 1.0], 0.1)
    assert rep.verdict == "inconclusive"
    assert rep.witnesses["negative_coupling_at"]["pair"] == [1, 2]


def test_cor1_periodic_switching_union_connected():
    g_a = np.zeros((3, 3))
    g_a[0, 1] = g_a[1, 0] = 1.0
    g_b = np.zeros((3, 3))
    g_b[1, 2] = g_b[2, 1] = 1.0
    blink = SwitchingSignal([1.0, 1.0], [g_a, g_b])
    rep = cor1_sliding_window_check(blink, window=2.0, eta=0.4)
    assert rep.verdict == "pass"


def test_cor1_short_window_misses_bridge():
    # the only bridge 1-2 blinks off for 1.5 s; a 1 s window inside the off
    # phase sees a disconnected aggregate
    on = np.zeros((3, 3))
    on[0, 1] = on[1, 0] = 1.0
    on[1, 2] = on[2, 1] = 1.0
    off = np.zeros((3, 3))
    off[1, 2] = off[2, 1] = 1.0
    sig = SwitchingSignal([0.5, 1.5], [on, off])
    rep = cor1_sliding_window_check(sig, window=1.0, eta=0.1)
    assert rep.verdict == "fail"
    t = rep.witnesses["first_failing_start"]
    # at the failing start the aggregated bridge weight sits at or below eta
    z = sig.integrate_window(t, t + 1.0)
    assert z[0, 1] <= 0.1 + 1e-12
    # a start fully inside the off phase aggregates no bridge weight at all
    rep_off = cor1_sliding_window_check(sig, window=1.0, eta=0.1, starts=[0.6])
    assert rep_off.verdict == "fail"
    assert sig.integrate_window(0.6, 1.6)[0, 1] == pytest.approx(0.0)


def test_cor1_eta_above_every_weight_fails():
    rng = np.random.default_rng(4)
    a = connected_nonneg_coupling(rng, 3)
    rep = cor1_sliding_window_check(ConstantSignal(a), window=1.0, eta=100.0)
    assert rep.verdict == "fail"


# --- xi and the signed-coupling window criterion ------------------------------


def test_xi_two_node_values():
    assert xi_index(TWO_NODE, 0.0) == pytest.approx(-2.0)
    assert xi_index(TWO_NODE, math.pi / 3) == pytest.approx(-1.0)


def test_xi_monotone_in_r():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5))
    np.fill_diagonal(a, 0.0)
    rs = np.linspace(0, math.pi / 2 * 0.999, 20)
    vals = [xi_index(a, r) for r in rs]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


def test_thm2_constant_negative_xi_passes():
    # complete positive triangle: xi(r) = -(2cos r + min-sum) < -0.5 easily
    a = connected_nonneg_coupling(np.random.default_rng(6), 3)
    sig = ConstantSignal(a)
    xi = xi_index(a, math.pi / 4)
    assert xi < -0.5
    rep = thm2_window_check(sig, math.pi / 4, window=2.0, eta=0.4)
    assert rep.verdict == "pass"
    assert rep.witnesses["worst_window_average"] == pytest.approx(xi, abs=1e-12)


def test_thm2_positive_xi_fails():
    a = np.array([[0.0, -0.1], [-0.1, 0.0]])  # xi = +0.2 at any r
    rep = thm2_window_check(ConstantSignal(a), 0.3, window=1.0, eta=0.01)
    assert rep.verdict == "fail"


def test_thm2_bundled_switching_schedule_passes():
    cfg = json.loads(bundled_config_path("ap").read_text())
    coupling = signal_from_json(cfg["signals"]["coupling"])
    rep = thm2_window_check(coupling, math.pi / 3, window=4.0, eta=0.01)
    assert rep.verdict == "pass"
    # the average equals the mean of the two per-piece values
    xi1 = xi_index(np.asarray(cfg["signals"]["coupling"]["pieces"][0]["value"]), math.pi / 3)
    xi2 = xi_index(np.asarray(cfg["signals"]["coupling"]["pieces"][1]["value"]), math.pi / 3)
    assert rep.witnesses["worst_window_average"] == pytest.approx((xi1 + xi2) / 2, abs=1e-9)
    assert rep.witnesses["worst_window_average"] <= -0.01


def xi_integral_by_pieces(starts, period, xis, a, b):
    """Sum xi * overlap over every piece instance meeting [a, b], one at a time."""
    bounds = list(starts) + [period]
    total = 0.0
    k = math.floor(a / period)
    while k * period < b:
        for lo, hi, xi in zip(bounds[:-1], bounds[1:], xis):
            overlap = min(b, k * period + hi) - max(a, k * period + lo)
            if overlap > 0:
                total += xi * overlap
        k += 1
    return total


@pytest.mark.parametrize("kind", ["switching", "table"])
def test_thm2_folded_window_matches_piece_sum(kind):
    rng = np.random.default_rng(33)
    r = math.pi / 4
    pieces = []
    for _ in range(3):
        a = rng.uniform(-0.3, 1.0, (5, 5))
        np.fill_diagonal(a, 0.0)
        pieces.append(a)
    if kind == "switching":
        sig = SwitchingSignal([0.3, 0.05, 0.45], pieces)
        starts = [0.0, 0.3, 0.35]
    else:
        starts = [0.0, 0.2, 0.65]
        sig = TableSignal(starts, pieces, period=0.9)
    xis = [xi_index(a, r) for a in pieces]
    offsets = np.array([0.0, 0.1, 0.3, 0.77]) * sig.period
    for n in (1, 2, 7, 50, 200):
        for extra in (0.0, 0.37):
            window = (n + extra) * sig.period
            rep = thm2_window_check(sig, r, window=window, eta=0.01, starts=offsets)
            for t, avg in zip(offsets, rep.witnesses["window_averages"]):
                want = xi_integral_by_pieces(starts, sig.period, xis, t, t + window)
                assert avg * window == pytest.approx(want, rel=1e-12, abs=0.0), (n, extra, t)


def test_thm2_aperiodic_table_holds_last_piece():
    rng = np.random.default_rng(34)
    r = math.pi / 5
    pieces = [rng.uniform(-0.3, 1.0, (4, 4)) for _ in range(3)]
    starts = [0.0, 0.2, 0.65]
    xis = [xi_index(a, r) for a in pieces]
    offsets = np.array([0.0, 0.1, 0.5, 0.9, 3.0])
    rep = thm2_window_check(TableSignal(starts, pieces), r, window=1.5, eta=0.01,
                            starts=offsets)
    bounds = starts + [math.inf]
    for t, avg in zip(offsets, rep.witnesses["window_averages"]):
        want = sum(xi * max(0.0, min(t + 1.5, hi) - max(t, lo))
                   for lo, hi, xi in zip(bounds[:-1], bounds[1:], xis))
        assert avg * 1.5 == pytest.approx(want, rel=1e-12, abs=0.0), t


def test_thm2_smooth_coupling_quadrature():
    # a positive scaling s(t) = 1 + cos(t)/2 of a signed matrix scales xi by s(t)
    rng = np.random.default_rng(35)
    a = rng.uniform(-0.3, 1.0, (4, 4))
    np.fill_diagonal(a, 0.0)
    r = math.pi / 4
    sig = SinusoidSignal(a, 0.5 * a, 0.0, trig="cos")
    offsets = np.array([0.0, 1.0, 4.0])
    window = 2.5
    rep = thm2_window_check(sig, r, window=window, eta=0.01, starts=offsets)
    for t, avg in zip(offsets, rep.witnesses["window_averages"]):
        want = xi_index(a, r) * (window + 0.5 * (math.sin(t + window) - math.sin(t)))
        assert avg * window == pytest.approx(want, rel=1e-4), t


def test_pairwise_criteria_reject_single_node():
    # every criterion reads pairs of oscillators, so a 1 x 1 coupling is invalid input
    params = {
        "invariance-pointwise": {"r": 0.5},
        "invariance-robust": {"r": 0.5},
        "thm1-spanning-tree": {"partition": [0.0, 1.0], "eta": 0.1},
        "cor1-sliding-window": {"T": 1.0, "eta": 0.1},
        "thm2-xi-window": {"r": 0.5, "T": 1.0, "eta": 0.1},
        "thm3-lambda2-series": {"r": 0.5, "h": 1.0},
        "cor2-lambda2-uniform": {"r": 0.5, "h": 1.0},
    }
    assert set(params) == set(CRITERIA)
    for criterion, p in params.items():
        with pytest.raises(ValueError, match="two oscillators"):
            run_check(criterion, ConstantSignal(1.0), ConstantSignal([[0.0]]), p)


# --- tilde transform and the symmetric PSD criteria ---------------------------


def test_tilde_identity_at_r_zero():
    rng = np.random.default_rng(7)
    lap = laplacian_from_adjacency(connected_nonneg_coupling(rng, 4))
    assert np.allclose(tilde_laplacian(lap, 0.0), lap)


def test_tilde_two_node():
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(tilde_laplacian(lap, math.pi / 3),
                       [[0.5, -0.5], [-0.5, 0.5]])


def test_tilde_matches_entrywise_oracle():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 4))
    np.fill_diagonal(a, 0.0)
    lap = laplacian_from_adjacency(a)
    r = 0.7
    out = tilde_laplacian(lap, r)
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            expect = lap[i, j] * math.cos(r) if lap[i, j] <= 0 else lap[i, j]
            assert out[i, j] == pytest.approx(expect, abs=1e-15)
    assert np.abs(out.sum(axis=1)).max() < 1e-12
    sym = laplacian_from_adjacency(0.5 * (a + a.T))
    assert np.allclose(tilde_laplacian(sym, r), tilde_laplacian(sym, r).T)


def test_thm3_uniform_scaling_case():
    lap = laplacian_from_adjacency(np.ones((3, 3)) - np.eye(3))
    assert lambda2(lap) == pytest.approx(3.0)
    coupling = ConstantSignal(np.ones((3, 3)) - np.eye(3))
    rep = thm3_series_check(coupling, math.pi / 3, h=0.7, num_windows=4)
    assert rep.verdict == "pass"
    assert np.allclose(rep.witnesses["alpha_series"], 1.5)
    assert rep.witnesses["cor2_uniform_pass"]


def test_thm3_zero_coupling_fails():
    rep = thm3_series_check(ConstantSignal(np.zeros((3, 3))), 0.5, h=1.0, num_windows=3)
    assert rep.verdict == "fail"
    assert rep.witnesses["min_alpha"] == pytest.approx(0.0)


def test_thm3_non_psd_schedule_is_inconclusive():
    cfg = json.loads(bundled_config_path("fast").read_text())
    coupling = signal_from_json(cfg["signals"]["coupling"])
    rep = thm3_series_check(coupling, math.pi / 3, h=2.0, num_windows=2)
    assert rep.verdict == "inconclusive"
    assert "not_psd_at" in rep.witnesses
    # the window-averaged rate itself is still well-defined and positive,
    # matching the direct eigensolve of the tilde of the averaged Laplacian
    pieces = [np.asarray(p["value"]) for p in cfg["signals"]["coupling"]["pieces"]]
    mean_lap = laplacian_from_adjacency((pieces[0] + pieces[1]) / 2)
    direct = lambda2(tilde_laplacian(mean_lap, math.pi / 3))
    from tvkuramoto.certificates import _lambda2_series
    series = _lambda2_series(coupling, math.pi / 3, 2.0, 2)
    assert series[0] == pytest.approx(direct, abs=1e-9)
    assert direct > 0


def test_thm3_asymmetric_schedule_is_inconclusive():
    a = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    rep = thm3_series_check(ConstantSignal(a), 0.5, h=1.0, num_windows=1)
    assert rep.verdict == "inconclusive"
    assert "asymmetric_at" in rep.witnesses


def test_cor2_uniform_threshold():
    coupling = ConstantSignal(np.ones((3, 3)) - np.eye(3))
    assert cor2_uniform_check(coupling, math.pi / 3, 1.0, 3).verdict == "pass"
    assert cor2_uniform_check(coupling, math.pi / 3, 1.0, 3, alpha_hat=2.0).verdict == "fail"


# --- cross-criterion consistency ----------------------------------------------


def test_nonnegative_consistency_all_criteria_pass():
    rng = np.random.default_rng(9)
    for _ in range(5):
        m = int(rng.integers(3, 6))
        a = connected_nonneg_coupling(rng, m)
        sig = ConstantSignal(a)
        eta = 0.5 * a[a > 0].min()
        assert thm1_spanning_tree_check(sig, [0.0, 1.0], eta).verdict == "pass"
        assert cor1_sliding_window_check(sig, 1.0, eta).verdict == "pass"
        assert thm3_series_check(sig, math.pi / 3, 1.0, 2).verdict == "pass"


def test_certified_instances_have_stable_pds():
    # end-to-end soundness: certificate pass + observed invariance implies
    # vanishing PD divergence for initial conditions in the half-size region
    rng = np.random.default_rng(10)
    r = math.pi / 3
    checked = 0
    attempt = 0
    while checked < 20:
        attempt += 1
        m = int(rng.integers(3, 6))
        a = connected_nonneg_coupling(rng, m)
        w = 1.0 + rng.uniform(-0.05, 0.05, m)
        omega, coupling = ConstantSignal(w), ConstantSignal(a)
        cert_inv = invariance_pointwise(omega, coupling, r)
        cert_tree = cor1_sliding_window_check(coupling, 1.0, 0.5 * a[a > 0].min())
        if not (cert_inv.passed and cert_tree.passed):
            continue
        starts = [rng.uniform(-r / 4, r / 4, m) for _ in range(2)]
        batch = simulate(np.array(starts), omega, coupling, 100.0, 5e-3)
        t1, t2 = (PhaseTrajectory(batch.times, phases) for phases in batch.phases)
        assert invariance_monitor(t1, r) is None
        assert invariance_monitor(t2, r) is None
        assert pd_divergence(t1, t2).final < 1e-2
        checked += 1
        assert attempt < 200


# --- dispatch -----------------------------------------------------------------


def test_run_check_dispatch_and_unknown():
    rep = run_check("invariance-robust", ConstantSignal([1.0, 1.0]),
                    ConstantSignal(TWO_NODE), {"r": 0.5})
    assert rep.passed
    with pytest.raises(ValueError):
        run_check("nonsense", None, ConstantSignal(TWO_NODE), {})
    with pytest.raises(ValueError):
        run_check("thm2-xi-window", None, ConstantSignal(TWO_NODE), {"r": 0.5})


def test_report_json_round_trip():
    rep = invariance_robust(ConstantSignal([1.0, 1.0]), ConstantSignal(TWO_NODE), 0.5)
    payload = rep.to_json()
    assert json.loads(json.dumps(payload)) == payload
