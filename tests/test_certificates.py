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
from tvkuramoto import certificates, graph
from tvkuramoto.cli import bundled_config_path
from tvkuramoto.dynamics import PhaseTrajectory, invariance_monitor, pd_divergence, simulate
from tvkuramoto.graph import laplacian_from_adjacency
from tvkuramoto.linalg import lambda2
from tvkuramoto.signals import (
    ConstantSignal, SinusoidSignal, SwitchingSignal, TableSignal, signal_from_json,
)
from grid_oracle import even_grid
import pointwise_oracle
from table_oracle import SNAP, piece_at
import psd_oracle
import series_oracle
import spanning_oracle
import window_oracle
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


def _signed_couplings(rng, count, m=5):
    out = []
    for _ in range(count):
        a = rng.normal(0.4, 1.0, (m, m))
        np.fill_diagonal(a, 0.0)
        out.append(a)
    return out


def _pointwise_cases(seed):
    rng = np.random.default_rng([seed, 71])
    m = 5
    spread = float(rng.uniform(0.5, 4.0))
    freqs = [rng.uniform(-spread, spread, m) for _ in range(3)]
    omega_1s = SwitchingSignal([0.5, 0.5], freqs[:2])
    a, b, c = _signed_couplings(rng, 3)
    j = np.ones((m, m)) - np.eye(m)
    return {
        # omega's period 1 s against 2 s and 3 s: every (omega, coupling) pair recurs
        "period-1-vs-2": (omega_1s, SwitchingSignal([0.5, 0.5, 1.0], [a, b, c])),
        "period-1-vs-3": (omega_1s, SwitchingSignal([1.0, 1.5, 0.5], [a, b, c])),
        "aperiodic": (TableSignal([0.0, 0.7, 2.2], freqs),
                      TableSignal([0.0, 1.3, 1.9, 4.0], [a, b, c, 0.1 * j])),
        "aperiodic-omega": (TableSignal([0.0, 1.1], freqs[:2]),
                            SwitchingSignal([0.5, 0.5], [a, b])),
        "scalar-constant-omega": (ConstantSignal(spread), SwitchingSignal([0.4, 0.6], [a, b])),
        "vector-constant-omega": (ConstantSignal(freqs[0]), SwitchingSignal([0.4, 0.6], [a, b])),
        # equal values in distinct pieces: the maximum ties across pieces, and the
        # report keeps its earliest grid time
        "tied-pieces": (ConstantSignal(freqs[0]),
                        SwitchingSignal([0.3, 0.5, 0.4, 0.8], [b, a, b.copy(), a.copy()])),
        "tied-omega-pieces": (SwitchingSignal([0.5, 0.5, 0.5], [freqs[1], freqs[0],
                                                                freqs[1].copy()]),
                              SwitchingSignal([0.75, 0.75], [a, a.copy()])),
        "sinusoid": (SinusoidSignal(freqs[0], 0.3 * freqs[1], freqs[2], trig="sin",
                                    time_scale=1.0 / math.pi),  # period 2 s
                     SwitchingSignal([0.5, 0.5], [a, b])),
    }


def _cell_table(rng, span, periodic, draw):
    """A table of 1 to 4 pieces over span whose switches fall on whole cells of span,
    summed as SwitchingSignal sums durations: mostly 1,000 cells, where the even grid may
    put a time an ulp below a switch, else 7, whose switches it misses. Periodic with the
    sum as period, or aperiodic with its last switch at the sum."""
    count = int(rng.integers(1, 5))
    cells = int(rng.choice([1000, 1000, 1000, 7]))
    marks = np.sort(rng.choice(np.arange(1, cells), count - 1, replace=False))
    ends = np.cumsum(np.diff(marks, prepend=0, append=cells) * (span / cells))
    starts = np.append(0.0, ends[:-1])
    if periodic:
        return TableSignal(starts, [draw() for _ in range(count)], float(ends[-1]))
    return TableSignal(np.append(starts, ends[-1]), [draw() for _ in range(count + 1)])


def test_pointwise_at_the_switches_reads_what_the_dense_grid_read():
    # a table omega and a table coupling, periodic, aperiodic or one of each, the
    # coupling's span 1 to 3 times omega's; the even grid may meet a piece an ulp early
    rng = np.random.default_rng(2027)
    early = []
    for case in range(150):  # 300 tables
        m, span = int(rng.integers(2, 6)), float(rng.uniform(0.05, 5.0))
        spread = float(rng.uniform(0.1, 3.0))
        omega = _cell_table(rng, span, rng.random() < 0.5,
                            lambda: rng.uniform(-spread, spread, m))
        coupling = _cell_table(rng, span * int(rng.integers(1, 4)), rng.random() < 0.5,
                               lambda: rng.uniform(-0.5, 1.5, (m, m)) * (1.0 - np.eye(m)))
        r = float(rng.uniform(0.0, 1.5))
        got = invariance_pointwise(omega, coupling, r).to_json()
        want = pointwise_oracle.invariance_pointwise_json(omega, coupling, r)
        assert got["verdict"] == want["verdict"], case
        new, old = got["witnesses"], want["witnesses"]
        for key in ("max_lhs", "margin", "worst_pair"):
            assert new[key] == old[key], (case, key)
        assert new["grid_size"] < old["grid_size"], case
        early.append(old["worst_time"] != new["worst_time"])
        assert new["worst_time"] - 1e-9 < old["worst_time"] <= new["worst_time"], case
    assert any(early) and not all(early)  # both readings of a worst time occur


@pytest.mark.parametrize("case", list(_pointwise_cases(0)))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pointwise_per_piece_pair_matches_the_grid_point_oracle(seed, case):
    omega, coupling = _pointwise_cases(seed)[case]
    r = 0.9
    got = invariance_pointwise(omega, coupling, r).to_json()
    want = pointwise_oracle.invariance_pointwise_json(omega, coupling, r)
    # two tables are read at their switches alone, a sinusoid's grid keeps its even points
    size, dense = got["witnesses"].pop("grid_size"), want["witnesses"].pop("grid_size")
    assert size == dense if case == "sinusoid" else size < dense
    assert got == want


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


SELF_LINK_CHECKS = {
    "invariance_pointwise": lambda om, co: invariance_pointwise(om, co, 1.0),
    "invariance_robust": lambda om, co: invariance_robust(om, co, 1.0),
    "thm1": lambda om, co: thm1_spanning_tree_check(co, [0.0, 2.0], 0.1),
    "cor1": lambda om, co: cor1_sliding_window_check(co, 1.0, 0.1),
    "thm2": lambda om, co: thm2_window_check(co, 1.0, 2.0, 0.1),
    "thm3": lambda om, co: thm3_series_check(co, 1.0, 1.0, 2),
    "cor2": lambda om, co: cor2_uniform_check(co, 1.0, 1.0, 2),
}


@pytest.mark.parametrize("name", list(SELF_LINK_CHECKS))
def test_invariance_criteria_reject_self_links(name):
    # a positive a_ii would count node i as a common neighbour of every pair
    # (i, j) and turn the invariance fail into a pass; xi would drop it unseen
    assert len(SELF_LINK_CHECKS) == len(CRITERIA)
    check = SELF_LINK_CHECKS[name]
    omega = ConstantSignal([0.0, 1.5, 3.0])
    report = check(omega, ConstantSignal(np.ones((3, 3)) - np.eye(3)))
    if name.startswith("invariance"):
        assert report.verdict == "fail"
    with pytest.raises(ValueError, match=r"self-links are not allowed \(nonzero diagonal\)"):
        check(omega, ConstantSignal(np.ones((3, 3)) + 4.0 * np.eye(3)))
    blinking = SwitchingSignal([1.0, 1.0], [np.ones((3, 3)) - np.eye(3), np.ones((3, 3))])
    with pytest.raises(ValueError, match="self-links"):
        check(omega, blinking)


def test_invariance_grid_reaches_past_the_last_switch_of_a_table():
    # the coupling switches off for good at t = 5; the frequency spread then
    # has nothing to hold it, though every time before 5 passes
    omega = SwitchingSignal([1.0, 1.0], [[0.0, 0.1, 0.2], [0.2, 0.1, 0.0]])
    coupling = TableSignal([0.0, 5.0], [5.0 * (np.ones((3, 3)) - np.eye(3)), np.zeros((3, 3))])
    rep = invariance_pointwise(omega, coupling, 1.0)
    assert rep.verdict == "fail" and rep.witnesses["worst_time"] >= 5.0
    # an aperiodic table needs no horizon: the window starting at 5 sees only zeros
    assert thm2_window_check(coupling, 1.0, 1.0, 0.1).witnesses["worst_start"] >= 5.0


def test_invariance_grid_covers_the_common_period():
    # periods 2 and 3: the weak coupling meets the wide frequencies only on [5, 6)
    j = np.ones((3, 3)) - np.eye(3)
    omega = SwitchingSignal([1.0, 1.0], [[0.0, 0.0, 0.0], [0.0, 1.0, 2.0]])
    coupling = SwitchingSignal([2.0, 1.0], [5.0 * j, 0.1 * j])
    rep = invariance_pointwise(omega, coupling, 1.0)
    assert rep.verdict == "fail" and 5.0 <= rep.witnesses["worst_time"] < 6.0


def test_invariance_robust_takes_each_signal_over_its_own_period():
    # periods 2 pi and 4 have no common multiple; each supremum needs only its own
    j = np.ones((3, 3)) - np.eye(3)
    omega = SinusoidSignal([0.0, 0.1, 0.2], [0.0, 0.0, 0.1], 0.0)
    coupling = SwitchingSignal([2.0, 2.0], [5.0 * j, 0.1 * j])
    rep = invariance_robust(omega, coupling, 1.0)
    assert rep.verdict == "pass"
    assert rep.witnesses["delta_omega"] == pytest.approx(0.3, rel=1e-12)
    assert (rep.witnesses["mu0"], rep.witnesses["mu1"], rep.witnesses["mu2"]) == (5.0, 0.0, 10.0)
    with pytest.raises(ValueError, match="no common multiple"):
        invariance_pointwise(omega, coupling, 1.0)


def test_thm2_default_starts_hold_the_kinks_of_an_aperiodic_table():
    # on two nodes at r = 0, xi = -2 a_12: -6 on [0, 1), 5 on [1, 1.5), -15 from 1.5;
    # the worst unit window starts at 1.5 - T = 0.5, between two of the 128 even
    # starts, whose best reads -0.535 and would pass eta = 0.52
    j = np.ones((2, 2)) - np.eye(2)
    coupling = TableSignal([0.0, 1.0, 1.5], [3.0 * j, -2.5 * j, 7.5 * j])
    rep = thm2_window_check(coupling, 0.0, 1.0, 0.52)
    assert rep.verdict == "fail"
    assert rep.witnesses["worst_start"] == 0.5
    assert rep.witnesses["worst_window_average"] == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("check", [
    lambda co: thm1_spanning_tree_check(co, [0.0, 2.0], 0.1),
    lambda co: cor1_sliding_window_check(co, 1.0, 0.1),
], ids=["thm1", "cor1"])
def test_window_criteria_reject_self_links_in_window_integrals(check):
    blinking = SwitchingSignal([1.0, 1.0], [np.ones((3, 3)) - np.eye(3), np.ones((3, 3))])
    with pytest.raises(ValueError, match=r"self-links are not allowed \(nonzero diagonal\)"):
        check(blinking)


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
    assert pd_divergence(t1, t2)[-1] < 1e-6


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


def test_thm1_probes_nonnegativity_past_its_partition():
    # the coupling turns negative at t = 5 and stays so; the hypothesis holds for every
    # t >= 0, so a partition that ends at 2 does not make the check pass
    sig = TableSignal([0.0, 5.0], [[[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0], [1.0, 0.0]]])
    rep = thm1_spanning_tree_check(sig, [0.0, 1.0, 2.0], 0.1)
    assert rep.verdict == "inconclusive"
    assert rep.witnesses["negative_coupling_at"] == {"t": 5.0, "pair": [1, 2], "value": -1.0}


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


def test_cor1_default_starts_find_a_window_between_two_crossings():
    # link 1 <- 2 for 1.007 s, then 2 <- 1 for 0.997 s: a unit window starting in
    # [0.5069, 0.5071] integrates to at most eta on both links, and no even start nor
    # switch lies there; the crossings of eta bracket it
    sig = SwitchingSignal([1.007, 0.997], [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    assert cor1_sliding_window_check(sig, 1.0, 0.5001, starts=[0.507]).verdict == "fail"
    rep = cor1_sliding_window_check(sig, 1.0, 0.5001)
    assert rep.verdict == "fail"
    assert 0.5069 - 1e-12 <= rep.witnesses["first_failing_start"] <= 0.5071 + 1e-12
    assert not window_oracle.cor1_passes([0.0, 1.007], sig.values, sig.period, 1.0, 0.5001)


def test_cor1_default_starts_check_the_gap_that_wraps_round_the_period():
    # link 1 <- 2 (weight 0.5), both links, then link 2 <- 1; period 2.56. Only windows
    # across the wrap from the last piece to the first lose both links, on a sliver
    # round 2.55, between the last even start 2.54 and the period
    one_from_two = np.array([[0.0, 1.0], [0.0, 0.0]])
    two_from_one = one_from_two.T
    sig = SwitchingSignal([1.0, 0.78, 0.78],
                          [0.5 * one_from_two, one_from_two + two_from_one, two_from_one])
    eta = 0.01 * (1.0 + 1e-4)
    rep = cor1_sliding_window_check(sig, 0.03, eta)
    assert rep.verdict == "fail"
    assert abs(rep.witnesses["first_failing_start"] - 2.55) <= 1e-5
    assert not window_oracle.cor1_passes(list(sig.times), sig.values, sig.period, 0.03, eta)


def test_cor1_eta_above_every_weight_fails():
    rng = np.random.default_rng(4)
    a = connected_nonneg_coupling(rng, 3)
    rep = cor1_sliding_window_check(ConstantSignal(a), window=1.0, eta=100.0)
    assert rep.verdict == "fail"


SCHEDULE_KINDS = ["switching", "periodic-table", "aperiodic-table"]


def random_schedule(rng, kind, low=0.0):
    """2 to 8 nodes, 1 to 4 sparse pieces with weights in [low, 1.5), switching or table."""
    m = int(rng.integers(2, 9))
    count = int(rng.integers(1, 5))
    pieces = []
    for _ in range(count):
        a = rng.uniform(low, 1.5, (m, m)) * (rng.random((m, m)) < 0.6)
        np.fill_diagonal(a, 0.0)
        pieces.append(a)
    durations = rng.uniform(0.2, 1.0, count)
    if kind == "switching":
        return SwitchingSignal(durations, pieces)
    times = np.concatenate([[0.0], np.cumsum(durations)[:-1]])
    if kind == "periodic-table":
        return TableSignal(times, pieces, period=float(durations.sum()))
    return TableSignal(times, pieces)


def span_of(sig):
    """Length over which a schedule shows every piece: its period, or past its last switch."""
    return sig.period if sig.period is not None else sig.breakpoints().max(initial=0.0) + 0.5


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_thm1_matches_the_per_window_loop(kind):
    rng = np.random.default_rng([71, SCHEDULE_KINDS.index(kind)])
    verdicts = set()
    for case in range(30):
        sig = random_schedule(rng, kind)
        m = sig.shape[0]
        if case % 3 == 0:  # whole periods, so every interval repeats the same bins
            partition = span_of(sig) * np.arange(int(rng.integers(2, 12)))
        else:
            partition = np.cumsum(np.concatenate([[rng.uniform(0.0, 2.0)],
                                                  rng.uniform(0.3, 3.0, int(rng.integers(1, 8)))]))
        bins = int(rng.integers(1, m + 1))
        widths = np.diff(partition) / bins
        eta = rng.uniform(0.1, 0.9) * 0.75 * (widths if case % 2 else widths.min())
        rep = thm1_spanning_tree_check(sig, partition, eta, bins)
        passed, first_fail, checked = spanning_oracle.thm1_windows(sig, partition, eta, bins)
        assert rep.verdict == ("pass" if passed else "fail")
        assert rep.witnesses.get("first_failing_window") == first_fail
        assert rep.witnesses["windows_checked"] == checked
        verdicts.add(rep.verdict)
    assert verdicts == {"pass", "fail"}


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_cor1_matches_the_per_window_loop(kind):
    rng = np.random.default_rng([72, SCHEDULE_KINDS.index(kind)])
    verdicts = set()
    for case in range(30):
        sig = random_schedule(rng, kind)
        window = rng.uniform(0.2, 2.5) * span_of(sig)
        eta = rng.uniform(0.1, 0.9) * 0.75 * window
        # given starts; the default ones are held to the brute-force oracle below
        starts = rng.uniform(0.0, 3.0 * span_of(sig), int(rng.integers(1, 60)))
        rep = cor1_sliding_window_check(sig, window, eta, starts)
        passed, first_fail = spanning_oracle.cor1_starts(sig, window, eta, starts)
        assert rep.verdict == ("pass" if passed else "fail")
        assert rep.witnesses.get("first_failing_start") == first_fail
        verdicts.add(rep.verdict)
    assert verdicts == {"pass", "fail"}


def swapping_links(rng, kind):
    """m nodes; pieces that alternate link 1 <- 2 and link 2 <- 1 (weight w each), every
    other node fed by both, each piece longer than the window T. A window across a switch
    between the two links holds both at w1 w2 T / (w1 + w2) where they cross; eta a hair
    above the least of these fails only on a sliver of starts there."""
    m, count = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    window = rng.uniform(0.2, 0.9) * 0.3
    weights = rng.uniform(0.5, 2.0, count)
    pieces = []
    for k, w in enumerate(weights):
        a = np.zeros((m, m))
        a[2:, :2] = rng.uniform(1.0, 2.0, (m - 2, 2))
        a[(0, 1) if k % 2 == 0 else (1, 0)] = w
        pieces.append(a)
    pairs = list(zip(weights, weights[1:]))
    if kind != "aperiodic-table" and count % 2 == 0:  # the wrap switches links too
        pairs.append((weights[-1], weights[0]))
    eta = min(w1 * w2 * window / (w1 + w2) for w1, w2 in pairs) * (1.0 + 1e-4)
    durations = rng.uniform(0.3, 1.5, count)
    times = np.concatenate([[0.0], np.cumsum(durations)[:-1]])
    if kind == "switching":
        sig = SwitchingSignal(durations, pieces)
    else:
        sig = TableSignal(times, pieces, float(durations.sum()) if kind == "periodic-table"
                          else None)
    return sig, window, eta


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_cor1_default_starts_agree_with_a_brute_force_oracle(kind):
    # random schedules, and schedules whose failing windows are slivers between two
    # crossings of eta, which the even starts alone pass
    rng = np.random.default_rng([77, SCHEDULE_KINDS.index(kind)])
    verdicts, slivers = set(), 0
    for case in range(24):
        if case % 2:
            sig = random_schedule(rng, kind)
            window = rng.uniform(0.2, 2.5) * span_of(sig)
            eta = rng.uniform(0.1, 0.9) * 0.75 * window
        else:
            sig, window, eta = swapping_links(rng, kind)
        rep = cor1_sliding_window_check(sig, window, eta)
        passed = window_oracle.cor1_passes(list(sig.times), sig.values, sig.period, window, eta)
        assert rep.verdict == ("pass" if passed else "fail")
        if not passed:
            t = rep.witnesses["first_failing_start"]
            z = window_oracle.window_integral(list(sig.times), sig.values, sig.period, t,
                                              t + window)
            # a failing start may be a crossing, where an entry meets eta up to rounding
            assert not window_oracle.has_root(z, eta * (1.0 + 1e-9))
            even = cor1_sliding_window_check(sig, window, eta, even_grid(sig, num=128))
            slivers += even.verdict == "pass"
        verdicts.add(rep.verdict)
    assert verdicts == {"pass", "fail"}
    assert slivers >= 6


def _even_starts(coupling, window, eta=None):
    """The default window starts of the even-grid reading: the 128-point even grid and
    every kink, folded, and with eta cor1's crossings and gap midpoints."""
    starts = certificates._fold(coupling, even_grid(coupling, certificates.PROBE_POINTS),
                                coupling.breakpoints() - window)
    return starts if eta is None else certificates._eta_starts(coupling, starts, window, eta)


def _differential_table(rng, kind, low):
    """2 to 5 nodes, 1 to 4 pieces of 0.2 to 2 s with weights in [low, 1.5), some 30% of
    them zero, switching or table."""
    m, count = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    pieces = [rng.uniform(low, 1.5, (m, m)) * (rng.random((m, m)) < 0.7) * (1.0 - np.eye(m))
              for _ in range(count)]
    durations = rng.uniform(0.2, 2.0, count)
    if kind == "switching":
        return SwitchingSignal(durations, pieces)
    times = np.concatenate([[0.0], np.cumsum(durations)[:-1]])
    return TableSignal(times, pieces, float(durations.sum()) if kind == "periodic-table" else None)


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_thm2_at_the_kinks_reads_what_the_even_starts_read(kind):
    # the window average is linear in its start between kinks, so the even starts
    # find no worse window
    rng = np.random.default_rng([27, 2, SCHEDULE_KINDS.index(kind)])
    verdicts = set()
    for case in range(100):
        sig = _differential_table(rng, kind, -0.5)
        r, window = float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.05, 5.0))
        worst = thm2_window_check(sig, r, window, 1.0, _even_starts(sig, window)).witnesses[
            "worst_window_average"]
        eta = -worst * rng.uniform(0.9, 1.1) if worst < 0 else rng.uniform(0.01, 1.0)
        rep = thm2_window_check(sig, r, window, eta)
        ref = thm2_window_check(sig, r, window, eta, _even_starts(sig, window))
        assert rep.verdict == ref.verdict, case
        assert abs(rep.witnesses["worst_window_average"] - worst) <= 1e-12, case
        verdicts.add(rep.verdict)
    assert verdicts == {"pass", "fail"}


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_cor1_at_the_kinks_reads_what_the_even_starts_read(kind):
    rng = np.random.default_rng([27, 1, SCHEDULE_KINDS.index(kind)])
    verdicts = set()
    for case in range(100):
        sig = _differential_table(rng, kind, 0.0)
        window = float(rng.uniform(0.05, 5.0))
        eta = rng.uniform(0.1, 0.9) * 0.75 * window
        rep = cor1_sliding_window_check(sig, window, eta)
        ref = cor1_sliding_window_check(sig, window, eta, _even_starts(sig, window, eta))
        passed = window_oracle.cor1_passes(list(sig.times), sig.values, sig.period, window, eta)
        assert rep.verdict == ref.verdict == ("pass" if passed else "fail"), case
        if not passed:
            t = rep.witnesses["first_failing_start"]
            z = window_oracle.window_integral(list(sig.times), sig.values, sig.period, t,
                                              t + window)
            assert not window_oracle.has_root(z, eta * (1.0 + 1e-9)), case
        verdicts.add(rep.verdict)
    assert verdicts == {"pass", "fail"}


def directed_ring_schedule(m, blocks=1):
    """Four pieces of 0.5 s, each a directed ring in every block, weights in [0.5, 1.5]."""
    rng = np.random.default_rng([73, blocks])
    size = m // blocks
    pieces = []
    for _ in range(4):
        a = np.zeros((m, m))
        for b in range(blocks):
            for i in range(size):
                a[b * size + (i + 1) % size, b * size + i] = rng.uniform(0.5, 1.5)
        pieces.append(a)
    return SwitchingSignal([0.5] * 4, pieces)


@pytest.mark.parametrize("blocks, verdict", [(1, "pass"), (2, "fail")], ids=["ring", "split"])
def test_thm1_closes_each_distinct_graph_once(monkeypatch, blocks, verdict):
    # 40 periods of a 4-piece schedule, one period per interval: each interval
    # repeats the same bins, so at most `bins` distinct graphs need a closure
    sig = directed_ring_schedule(8, blocks)
    partition = 2.0 * np.arange(41)
    closed = []  # graphs per closure call: one, or the size of a stack
    closure = graph.has_spanning_tree
    monkeypatch.setattr(graph, "has_spanning_tree",
                        lambda g: closed.append(np.asarray(g).reshape(-1, 8, 8).shape[0])
                        or closure(g))
    rep = thm1_spanning_tree_check(sig, partition, 0.02, bins=7)
    assert rep.verdict == verdict and rep.witnesses["windows_checked"] == 280
    assert 1 <= sum(closed) <= 7
    passed, first_fail, _ = spanning_oracle.thm1_windows(sig, partition, 0.02, 7)
    assert (verdict == "pass") == passed
    assert rep.witnesses.get("first_failing_window") == first_fail


def test_thm1_stops_at_its_first_failing_window(monkeypatch):
    # the split schedule fails in the first bin, so only the first of 40 intervals
    # is integrated; windows_checked still counts the partition's 40 x 7 windows
    sig = directed_ring_schedule(8, blocks=2)
    calls = []
    integrate = TableSignal.integrate_window
    monkeypatch.setattr(TableSignal, "integrate_window",
                        lambda self, s, t: calls.append(1) or integrate(self, s, t))
    rep = thm1_spanning_tree_check(sig, 2.0 * np.arange(41), 0.02, bins=7)
    assert rep.verdict == "fail" and rep.witnesses["windows_checked"] == 280
    assert rep.witnesses["first_failing_window"] == {"interval": 1, "bin": 1,
                                                     "window": [0.0, 2.0 / 7]}
    assert len(calls) == 1


def two_block_schedule(m, until):
    """Aperiodic table: a directed ring on all m nodes until `until`, then two rings of
    m/2 nodes with no link between them, which have no spanning tree."""
    ring, split = np.zeros((m, m)), np.zeros((m, m))
    half = m // 2
    for i in range(m):
        ring[i, (i - 1) % m] = 1.0
        split[i, (i - 1) % half + (i // half) * half] = 1.0
    return TableSignal([0.0, until], [ring, split])


def _record_integrals(monkeypatch):
    calls = []
    integrate = TableSignal.integrate_window
    monkeypatch.setattr(TableSignal, "integrate_window",
                        lambda self, s, t: calls.append(np.atleast_1d(s).copy())
                        or integrate(self, s, t))
    return calls


def test_cor1_integrates_no_block_past_its_first_failing_start(monkeypatch):
    # 4 blocks of starts 0.5 s apart; the windows fail from the last start of the
    # third block on, so the third call is the last
    block = certificates._block(two_block_schedule(20, 1.0))
    fail = 0.5 * (3 * block - 1)
    sig = two_block_schedule(20, fail + 0.5)
    starts = 0.5 * np.arange(4 * block)
    calls = _record_integrals(monkeypatch)
    rep = cor1_sliding_window_check(sig, 1.0, 0.5, starts)
    monkeypatch.undo()
    assert rep.verdict == "fail" and rep.witnesses["first_failing_start"] == fail
    assert spanning_oracle.cor1_starts(sig, 1.0, 0.5, starts) == (False, fail)
    assert len(calls) > 1 and fail in calls[-1]
    assert not any(fail in c for c in calls[:-1])
    assert sum(c.size for c in calls) < starts.size


def test_thm1_integrates_no_block_past_its_first_failing_window(monkeypatch):
    # 3 blocks of bins of 1 s in one interval; the first bin without a spanning tree,
    # [fail, fail + 1], lies halfway through the second block
    block = certificates._block(two_block_schedule(20, 1.0))
    fail, bins = float(3 * block // 2), 3 * block
    sig = two_block_schedule(20, fail)
    calls = _record_integrals(monkeypatch)
    rep = thm1_spanning_tree_check(sig, [0.0, float(bins)], 0.5, bins=bins)
    monkeypatch.undo()
    passed, first_fail, _ = spanning_oracle.thm1_windows(sig, [0.0, float(bins)], 0.5, bins)
    assert not passed and rep.verdict == "fail"
    assert rep.witnesses["first_failing_window"] == first_fail == {
        "interval": 1, "bin": int(fail) + 1, "window": [fail, fail + 1.0]}
    assert len(calls) > 1 and fail in calls[-1]
    assert not any(fail in c for c in calls[:-1])
    assert sum(c.size for c in calls) < bins


def test_window_blocks_double_from_a_few_windows_up_to_the_block(monkeypatch):
    # one interval of 100 bins of 1 s: a run that passes takes blocks that double from
    # _FIRST_BLOCK windows up to _block; a failure in the second bin integrates only the
    # first, small block, not a whole one
    block, first = certificates._block(two_block_schedule(20, 1.0)), certificates._FIRST_BLOCK
    assert 1 < first < block
    sizes = {}
    for until, verdict in ((200.0, "pass"), (1.0, "fail")):
        calls = _record_integrals(monkeypatch)
        rep = thm1_spanning_tree_check(two_block_schedule(20, until), [0.0, 100.0], 0.5,
                                       bins=100)
        monkeypatch.undo()
        assert rep.verdict == verdict
        sizes[verdict] = [c.size for c in calls]
    grown = sizes["pass"]
    assert grown[0] == first and sum(grown) == 100 and block in grown
    assert all(b == min(2 * a, block) for a, b in zip(grown, grown[1:-1]))
    assert sizes["fail"] == [first]


@pytest.mark.parametrize("until, etas, interval, bin_", [
    (10.0, [0.5, 0.5, 0.5], 2, 4),   # the split starts inside interval 2
    (30.0, [0.5, 1.0, 0.5], 2, 1),   # ring links of 1 are not above interval 2's eta
    (30.0, [0.5, 0.5, 1.0], 3, 1),
    (30.0, [1.0, 0.5, 0.5], 1, 1),
    (30.0, [0.5, 0.5, 0.5], None, None),
])
def test_thm1_names_the_interval_and_bin_of_a_block_across_intervals(until, etas, interval,
                                                                     bin_):
    # three intervals of 7 bins of 1 s: the blocks cross the intervals' bounds, so each
    # window's interval and eta come from its place in one flat list
    sig = two_block_schedule(20, until)
    partition = [0.0, 7.0, 14.0, 21.0]
    assert certificates._block(sig) > 14
    rep = thm1_spanning_tree_check(sig, partition, etas, bins=7)
    passed, first_fail, _ = spanning_oracle.thm1_windows(sig, partition, etas, 7)
    assert rep.witnesses.get("first_failing_window") == first_fail
    if interval is None:
        assert passed and rep.verdict == "pass"
    else:
        start = 7.0 * (interval - 1) + bin_ - 1
        assert rep.verdict == "fail" and first_fail == {
            "interval": interval, "bin": bin_, "window": [start, start + 1.0]}


def test_thm1_bin_edges_are_the_per_interval_linspace_bit_for_bit(monkeypatch):
    # thm1 builds every interval's edges in one linspace; each must equal the interval's
    # own np.linspace, on partitions whose lengths and offsets span many scales
    rng = np.random.default_rng(28)
    seen = []
    monkeypatch.setattr(certificates, "_first_window_without_tree",
                        lambda coupling, lo, hi, etas: seen.append((lo, hi, etas)))
    sig = ConstantSignal(TWO_NODE)
    for case in range(400):
        lengths = 10.0 ** rng.uniform(-6, 3, int(rng.integers(1, 12)))
        partition = np.cumsum(np.concatenate([[rng.uniform(0, 10.0 ** rng.uniform(-3, 6))],
                                              lengths]))
        if np.any(np.diff(partition) <= 0):
            continue
        bins = int(rng.integers(1, 40))
        etas = rng.uniform(0.1, 1.0, partition.size - 1)
        thm1_spanning_tree_check(sig, partition, etas, bins)
        lo, hi, eta = seen.pop()
        for n in range(partition.size - 1):
            edges = np.linspace(partition[n], partition[n + 1], bins + 1)
            rows = slice(n * bins, (n + 1) * bins)
            assert lo[rows].tobytes() == edges[:-1].tobytes(), (case, n)
            assert hi[rows].tobytes() == edges[1:].tobytes(), (case, n)
            assert np.all(eta[rows] == etas[n])
        assert lo.size == hi.size == eta.size == (partition.size - 1) * bins


def test_thm1_tells_apart_graphs_with_as_many_edges():
    # the path 1 -> 2 -> 3 has a spanning tree; 1 -> 2 <- 3, with as many
    # edges, has none, so the second bin fails
    path, meet = np.zeros((3, 3)), np.zeros((3, 3))
    path[1, 0] = path[2, 1] = meet[1, 0] = meet[1, 2] = 1.0
    rep = thm1_spanning_tree_check(SwitchingSignal([1.0, 1.0], [path, meet]), [0.0, 2.0], 0.5,
                                   bins=2)
    assert rep.verdict == "fail"
    assert rep.witnesses["first_failing_window"] == {"interval": 1, "bin": 2,
                                                     "window": [1.0, 2.0]}


PROBE_KINDS = SCHEDULE_KINDS + ["constant", "sinusoid"]


@pytest.mark.parametrize("kind", PROBE_KINDS)
def test_negative_coupling_witness_matches_the_probe_loop(kind):
    # pieces probed once each must give the witness every probe time gives:
    # the first time of the most negative entry, ties included; a sinusoid
    # gives each entry's exact minimum, as its closed form does
    rng = np.random.default_rng([74, PROBE_KINDS.index(kind)])
    found = 0
    for case in range(20):
        sig = random_schedule(rng, kind if kind in SCHEDULE_KINDS else "switching", low=-0.4)
        if kind == "constant":
            sig = ConstantSignal(sig.values[0])
        elif kind == "sinusoid":
            m = sig.shape[0]
            phase = rng.uniform(-3.0, 3.0, (m, m) if case % 2 else ())
            sig = SinusoidSignal(sig.values[0], 0.5 * sig.values[-1] * rng.choice([-1, 1]),
                                 phase, trig=["cos", "sin"][case % 4 // 2],
                                 time_scale=rng.uniform(0.3, 2.0))
        elif case % 4 == 0:  # the same object twice and an equal copy: ties in time order
            values = sig.values + [sig.values[0], sig.values[0].copy()]
            period = 0.3 * len(values) if kind == "periodic-table" else None
            sig = (SwitchingSignal([0.3] * len(values), values) if kind == "switching"
                   else TableSignal(0.3 * np.arange(len(values)), values, period))
        partition = np.linspace(0.0, 3.0 * span_of(sig), 4)
        starts = rng.uniform(0.0, span_of(sig), 8)
        if kind == "sinusoid":
            worst = spanning_oracle.sinusoid_most_negative_entry(sig)
        else:
            worst = spanning_oracle.most_negative_entry(sig)
        for rep in [thm1_spanning_tree_check(sig, partition, 0.1),
                    cor1_sliding_window_check(sig, 1.0, 0.1, starts)]:
            got = rep.witnesses.get("negative_coupling_at")
            if kind == "sinusoid" and worst is not None:  # the two forms round apart
                assert got["pair"] == worst["pair"]
                assert got["t"] == pytest.approx(worst["t"], rel=1e-12, abs=1e-12)
                assert got["value"] == pytest.approx(worst["value"], rel=1e-12, abs=1e-15)
            else:
                assert got == worst
            assert (rep.verdict == "inconclusive") == (worst is not None)
            found += worst is not None
    assert found > 0


@pytest.mark.parametrize("trig, shift", [("cos", math.pi), ("sin", 1.5 * math.pi)],
                         ids=["cos", "sin"])
def test_spanning_tree_criteria_see_a_sinusoid_dip_between_probe_times(trig, shift):
    # 1 + 1.000001 trig(t + phase) dips to -1e-6 halfway between probe times 40 and 41 of
    # 128 a period, where both probes read about +3e-4; pass and fail were false verdicts
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    dip = 40.5 * 2 * math.pi / 128
    sig = SinusoidSignal(a, 1.000001 * a, shift - dip, trig=trig)
    for rep in [thm1_spanning_tree_check(sig, [0.0, 1.0, 2.0], 0.1),
                cor1_sliding_window_check(sig, 1.0, 0.1)]:
        assert rep.verdict == "inconclusive"
        worst = rep.witnesses["negative_coupling_at"]
        assert worst["pair"] == [1, 2]
        assert worst["t"] == pytest.approx(dip, rel=1e-12)
        assert worst["value"] == pytest.approx(-1e-6, rel=1e-6)


def test_sinusoid_minimum_a_whole_turn_on_is_taken_at_zero():
    # 0.5 + cos(t - pi) is least at t = 0; the angle of that minimum, an ulp below 0,
    # must not fold to a whole period
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = thm1_spanning_tree_check(SinusoidSignal(0.5 * a, a, -math.pi), [0.0, 1.0], 0.1)
    assert rep.witnesses["negative_coupling_at"] == {"t": 0.0, "pair": [1, 2], "value": -0.5}


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


def test_thm2_default_starts_reach_the_worst_window():
    # pieces of 3, 2 and 5 s with xi = -2, -0.5 and -5; the window [1, 5] ends
    # on the 5 s switch and averages (2 * -2 + 2 * -0.5) / 4 = -1.25 > -1.26,
    # while no switch lands on t = 1: the start is the kink 5 - 4
    r, window = 1.0, 4.0
    xi_unit = xi_index(TWO_NODE, r)
    coupling = SwitchingSignal([3.0, 2.0, 5.0], [TWO_NODE * x / xi_unit for x in (-2, -0.5, -5)])
    rep = thm2_window_check(coupling, r, window, eta=1.26)
    assert rep.verdict == "fail"
    assert rep.witnesses["worst_start"] == 1.0
    assert rep.witnesses["worst_window_average"] == pytest.approx(-1.25, abs=1e-12)
    dense = thm2_window_check(coupling, r, window, eta=1.26, starts=np.linspace(0.0, 10.0, 4001))
    assert dense.witnesses["worst_window_average"] <= rep.witnesses["worst_window_average"] + 1e-12
    # a window of one period has no kink off the switches: the bundled default starts
    # are its switches, one per piece
    ap = signal_from_json(json.loads(bundled_config_path("ap").read_text())["signals"]["coupling"])
    assert thm2_window_check(ap, math.pi / 3, ap.period, 0.01).parameters["num_starts"] == \
        ap.times.size == 2


@pytest.mark.parametrize("check", [
    lambda co, starts: cor1_sliding_window_check(co, 1.0, 0.1, starts=starts),
    lambda co, starts: thm2_window_check(co, 1.0, 1.0, 0.1, starts=starts),
], ids=["cor1", "thm2"])
def test_window_criteria_reject_empty_starts(check):
    with pytest.raises(ValueError, match="starts"):
        check(ConstantSignal(TWO_NODE), [])


@pytest.mark.parametrize("starts", [0.5, [[0.0, 0.5]]], ids=["number", "nested"])
def test_window_criteria_reject_starts_that_are_not_a_list(starts):
    # a single number used to fail deep inside both criteria with a TypeError
    with pytest.raises(ValueError, match="starts"):
        cor1_sliding_window_check(ConstantSignal(TWO_NODE), 1.0, 0.1, starts=starts)
    with pytest.raises(ValueError, match="starts"):
        thm2_window_check(ConstantSignal(TWO_NODE), 1.0, 1.0, 0.1, starts=starts)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("coupling", [
    SwitchingSignal([0.5, 0.5], [np.ones((3, 3)) - np.eye(3), np.eye(3, k=1)]),
    ConstantSignal(np.ones((3, 3)) - np.eye(3)),
], ids=["switching", "constant"])
def test_window_criteria_reject_non_finite_starts(coupling, bad):
    # inf used to crash cor1 with an OverflowError, and NaN to give a fail or NaN averages
    for check in (lambda starts: cor1_sliding_window_check(coupling, 1.0, 0.1, starts=starts),
                  lambda starts: thm2_window_check(coupling, 1.0, 1.0, 0.1, starts=starts)):
        with pytest.raises(ValueError, match="starts must be finite"):
            check([0.0, bad, 0.5])


@pytest.mark.parametrize("bins", [0, -1, 1.5, 2.0, True, "3"])
def test_thm1_rejects_bins_that_are_not_positive_integers(bins):
    with pytest.raises(ValueError, match="bins"):
        thm1_spanning_tree_check(ConstantSignal(np.zeros((3, 3))), [0.0, 1.0], 0.1, bins=bins)
    # num_windows of thm3 and cor2 takes the same rule
    for check in (thm3_series_check, cor2_uniform_check):
        with pytest.raises(ValueError, match="num_windows must be a positive integer"):
            check(ConstantSignal(TWO_NODE), 1.0, 1.0, num_windows=bins)


def test_integer_parameters_take_numpy_integers():
    rep = thm1_spanning_tree_check(ConstantSignal(TWO_NODE), [0.0, 1.0], 0.1, bins=np.int64(3))
    assert rep.parameters["bins"] == 3 and type(rep.parameters["bins"]) is int
    for check in (thm3_series_check, cor2_uniform_check):
        rep = check(ConstantSignal(TWO_NODE), 1.0, 1.0, num_windows=np.int32(2))
        assert len(rep.witnesses["alpha_series"]) == rep.parameters["num_windows"] == 2


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
    for a in pieces:  # xi ignores the diagonal; the criterion rejects a nonzero one
        np.fill_diagonal(a, 0.0)
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


def simpson_xi_average(base, amp, phase, trig, tau, r, a, b, n=20_000):
    """Composite Simpson average of xi over [a, b] on n intervals. The coupling
    base + amp * trig(t / tau + phase) is built here, so only xi_index is shared."""
    arg = np.linspace(a, b, n + 1)[:, None, None] / tau + phase
    mats = base + amp * (np.cos(arg) if trig == "cos" else np.sin(arg))
    weights = np.where(np.arange(n + 1) % 2, 4.0, 2.0)
    weights[[0, -1]] = 1.0
    return float(weights @ [xi_index(mat, r) for mat in mats]) / (3 * n)


def test_thm2_smooth_windows_match_an_independent_simpson_rule():
    # a tenth of a period, where a cut cell weighs most, then one longer window per
    # coupling; xi has kinks, so the oracle's 20,000 intervals, not its order, set its
    # accuracy
    rng = np.random.default_rng(36)
    r = 1.0
    for m, trig, tau, periods in [(3, "cos", 1.0, 0.5), (4, "sin", 0.37, 1.0),
                                  (5, "sin", 1.0, 3.7), (6, "cos", 0.37, 10.0)]:
        base, amp = rng.uniform(-0.5, 1.0, (m, m)), rng.uniform(-1.0, 1.0, (m, m))
        for x in (base, amp):
            np.fill_diagonal(x, 0.0)
        phase = rng.uniform(0.0, 2 * math.pi, (m, m))
        sig = SinusoidSignal(base, amp, phase, trig=trig, time_scale=tau)
        for window in (0.1 * sig.period, periods * sig.period):
            # 0.15 to 0.35 into one of 4096 cells per period: each window end cuts a cell
            start = (rng.integers(3 * 4096) + rng.uniform(0.15, 0.35)) * sig.period / 4096
            rep = thm2_window_check(sig, r, window, 0.01, starts=[start])
            want = simpson_xi_average(base, amp, phase, trig, tau, r, start, start + window)
            got = rep.witnesses["worst_window_average"]
            assert got == pytest.approx(want, abs=1e-6), (m, window / sig.period)


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
    # a constant repeats from window 1, floor(0 / h) + 1, one window a cycle
    assert rep.witnesses["repeat"] == {"from_window": 1, "windows": 1,
                                       "sum": pytest.approx(1.5), "min": pytest.approx(1.5)}
    assert rep.witnesses["cor2_uniform_pass"]
    assert cor2_uniform_check(coupling, math.pi / 3, h=0.7, num_windows=4).verdict == "pass"


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
    integral = series_oracle.table_integral(coupling.times, coupling.values, coupling.period)
    assert series_oracle.series(integral, math.pi / 3, 2.0, 2) == \
        pytest.approx([direct, direct], abs=1e-9)
    assert direct > 0


def test_thm3_asymmetric_schedule_is_inconclusive():
    a = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    rep = thm3_series_check(ConstantSignal(a), 0.5, h=1.0, num_windows=1)
    assert rep.verdict == "inconclusive"
    assert "asymmetric_at" in rep.witnesses


@pytest.mark.parametrize("check", [thm3_series_check, cor2_uniform_check])
def test_small_asymmetric_coupling_is_inconclusive_not_an_error(check):
    # |L - L^T| = 1e-11 is within 1e-10 max(1, max |L|), but not within 1e-10 |L| in the
    # Frobenius norm: the one symmetry rule, which rejects on either, calls it asymmetric
    sig = ConstantSignal([[0.0, 1e-11], [0.0, 0.0]])
    rep = check(sig, 1.0, 1.0)
    assert rep.verdict == "inconclusive"
    assert rep.witnesses == {"asymmetric_at": 0.0}
    assert certificates.first_psd_fault(sig) == (0.0, "asymmetric", None)


def test_psd_probe_reaches_past_the_windows():
    # symmetric up to t = 5, then not PSD: h * num_windows = 2 does not end the probe
    j = np.ones((2, 2)) - np.eye(2)
    rep = thm3_series_check(TableSignal([0.0, 5.0], [j, -j]), 1.0, 1.0, num_windows=2)
    assert rep.verdict == "inconclusive"
    assert rep.witnesses == {"not_psd_at": 5.0, "min_eigenvalue": -2.0}


def psd_probe_schedule(rng, kind):
    """2 to 5 nodes, 1 to 4 pieces: symmetric nonnegative, symmetric signed (often not
    PSD) or partly asymmetric, as a schedule, a constant or a sinusoid."""
    m, count, style = int(rng.integers(2, 6)), int(rng.integers(1, 5)), int(rng.integers(3))
    pieces = []
    for _ in range(count):
        a = rng.uniform(-1.0 if style == 1 else 0.0, 1.5, (m, m))
        if style != 2 or rng.random() < 0.5:
            a = a + a.T
        np.fill_diagonal(a, 0.0)
        pieces.append(a)
    if kind == "constant":
        return ConstantSignal(pieces[0])
    if kind == "sinusoid":
        return SinusoidSignal(pieces[0], 0.5 * pieces[-1], rng.uniform(-3.0, 3.0))
    durations = rng.uniform(0.2, 1.0, count)
    if kind == "switching":
        return SwitchingSignal(durations, pieces)
    times = np.concatenate([[0.0], np.cumsum(durations)[:-1]])
    return TableSignal(times, pieces, float(durations.sum()) if kind == "periodic-table" else None)


def periodic_h(rng, sig):
    """(h, (a, b)) with h/P = a/b, a and b in 1..5, for a periodic signal; else a random h
    and None."""
    if sig.period is None:
        return float(rng.uniform(0.2, 1.5)), None
    a, b = (int(v) for v in rng.integers(1, 6, 2))
    return sig.period * a / b, (a, b)


@pytest.mark.parametrize("kind", PROBE_KINDS)
def test_psd_probe_matches_the_per_time_loop(kind):
    # each stored piece eigensolved once must give the witness every probe time gives;
    # without one, the verdict is the series oracle's
    rng = np.random.default_rng([75, PROBE_KINDS.index(kind)])
    seen = set()
    for _ in range(24):
        sig = psd_probe_schedule(rng, kind)
        (h, ratio), num_windows = periodic_h(rng, sig), int(rng.integers(1, 5))
        want = psd_oracle.thm3_witness(sig)
        series = None if want is not None else series_oracle.verdicts_of(
            sig, math.pi / 3, h, 1e-6, ratio)
        for name, check in (("thm3", thm3_series_check), ("cor2", cor2_uniform_check)):
            rep = check(sig, math.pi / 3, h, num_windows)
            if want is not None:
                assert rep.verdict == "inconclusive" and rep.witnesses == want
            else:
                assert not {"asymmetric_at", "not_psd_at"} & rep.witnesses.keys()
                assert rep.verdict == series[name]
        seen.add("none" if want is None else next(iter(want)))
    assert seen == {"none", "asymmetric_at", "not_psd_at"}


def test_thm3_eigensolves_each_piece_of_a_schedule_once(monkeypatch):
    # 4 symmetric pieces: the 128 even probe times and 4 switches read 4 distinct Laplacians
    ring = np.roll(np.eye(6), 1, axis=1)
    pieces = [(k + 1) * (ring + ring.T) for k in range(4)]
    calls = []
    spectrum = certificates.restricted_spectrum
    monkeypatch.setattr(certificates, "restricted_spectrum",
                        lambda lap: calls.append(1) or spectrum(lap))
    rep = thm3_series_check(SwitchingSignal([0.5] * 4, pieces), math.pi / 3, 0.5, 4)
    assert rep.verdict == "pass"
    assert len(calls) <= 4


def test_cor2_uniform_threshold():
    coupling = ConstantSignal(np.ones((3, 3)) - np.eye(3))
    assert cor2_uniform_check(coupling, math.pi / 3, 1.0, 3).verdict == "pass"
    assert cor2_uniform_check(coupling, math.pi / 3, 1.0, 3, alpha_hat=2.0).verdict == "fail"


J3 = np.ones((3, 3)) - np.eye(3)


@pytest.mark.parametrize("num_windows", [1, 5, 50])
def test_thm3_fails_on_a_coupling_that_stops(num_windows):
    # connected for 1 s, then zero for ever: alpha_k = 0 for k >= 1, so the series
    # converges, however many windows are listed; it repeats from floor(1 / 1) + 1 = 2
    rep = thm3_series_check(TableSignal([0.0, 1.0], [J3, 0 * J3]), 1.0, 1.0, num_windows)
    assert rep.verdict == "fail"
    assert rep.witnesses["repeat"] == {"from_window": 2, "windows": 1, "sum": 0.0, "min": 0.0}
    assert len(rep.witnesses["alpha_series"]) == num_windows
    assert rep.witnesses["alpha_series"][1:] == [0.0] * (num_windows - 1)


def test_cor2_fails_on_a_coupling_that_stops_with_one_listed_window():
    rep = cor2_uniform_check(TableSignal([0.0, 1.0], [J3, 0 * J3]), 1.0, 1.0, num_windows=1)
    assert rep.verdict == "fail"
    assert rep.witnesses["min_alpha"] > 1e-6  # the one listed window alone would pass


def test_periodic_coupling_is_read_over_its_whole_cycle():
    # h / P = 0.7 / 3 = 7 / 30: 30 windows span 7 periods, and some of them, [1.4, 2.1]
    # the first, lie wholly in the zero piece; 2 listed windows both meet the J piece
    sig = TableSignal([0.0, 1.0], [J3, 0 * J3], period=3.0)
    rep = thm3_series_check(sig, 1.0, 0.7, num_windows=2)
    oracle = series_oracle.verdicts_of(sig, 1.0, 0.7, 1e-6, ratio=(7, 30))
    assert rep.verdict == oracle["thm3"] == "pass"
    repeat = rep.witnesses["repeat"]
    assert (repeat["from_window"], repeat["windows"]) == (0, 30)
    assert repeat["sum"] == pytest.approx(sum(oracle["alphas"][:30]), abs=1e-9)
    assert repeat["min"] == pytest.approx(0.0, abs=1e-12)
    assert min(rep.witnesses["alpha_series"]) > 1e-6
    assert cor2_uniform_check(sig, 1.0, 0.7, num_windows=2).verdict == oracle["cor2"] == "fail"


def test_incommensurate_h_is_inconclusive():
    # h = 1 against the sinusoid's period 2 pi: no whole number of windows spans whole
    # periods, so no finite cycle decides the series; the listed alphas are still there
    sig = SinusoidSignal(2.0 * J3, 0.5 * J3, 0.0)
    for check in (thm3_series_check, cor2_uniform_check):
        rep = check(sig, 1.0, 1.0, num_windows=3)
        assert rep.verdict == "inconclusive"
        assert rep.witnesses["repeat"] is None and rep.witnesses["cor2_uniform_pass"] is None
        assert len(rep.witnesses["alpha_series"]) == 3 and rep.witnesses["min_alpha"] > 0


SERIES_KINDS = ["constant", "aperiodic-table", "periodic-table", "switching", "sinusoid"]


def series_case(rng, kind):
    """A symmetric nonnegative coupling of the kind on 2 to 5 nodes, 1 to 4 pieces, each
    piece zero or with every off-diagonal entry at least 0.1 (so connected); an aperiodic
    table ends in a zero piece half the time."""
    m, count = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    pieces = []
    for k in range(count):
        zero = rng.random() < (0.5 if kind == "aperiodic-table" and k == count - 1 else 0.3)
        a = np.zeros((m, m)) if zero else rng.uniform(0.05, 0.75, (m, m))
        a = a + a.T
        np.fill_diagonal(a, 0.0)
        pieces.append(a)
    if kind == "constant":
        return ConstantSignal(pieces[0])
    if kind == "sinusoid":  # the base outweighs the amplitude: every entry stays positive
        base = pieces[-1] + 0.05 * (1.0 - np.eye(m))
        return SinusoidSignal(base, pieces[-1], rng.uniform(-3.0, 3.0),
                              trig=str(rng.choice(["sin", "cos"])),
                              time_scale=float(rng.uniform(0.1, 1.0)))
    durations = rng.uniform(0.2, 1.0, count)
    if kind == "switching":
        return SwitchingSignal(durations, pieces)
    times = np.concatenate([[0.0], np.cumsum(durations)[:-1]])
    return TableSignal(times, pieces, float(durations.sum()) if kind == "periodic-table"
                       else None)


@pytest.mark.parametrize("kind", SERIES_KINDS)
def test_thm3_and_cor2_agree_with_the_series_oracle(kind):
    # the oracle reads 20 cycles of windows, or every window to the last switch and 20
    # past it; the package reads k0 + q windows, and num_windows only sets the listing
    rng = np.random.default_rng([76, SERIES_KINDS.index(kind)])
    seen = set()
    for _ in range(20):
        sig = series_case(rng, kind)
        (h, ratio), num_windows = periodic_h(rng, sig), int(rng.integers(1, 8))
        r, alpha_hat = float(rng.uniform(0.1, 1.5)), float(rng.choice([1e-6, 0.5]))
        oracle = series_oracle.verdicts_of(sig, r, h, alpha_hat, ratio)
        for name, check in (("thm3", thm3_series_check), ("cor2", cor2_uniform_check)):
            rep = check(sig, r, h, num_windows, alpha_hat)
            assert rep.verdict == oracle[name]
            seen.add((name, rep.verdict))
        assert rep.witnesses["alpha_series"] == pytest.approx(oracle["alphas"][:num_windows],
                                                              abs=1e-9)
    assert ("cor2", "fail") in seen and ("thm3", "pass") in seen
    if kind == "aperiodic-table":
        assert ("thm3", "fail") in seen


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
        if not (cert_inv.verdict == cert_tree.verdict == "pass"):
            continue
        starts = [rng.uniform(-r / 4, r / 4, m) for _ in range(2)]
        batch = simulate(np.array(starts), omega, coupling, 100.0, 5e-3)
        t1, t2 = (PhaseTrajectory(batch.times, phases) for phases in batch.phases)
        assert invariance_monitor(t1, r) is None
        assert invariance_monitor(t2, r) is None
        assert pd_divergence(t1, t2)[-1] < 1e-2
        checked += 1
        assert attempt < 200


# --- dispatch -----------------------------------------------------------------


def test_run_check_dispatch_and_unknown():
    rep = run_check("invariance-robust", ConstantSignal([1.0, 1.0]),
                    ConstantSignal(TWO_NODE), {"r": 0.5})
    assert rep.verdict == "pass"
    with pytest.raises(ValueError):
        run_check("nonsense", None, ConstantSignal(TWO_NODE), {})
    with pytest.raises(ValueError):
        run_check("thm2-xi-window", None, ConstantSignal(TWO_NODE), {"r": 0.5})


def test_report_json_round_trip():
    rep = invariance_robust(ConstantSignal([1.0, 1.0]), ConstantSignal(TWO_NODE), 0.5)
    payload = rep.to_json()
    assert json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize("call, name", [
    (lambda co: invariance_robust(ConstantSignal(0.0), co, True), "r"),
    (lambda co: thm2_window_check(co, True, 1.0, 0.1), "r"),
    (lambda co: thm2_window_check(co, 1.0, 1.0, True), "eta"),
    (lambda co: cor1_sliding_window_check(co, np.True_, 0.1), "T"),
    (lambda co: thm1_spanning_tree_check(co, [0.0, 1.0, 2.0], True), "eta"),
    (lambda co: thm3_series_check(co, 1.0, True), "h"),
    (lambda co: cor2_uniform_check(co, 1.0, 1.0, alpha_hat=True), "alpha_hat"),
], ids=["robust-r", "thm2-r", "thm2-eta", "cor1-T", "thm1-eta", "thm3-h", "cor2-alpha-hat"])
def test_a_bool_is_no_number(call, name):
    # each used to read True as 1 and return a verdict
    with pytest.raises(ValueError, match=rf"^{name} must .*, got True$"):
        call(SwitchingSignal([1.0, 1.0], [TWO_NODE, 2 * TWO_NODE]))


def _grid_probe(sig, num):
    """The reading signals.probe replaced: sig at each time of even_grid(sig, num), a
    table's piece by the table_oracle lookup, each stored object kept at its first time
    by its id."""
    grid = even_grid(sig, num).tolist()
    if not sig.is_piecewise_constant:
        return [(t, sig.evaluate(t)) for t in grid]
    out, seen = [], set()
    for t in grid:
        value = sig.values[piece_at(sig.times, sig.period, t)]
        if id(value) not in seen:
            seen.add(id(value))
            out.append((t, value))
    return out


def _grid_robust(omega, coupling):
    """invariance_robust's witnesses read through _grid_probe, its formulas as they were."""
    delta_omega = max(float(np.ptp(w)) for _, w in _grid_probe(omega, 1000))
    mu0 = mu1 = mu2 = -np.inf
    for _, a in _grid_probe(coupling, 1000):
        common_min, neg_sum = graph._pair_sums(a)
        off = ~np.eye(a.shape[0], dtype=bool)
        mu0 = max(mu0, float(common_min[off].min()))
        mu1 = max(mu1, float(-neg_sum[off].min()))
        mu2 = max(mu2, float((a + a.T)[off].min()))
    return delta_omega, mu0, mu1, mu2


def _grid_negative_coupling(coupling):
    """(t, pair, value) of the most negative entry over _grid_probe, earliest first."""
    probes = _grid_probe(coupling, certificates.PROBE_POINTS)
    times = np.array([np.full(coupling.shape, u) for u, _ in probes])
    values = np.array([a for _, a in probes])
    k = int(np.lexsort((times.ravel(), values.ravel()))[0])
    i, j = divmod(k % coupling.shape[0] ** 2, coupling.shape[0])
    return float(times.flat[k]), [i + 1, j + 1], float(values.flat[k])


def _same_time(new, old, snapped):
    """A piece's start, or, read off a grid, a time less than the snap below it; snapped
    counts the latter."""
    snapped.append(new != old)
    return new == old or new - SNAP < old < new


def _random_schedule(rng, pool, fresh):
    """A periodic or aperiodic table that starts with pool[0] and whose later pieces are
    mostly drawn from pool, so that one stored array may hold several pieces, else
    fresh(). Its switches fall on whole cells of a grid over its span, summed as
    SwitchingSignal sums durations, so that even_grid may put a time an ulp below one."""
    count = int(rng.integers(1, 7))
    cells = int(rng.choice([128, 256, 1000]))
    unit = rng.uniform(1e-3, 10.0) / cells
    marks = np.sort(rng.choice(np.arange(1, cells), count - 1, replace=False))
    starts = np.cumsum(np.diff(marks, prepend=0, append=cells) * unit)  # as SwitchingSignal
    starts, span = np.append(0.0, starts[:-1]), starts[-1]
    values = [pool[0]] + [pool[int(rng.integers(len(pool)))] if rng.random() < 0.8
                          else fresh() for _ in range(count)]
    if rng.random() < 0.5:  # the last switch ends the span
        return TableSignal(np.append(starts, span), values)
    return TableSignal(starts, values[:-1], span)


def test_probe_keeps_every_witness_of_the_grid_reading():
    rng = np.random.default_rng(2025)
    snapped = []
    for case in range(100):
        m = int(rng.integers(2, 6))
        sym = rng.uniform(0.0, 1.0, (m, m))
        kinds = [sym + sym.T, sym + sym.T - 0.8, rng.normal(size=(m, m)),
                 rng.uniform(0.0, 1.0, (m, m))]  # symmetric, and signed; signed; directed
        off = 1.0 - np.eye(m)
        pool = [kinds[k] * off for k in (0, *rng.integers(4, size=2))]  # faults come later
        coupling = _random_schedule(rng, pool, lambda: rng.normal(size=(m, m)) * off)
        if rng.random() < 0.06:  # a smooth coupling, read on its grid as before
            coupling = SinusoidSignal(pool[0], pool[1], rng.normal(size=(m, m)))
        if rng.random() < 0.1:
            omega = SinusoidSignal(rng.normal(size=m), rng.normal(size=m), rng.normal(size=m))
        else:
            omega = _random_schedule(rng, [rng.normal(size=m) for _ in range(3)],
                                     lambda: rng.normal(size=m))
        r = float(rng.uniform(0.1, 1.5))

        report = invariance_robust(omega, coupling, r)
        delta_omega, mu0, mu1, mu2 = _grid_robust(omega, coupling)
        assert report.witnesses == dict(
            delta_omega=delta_omega, mu0=mu0, mu1=mu1, mu2=mu2,
            lhs=delta_omega / math.sin(r), rhs=mu0 + mu2 - mu1), case
        assert report.verdict == ("pass" if delta_omega / math.sin(r) <= mu0 + mu2 - mu1
                                  else "fail"), case
        assert graph.ergodic_quantities(coupling) == (mu0, mu1, mu2), case

        if coupling.is_piecewise_constant:  # a sinusoid's entry minima are closed forms
            bad = certificates._negative_coupling_report("thm1", coupling, {})
            t, pair, value = _grid_negative_coupling(coupling)
            if value >= -1e-12:
                assert bad is None, case
            else:
                got = bad.witnesses["negative_coupling_at"]
                assert got["pair"] == pair and got["value"] == value, case
                assert _same_time(got["t"], t, snapped), (case, got["t"], t)

        fault = certificates.first_psd_fault(coupling)
        old = next(((u, *certificates.psd_fault(laplacian_from_adjacency(a)))
                    for u, a in _grid_probe(coupling, certificates.PROBE_POINTS)
                    if certificates.psd_fault(laplacian_from_adjacency(a))[0] is not None),
                   None)
        assert (fault is None) == (old is None), case
        if fault is not None:
            assert fault[1:] == old[1:], (case, fault, old)
            assert _same_time(fault[0], old[0], snapped), (case, fault, old)
    assert any(snapped)  # some grid reading was an ulp early
