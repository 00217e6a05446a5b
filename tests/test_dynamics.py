import math

import numpy as np
import pytest

from tvkuramoto.dynamics import (
    PhaseTrajectory,
    check_r,
    hajnal_diameter,
    invariance_monitor,
    kuramoto_rhs,
    pd_divergence,
    pd_pairs,
    phase_differences,
    phases_from_pd,
    simulate,
)
from tvkuramoto.signals import ConstantSignal, SinusoidSignal, SwitchingSignal

TWO_NODE = ConstantSignal([[0.0, 1.0], [1.0, 0.0]])


def test_rhs_zero_coupling_term():
    out = kuramoto_rhs(np.zeros(2), 0.0, ConstantSignal([1.0, 1.0]), TWO_NODE)
    assert np.allclose(out, [1.0, 1.0])


def test_rhs_quarter_turn():
    out = kuramoto_rhs(np.array([0.0, math.pi / 2]), 0.0, ConstantSignal([1.0, 1.0]), TWO_NODE)
    assert np.allclose(out, [2.0, 0.0])


def test_rhs_symmetric_coupling_conserves_frequency_sum():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, (5, 5))
    a = np.triu(a, 1)
    a = a + a.T
    w = rng.uniform(0, 2, 5)
    theta = rng.uniform(-1, 1, 5)
    out = kuramoto_rhs(theta, 0.0, ConstantSignal(w), ConstantSignal(a))
    assert out.sum() == pytest.approx(w.sum(), abs=1e-12)


def test_rhs_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        kuramoto_rhs(np.zeros(3), 0.0, ConstantSignal([1.0, 1.0]), TWO_NODE)


def test_simulate_uncoupled_is_exact():
    traj = simulate(np.array([0.3, -0.2]), ConstantSignal([2.0, 1.0]),
                    ConstantSignal(np.zeros((2, 2))), 5.0, 1e-3)
    expect = np.array([0.3, -0.2]) + np.outer(traj.times, [2.0, 1.0])
    assert np.abs(traj.phases - expect).max() < 1e-12


def test_simulate_two_node_lock_value():
    traj = simulate(np.zeros(2), ConstantSignal([1.2, 1.0]), TWO_NODE, 50.0, 1e-3)
    pd = traj.phase_differences()
    assert abs(pd[-1, 0] + math.asin(0.1)) < 1e-6


def test_simulate_rejects_misaligned_dt():
    coupling = SwitchingSignal([0.25, 0.75], [np.zeros((2, 2)), np.zeros((2, 2))])
    with pytest.raises(ValueError):
        simulate(np.zeros(2), ConstantSignal([1.0, 1.0]), coupling, 1.0, 0.1)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_simulate_reports_blow_up():
    # the frequency gap overflows the first step's stage sum; a start that is not finite
    # is no blow-up, but a parameter the run rejects before its first step
    with pytest.raises(RuntimeError, match="blew up"):
        simulate(np.zeros(2), ConstantSignal([1e308, -1e308]), TWO_NODE, 0.1, 1e-2)
    with pytest.raises(ValueError, match="theta0 must be finite, got nan"):
        simulate(np.array([math.nan, 0.0]), ConstantSignal([1.0, 1.0]), TWO_NODE, 0.1, 1e-2)


def test_simulate_global_shift_equivariance():
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 1, (4, 4))
    np.fill_diagonal(a, 0.0)
    omega = ConstantSignal(rng.uniform(0.5, 1.5, 4))
    coupling = ConstantSignal(a)
    theta0 = rng.uniform(-0.3, 0.3, 4)
    base = simulate(theta0, omega, coupling, 3.0, 1e-3)
    shifted = simulate(theta0 + 0.7, omega, coupling, 3.0, 1e-3)
    assert np.abs(shifted.phases - base.phases - 0.7).max() < 1e-10


def test_simulate_frequency_sum_identity():
    rng = np.random.default_rng(2)
    a = rng.uniform(-0.5, 1, (4, 4))
    a = np.triu(a, 1)
    a = a + a.T
    w = rng.uniform(0.5, 1.5, 4)
    traj = simulate(rng.uniform(-0.2, 0.2, 4), ConstantSignal(w), ConstantSignal(a), 2.0, 1e-3)
    sums = traj.phases.sum(axis=1)
    assert np.abs(sums - sums[0] - w.sum() * traj.times).max() < 1e-9


def test_simulate_step_halving_is_fourth_order():
    omega = SinusoidSignal([1.0, 1.3, 0.8], 0.2 * np.ones(3), np.array([0.0, 1.0, 2.0]))
    rng = np.random.default_rng(3)
    a = rng.uniform(0.2, 1.0, (3, 3))
    np.fill_diagonal(a, 0.0)
    coupling = ConstantSignal(a)
    theta0 = np.array([0.1, -0.1, 0.2])
    ends = {}
    for dt in (4e-3, 2e-3, 1e-3):
        ends[dt] = simulate(theta0, omega, coupling, 2.0, dt).phases[-1]
    err_coarse = np.linalg.norm(ends[4e-3] - ends[2e-3])
    err_fine = np.linalg.norm(ends[2e-3] - ends[1e-3])
    assert err_coarse / err_fine >= 12.0


def test_phase_differences_example():
    pd = phase_differences(np.array([0.3, 0.1, 0.1]))
    assert np.allclose(pd, [-0.2, -0.2, 0.0])
    assert pd_pairs(3) == ((1, 0), (2, 0), (2, 1))


def test_phase_differences_shift_invariant():
    theta = np.array([0.4, -0.1, 0.7, 0.0])
    assert np.allclose(phase_differences(theta), phase_differences(theta + 3.2))


def test_phase_differences_zero():
    assert np.allclose(phase_differences(np.zeros(4)), np.zeros(6))


def test_phases_from_pd_round_trip():
    rng = np.random.default_rng(4)
    theta = rng.uniform(-0.5, 0.5, 5)
    pd = phase_differences(theta)
    lifted = phases_from_pd(pd)
    assert lifted.shape == (5,)
    assert lifted[0] == 0.0
    assert np.allclose(phase_differences(lifted), pd, atol=1e-12)


def test_phases_from_pd_rejects_inconsistent():
    bad = np.array([0.1, 0.1, 0.5])  # pd_32 must equal pd_31 - pd_21 = 0
    with pytest.raises(ValueError):
        phases_from_pd(bad)


@pytest.mark.parametrize("pd", [[math.nan], [1.0, math.inf, 2.0]])
def test_phases_from_pd_rejects_non_finite_entries(pd):
    # neither fails the 1e-9 consistency test: a NaN difference compares false, and
    # the lift takes its inf as theta_3, so theta_3 - theta_2 is inf too
    with pytest.raises(ValueError, match="pd must be finite, got"):
        phases_from_pd(np.array(pd))


@pytest.mark.parametrize("size", [2, 4, 5, 7])
def test_phases_from_pd_rejects_a_size_that_is_no_pair_count(size):
    with pytest.raises(ValueError, match=f"PD vector has {size} entries"):
        phases_from_pd(np.zeros(size))


def test_region_membership():
    # the PD hypercube of half-width r is closed: a spread of r stays inside, r + 1e-9
    # leaves it; r = pi/2 is no half-width
    r, times = 0.5, np.array([0.0, 1.0])
    assert invariance_monitor(PhaseTrajectory(times, np.zeros((2, 3))), 0.0) is None
    assert invariance_monitor(PhaseTrajectory(times, np.array([[0.0, r], [r, 0.0]])), r) is None
    outside = PhaseTrajectory(times, np.array([[0.0, r], [0.0, r + 1e-9]]))
    assert invariance_monitor(outside, r) == 1.0
    with pytest.raises(ValueError):
        invariance_monitor(PhaseTrajectory(times, np.zeros((2, 3))), math.pi / 2)


def test_invariance_monitor_invariant_run():
    traj = simulate(np.zeros(2), ConstantSignal([1.0, 1.0]), TWO_NODE, 2.0, 1e-3)
    assert invariance_monitor(traj, 0.1) is None


def test_invariance_monitor_linear_exit_time():
    traj = simulate(np.zeros(2), ConstantSignal([2.0, 1.0]),
                    ConstantSignal(np.zeros((2, 2))), 2.0, 1e-3)
    exit_time = invariance_monitor(traj, math.pi / 6)
    assert exit_time is not None
    assert math.pi / 6 < exit_time <= math.pi / 6 + 1e-3 + 1e-12


def test_pd_divergence_identical_and_shifted():
    traj = simulate(np.array([0.1, -0.1]), ConstantSignal([1.2, 1.0]), TWO_NODE, 1.0, 1e-3)
    same = pd_divergence(traj, traj)
    assert np.all(same == 0.0)
    shifted = simulate(np.array([0.1, -0.1]) + 0.4, ConstantSignal([1.2, 1.0]),
                       TWO_NODE, 1.0, 1e-3)
    div = pd_divergence(traj, shifted)
    assert div.max() < 1e-10
    assert div[-1] < 1e-10


def test_pd_divergence_rejects_grid_mismatch():
    a = simulate(np.zeros(2), ConstantSignal([1.0, 1.0]), TWO_NODE, 1.0, 1e-3)
    b = simulate(np.zeros(2), ConstantSignal([1.0, 1.0]), TWO_NODE, 1.0, 2e-3)
    with pytest.raises(ValueError):
        pd_divergence(a, b)


def test_hajnal_diameter():
    assert hajnal_diameter(np.array([1.0, 2.0, 3.0])) == 2.0
    assert isinstance(hajnal_diameter(np.array([1.0, 2.0, 3.0])), float)
    assert hajnal_diameter(np.full(5, 0.3)) == 0.0
    # a stack reduces its last axis, one diameter per vector
    stack = hajnal_diameter(np.array([[[1.0, 2.0, 3.0], [0.0, 0.5, 0.0]]]))
    assert stack.shape == (1, 2) and stack.tolist() == [[2.0, 0.5]]


def test_monitors_read_a_batch_one_run_at_a_time():
    omega = ConstantSignal([0.0, 0.5])
    coupling = ConstantSignal(0.1 * (np.ones((2, 2)) - np.eye(2)))
    starts = np.array([[0.0, 0.0], [0.0, 0.5]])
    batch = simulate(starts, omega, coupling, 4.0, 0.01)
    singles = [simulate(th, omega, coupling, 4.0, 0.01) for th in starts]
    exits = [invariance_monitor(run, 1.0) for run in singles]
    assert exits == [pytest.approx(2.49), pytest.approx(1.38)]
    assert invariance_monitor(batch, 1.0) == exits
    assert invariance_monitor(batch, 1.5) == [None, pytest.approx(2.98)]
    # two batches pair their runs row by row: one divergence row per pair
    swapped = simulate(starts[::-1], omega, coupling, 4.0, 0.01)
    div = pd_divergence(batch, swapped)
    assert div.shape == (2, len(batch.times))
    for row in div:
        assert np.abs(row - pd_divergence(*singles)).max() <= 1e-12


@pytest.mark.parametrize("r", [True, False, np.True_])
def test_check_r_rejects_a_bool(r):
    # a bool used to pass as 1 or 0
    with pytest.raises(ValueError, match=r"r must lie in \[0, pi/2\), got (True|False)"):
        check_r(r)
