import math

import numpy as np
import pytest

from tvkuramoto.dynamics import (
    hajnal_diameter,
    invariance_monitor,
    kuramoto_rhs,
    pd_divergence,
    pd_pairs,
    phase_differences,
    phases_from_pd,
    region_membership,
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


def test_simulate_reports_blow_up():
    with pytest.raises(RuntimeError, match="blew up"):
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
    lifted = phases_from_pd(pd, 5)
    assert lifted[0] == 0.0
    assert np.allclose(phase_differences(lifted), pd, atol=1e-12)


def test_phases_from_pd_rejects_inconsistent():
    bad = np.array([0.1, 0.1, 0.5])  # pd_32 must equal pd_31 - pd_21 = 0
    with pytest.raises(ValueError):
        phases_from_pd(bad, 3)


def test_region_membership():
    assert region_membership(np.zeros(3), 0.0)
    r = 0.5
    assert not region_membership(np.array([r + 1e-9]), r)
    assert region_membership(np.array([r]), r)
    with pytest.raises(ValueError):
        region_membership(np.zeros(3), math.pi / 2)


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
    assert np.all(same.values == 0.0)
    shifted = simulate(np.array([0.1, -0.1]) + 0.4, ConstantSignal([1.2, 1.0]),
                       TWO_NODE, 1.0, 1e-3)
    div = pd_divergence(traj, shifted)
    assert div.values.max() < 1e-10
    assert div.final < 1e-10


def test_pd_divergence_rejects_grid_mismatch():
    a = simulate(np.zeros(2), ConstantSignal([1.0, 1.0]), TWO_NODE, 1.0, 1e-3)
    b = simulate(np.zeros(2), ConstantSignal([1.0, 1.0]), TWO_NODE, 1.0, 2e-3)
    with pytest.raises(ValueError):
        pd_divergence(a, b)


def test_hajnal_diameter():
    assert hajnal_diameter(np.array([1.0, 2.0, 3.0])) == 2.0
    assert hajnal_diameter(np.full(5, 0.3)) == 0.0
