"""The in-place RK4 step against the allocating step it replaced (rk4_step_oracle),
bit for bit, and what the step may and may not write."""

import math

import numpy as np
import pytest

import rk4_step_oracle as oracle
from tvkuramoto import dynamics
from tvkuramoto.dynamics import kuramoto_rhs, simulate
from tvkuramoto.linalg import state_transition
from tvkuramoto.scenarios import _jacobian, _relax, linear_correction, phase_locked_equilibrium
from tvkuramoto.signals import ConstantSignal, SinusoidSignal, SwitchingSignal, TableSignal

KINDS = ("switching", "periodic-table", "short-period-table", "aperiodic-table", "constant",
         "sinusoid")
T_END, DT = 1.0, 5e-3  # 200 steps: blocks of 64 start at 0, 64, 128 and 192


def signal(kind, base, phase):
    """A signal of this kind around base; every breakpoint lies on a multiple of DT."""
    if kind == "switching":
        return SwitchingSignal([0.3, 0.2, 0.15], [base, -0.5 * base, 0.8 * base])
    if kind == "periodic-table":
        return TableSignal([0.0, 0.2, 0.55], [base, 0.3 * base, -base], period=0.7)
    if kind == "short-period-table":  # 7 steps a period: 28 periods, a switch at block edge 128
        return TableSignal([0.0, 0.01, 0.025], [base, -0.6 * base, 0.9 * base], period=0.035)
    if kind == "aperiodic-table":
        return TableSignal([0.0, 0.45, 0.8], [base, 1.2 * base, -0.4 * base])
    if kind == "constant":
        return ConstantSignal(base)
    return SinusoidSignal(base, 0.4 * base, phase, trig="cos", time_scale=0.3)


def network(kind, m, seed, runs=None):
    """(omega, coupling) of one kind on a seeded signed network; runs gives per-run signals."""
    rng = np.random.default_rng(seed)
    lead = () if runs is None else (runs,)
    a = rng.uniform(-0.5, 1.5, lead + (m, m))
    a[..., np.arange(m), np.arange(m)] = 0.0
    w = rng.uniform(0.5, 1.5, lead + (m,))
    return (signal(kind, w, rng.uniform(-math.pi, math.pi, w.shape)),
            signal(kind, a, rng.uniform(-math.pi, math.pi, a.shape)))


def starts(m, seed, runs=None):
    return np.random.default_rng([seed, 7]).uniform(-1.0, 1.0, (m,) if runs is None else (runs, m))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [2, 5, 20])
@pytest.mark.parametrize("layout", ["single", "shared-1", "shared-3", "per-run-3"])
def test_simulate_equals_the_allocating_step_bit_for_bit(kind, m, layout):
    runs = None if layout == "single" else int(layout[-1])
    theta0 = starts(m, seed=m, runs=runs)
    omega, coupling = network(kind, m, seed=m, runs=runs if layout.startswith("per-run") else None)
    phases = simulate(theta0, omega, coupling, T_END, DT).phases
    assert np.array_equal(phases, oracle.simulate(theta0, omega, coupling, T_END, DT))


def test_shared_batch_of_many_nodes_stays_within_the_reference_tolerance():
    # the stacked (2R, m) product may round its rows apart from two (R, m) products
    # (OpenBLAS 0.3.31 does at m = 33 and R = 3); the runs stay within 1e-12
    theta0 = starts(33, seed=1, runs=3)
    omega, coupling = network("switching", 33, seed=1)
    phases = simulate(theta0, omega, coupling, T_END, DT).phases
    assert np.abs(phases - oracle.simulate(theta0, omega, coupling, T_END, DT)).max() <= 1e-12


def test_relaxation_window_equals_the_allocating_step_bit_for_bit():
    # Newton takes over from the RK4 state at 2 s, after two one-second windows
    rng = np.random.default_rng([6, 93])
    a = rng.uniform(-1.0, 1.5, (6, 6))
    np.fill_diagonal(a, 0.0)
    w, theta0 = rng.uniform(-0.6, 0.6, 6), rng.uniform(-0.5, 0.5, 6)
    handover, state, _ = _relax(w, a, math.pi / 3, theta0, 1e-3, 500.0, 1e-10)
    assert handover == 2.0
    ref = oracle.rk4(lambda y: oracle.kuramoto_rhs(y, w, a), theta0, 0.0, 1e-3, 2000)
    assert np.array_equal(state, ref)


@pytest.mark.parametrize("omega_kind", ["sinusoid", "scalar-constant", "switching"])
def test_linear_correction_rk4_path_equals_the_allocating_step_bit_for_bit(omega_kind):
    # a directed coupling makes the lock's Jacobian Y asymmetric: no closed form
    rng = np.random.default_rng(11)
    m = 5
    a = rng.uniform(0.5, 1.5, (m, m))
    np.fill_diagonal(a, 0.0)
    lock = phase_locked_equilibrium(rng.uniform(0.9, 1.1, m), a, math.pi / 3, np.zeros(m))
    y, sin_lock = _jacobian(lock.coupling_bar, lock.rep_phases)
    assert not np.array_equal(y, y.T)
    omega_pert = {"sinusoid": SinusoidSignal(np.zeros(m), np.ones(m), rng.uniform(-1, 1, m)),
                  "scalar-constant": ConstantSignal(0.1),
                  "switching": SwitchingSignal([0.35, 0.4], [np.ones(m), -np.ones(m)])}[omega_kind]
    coupling_pert = SinusoidSignal(np.zeros((m, m)), a, rng.uniform(-1, 1, (m, m)), trig="cos")
    times, phi = linear_correction(lock, omega_pert, coupling_pert, 1.5, DT)
    ref = np.empty_like(phi)
    oracle.rk4(lambda p, w, b: w + (b * sin_lock).sum(axis=1) + y @ p, np.zeros(m), 0.0, DT,
               len(times) - 1, (omega_pert, coupling_pert), out=ref)
    assert np.array_equal(phi, ref)


@pytest.mark.parametrize("kind", ["switching", "sinusoid"])
def test_state_transition_rk4_path_equals_the_allocating_step_bit_for_bit(kind):
    rng = np.random.default_rng(6)
    mats = [rng.uniform(-1.0, 1.0, (4, 4)) for _ in range(2)]
    gen = (SwitchingSignal([0.5, 0.25], mats) if kind == "switching"
           else SinusoidSignal(mats[0], mats[1], rng.uniform(-1, 1, (4, 4))))
    u = state_transition(gen, 0.25, 2.0, DT)
    ref = oracle.rk4(lambda v, g: -g @ v, np.eye(4), 0.25, DT, 350, (gen,))
    assert np.array_equal(u, ref)


def test_rk4_writes_neither_its_start_nor_a_state_it_returned():
    omega, coupling = network("sinusoid", 4, seed=3, runs=2)
    rhs = dynamics._kuramoto((2, 4), True)
    y0 = starts(4, seed=3, runs=2)
    kept = y0.copy()
    x = dynamics._rk4(rhs, y0, 0.0, DT, 70, (omega, coupling))
    assert np.array_equal(y0, kept) and not np.shares_memory(x, y0)
    x_kept = x.copy()
    # the relaxation feeds a returned state back in, through the same rhs and its buffers
    out = np.empty((71, 2, 4))
    x2 = dynamics._rk4(rhs, x, 70 * DT, DT, 70, (omega, coupling), out=out)
    assert np.array_equal(x, x_kept) and not np.shares_memory(x2, x)
    assert np.array_equal(out[0], x) and np.array_equal(out[-1], x2)
    assert not np.shares_memory(dynamics._rk4(rhs, x, 0.0, DT, 0, (omega, coupling)), x)


def test_an_empty_batch_integrates_to_no_phases():
    omega, coupling = network("constant", 3, seed=5)
    assert simulate(np.empty((0, 3)), omega, coupling, 0.1, DT).phases.shape == (0, 21, 3)


def test_kuramoto_rhs_returns_a_fresh_array():
    omega, coupling = network("constant", 3, seed=4)
    theta = starts(3, seed=4, runs=2)
    first = kuramoto_rhs(theta, 0.0, omega, coupling)
    kept = first.copy()
    second = kuramoto_rhs(theta + 1.0, 0.0, omega, coupling)
    assert np.array_equal(first, kept) and not np.array_equal(first, second)
    assert not np.shares_memory(first, second) and not np.shares_memory(first, theta)
