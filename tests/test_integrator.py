"""The batched RK4 integrator against the per-run reference loops in rk4_oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rk4_oracle
from tvkuramoto.dynamics import simulate
from tvkuramoto.linalg import state_transition
from tvkuramoto.scenarios import linear_correction, phase_locked_equilibrium
from tvkuramoto.signals import ConstantSignal, SinusoidSignal, SwitchingSignal, TableSignal

KINDS = ("constant", "switching", "table", "sinusoid", "mixed")
T_END, DT = 1.0, 5e-3


def network(kind, w, a, phase):
    """(omega, coupling) of one signal kind built on base frequencies w and couplings a.

    w is (m,) and a is (m, m); phase is an (m, m) array of modulation phases.
    Every breakpoint lies on a multiple of DT.
    """
    if kind == "constant":
        return ConstantSignal(w), ConstantSignal(a)
    if kind == "switching":
        return (SwitchingSignal([0.25, 0.35], [w, 0.8 * w]),
                SwitchingSignal([0.3, 0.2, 0.15], [a, -0.5 * a, a.T]))
    if kind == "table":
        return (TableSignal([0.0, 0.45], [w, 1.2 * w]),
                TableSignal([0.0, 0.2, 0.55], [a, 0.3 * a, a.T], period=0.7))
    sin_w = SinusoidSignal(w, 0.3, np.diagonal(phase), trig="sin", time_scale=0.2)
    if kind == "sinusoid":
        return sin_w, SinusoidSignal(a, 0.4 * a, phase, trig="cos", time_scale=0.3)
    return sin_w, SwitchingSignal([0.3, 0.2, 0.15], [a, -0.5 * a, a.T])  # mixed


def draw_arrays(m, seed, num):
    """Seeded frequencies w, signed couplings a, modulation phases and num starts."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 1.5, (m, m))
    np.fill_diagonal(a, 0.0)
    return (rng.uniform(0.5, 1.5, m), a, rng.uniform(-math.pi, math.pi, (m, m)),
            rng.uniform(-1.0, 1.0, (num, m)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [2, 5, 20])
def test_batched_and_per_run_match_the_reference_loop(kind, m):
    w, a, phase, starts = draw_arrays(m, seed=m, num=10)
    omega, coupling = network(kind, w, a, phase)
    reference = [rk4_oracle.simulate(th, omega, coupling, T_END, DT) for th in starts]
    for num in (1, 3, 10):
        batch = simulate(starts[:num], omega, coupling, T_END, DT)
        assert batch.phases.shape == (num, len(batch.times), m)
        for i in range(num):
            assert batch.phases[i].flags.c_contiguous
            assert np.abs(batch.phases[i] - reference[i]).max() <= 1e-12
    for th, ref in zip(starts[:3], reference):
        single = simulate(th, omega, coupling, T_END, DT)
        assert single.phases.shape == ref.shape
        assert np.abs(single.phases - ref).max() <= 1e-12


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_blow_up_in_one_row_names_the_time():
    # the coupling jumps to 1e308 at t = 0.5: the row with equal phases feels
    # nothing, the row with a phase gap overflows in its first step after it
    huge = np.array([[0.0, 1e308], [1e308, 0.0]])
    coupling = TableSignal([0.0, 0.5], [np.zeros((2, 2)), huge])
    omega = ConstantSignal([1.0, 1.0])
    starts = np.array([[0.2, 0.2], [0.0, 1.0], [0.3, 0.3]])
    with pytest.raises(RuntimeError, match="blew up") as batch_err:
        simulate(starts, omega, coupling, 1.0, 1e-2)
    with pytest.raises(RuntimeError) as ref_err:
        rk4_oracle.simulate(starts[1], omega, coupling, 1.0, 1e-2)
    assert str(batch_err.value) == str(ref_err.value)
    blow_up = float(re.search(r"t = ([0-9.]+)", str(batch_err.value)).group(1))
    assert 0.5 < blow_up <= 0.52
    assert simulate(starts[[0, 2]], omega, coupling, 1.0, 1e-2).phases.shape == (2, 101, 2)


@pytest.mark.parametrize("m, seed", [(2, 0), (5, 1), (8, 2)])
def test_lock_search_matches_the_reference_loop(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 1.5, (m, m))
    a = np.triu(a, 1)
    a = a + a.T
    w = rng.uniform(0.9, 1.1, m)
    theta0 = rng.uniform(-0.2, 0.2, m)
    lock = phase_locked_equilibrium(w, a, math.pi / 3, theta0)
    lock_time, th, k1 = rk4_oracle.lock_search(w, a, math.pi / 3, theta0)
    assert lock.lock_time == lock_time
    assert np.abs(lock.rep_phases - (th - th[0])).max() <= 1e-12
    assert abs(lock.collective_rate - float(k1.mean())) <= 1e-12


def _lock(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 1.5, (m, m))
    a = np.triu(a, 1)
    a = a + a.T
    lock = phase_locked_equilibrium(rng.uniform(0.9, 1.1, m), a, math.pi / 3, np.zeros(m))
    return lock, rng


@pytest.mark.parametrize("omega_kind", ["sinusoid", "constant"])
def test_linear_correction_matches_the_reference_loop(omega_kind):
    lock, rng = _lock(6, 3)
    m = 6
    if omega_kind == "sinusoid":
        omega_pert = SinusoidSignal(np.zeros(m), np.ones(m), rng.uniform(-0.5, 0.5, m), trig="sin")
    else:
        omega_pert = ConstantSignal(0.1)
    coupling_pert = SinusoidSignal(np.zeros((m, m)), lock.coupling_bar,
                                   rng.uniform(-0.5, 0.5, (m, m)), trig="cos")
    times, phi = linear_correction(lock, omega_pert, coupling_pert, 3.0, 1e-3)
    ref = rk4_oracle.linear_correction(lock.rep_phases, lock.coupling_bar, omega_pert,
                                       coupling_pert, 3.0, 1e-3)
    assert phi.shape == ref.shape and times.shape == (ref.shape[0],)
    assert np.abs(phi - ref).max() <= 1e-12


def test_linear_correction_holds_each_switching_piece():
    # a piecewise-constant forcing is read once per piece, so the scheme stays
    # 4th order across switches; reading the next piece at the last stage of
    # a step that ends on a switch would make it first order
    lock, _ = _lock(4, 5)
    z = np.array([1.0, -1.0, 0.5, -0.5])
    omega_pert = SwitchingSignal([0.25, 0.25], [z, -z])
    zero = ConstantSignal(np.zeros((4, 4)))
    ends = [linear_correction(lock, omega_pert, zero, 3.0, dt)[1][-1]
            for dt in (0.05, 0.025, 0.0125)]
    ratio = np.linalg.norm(ends[0] - ends[1]) / np.linalg.norm(ends[1] - ends[2])
    assert ratio >= 12.0


@pytest.mark.parametrize("kind", ["switching", "sinusoid", "constant"])
def test_state_transition_matches_the_reference_loop(kind):
    rng = np.random.default_rng(4)
    m = 5
    laps = []
    for _ in range(3):
        a = np.triu(rng.uniform(0.2, 1.5, (m, m)), 1)
        laps.append(np.diag((a + a.T).sum(axis=1)) - (a + a.T))
    gen = {"switching": SwitchingSignal([0.5, 0.25, 0.25], laps),
           "sinusoid": SinusoidSignal(laps[0], 0.5 * laps[1], np.zeros((m, m))),
           "constant": ConstantSignal(laps[2])}[kind]
    for s, t in ((0.0, 2.0), (1.25, 3.0), (3.0, 3.0)):
        u = state_transition(gen, s, t, 5e-3).matrix
        assert np.abs(u - rk4_oracle.state_transition(gen, s, t, 5e-3)).max() <= 1e-12


@st.composite
def batched_networks(draw):
    """A seeded network of one signal kind, a batch of starts and a node relabelling."""
    kind = draw(st.sampled_from(KINDS))
    m = draw(st.integers(2, 6))
    num = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    perm = np.array(draw(st.permutations(range(m))))
    return (kind, *draw_arrays(m, seed, num), perm)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(batched_networks())
def test_batched_runs_equal_per_run_and_commute_with_relabelling(case):
    kind, w, a, phase, starts, perm = case
    omega, coupling = network(kind, w, a, phase)
    batch = simulate(starts, omega, coupling, 0.5, DT).phases
    for i, th in enumerate(starts):
        assert np.abs(batch[i] - simulate(th, omega, coupling, 0.5, DT).phases).max() <= 1e-12
    omega_p, coupling_p = network(kind, w[perm], a[np.ix_(perm, perm)], phase[np.ix_(perm, perm)])
    relabelled = simulate(starts[:, perm], omega_p, coupling_p, 0.5, DT).phases
    assert np.abs(relabelled - batch[..., perm]).max() <= 1e-12
