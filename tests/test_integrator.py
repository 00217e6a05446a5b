"""The batched RK4 integrator against the per-run reference loops in rk4_oracle,
and the exact lock, correction and transition paths against independent oracles."""

import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.integrate import solve_ivp
from scipy.linalg import expm

import rk4_oracle
import rk4_step_oracle
from tvkuramoto.cli import bundled_config_path
from tvkuramoto import dynamics, scenarios
from tvkuramoto.dynamics import simulate
from tvkuramoto.linalg import state_transition
from tvkuramoto.scenarios import (NoLockError, _jacobian, _newton_lock, _relax,
                                  er_random_network, linear_correction,
                                  phase_locked_equilibrium)
from tvkuramoto.signals import (ConstantSignal, SinusoidSignal, SwitchingSignal, TableSignal,
                                signal_from_json)

KINDS = ("constant", "switching", "table", "sinusoid", "mixed")
T_END, DT = 1.0, 5e-3


def network(kind, w, a, phase):
    """(omega, coupling) of one signal kind built on base frequencies w and couplings a.

    w is (m,) and a is (m, m), or (R, m) and (R, m, m) for one network per
    run; phase is an (m, m) array of modulation phases. Every breakpoint lies
    on a multiple of DT.
    """
    a_t = np.swapaxes(a, -1, -2)
    if kind == "constant":
        return ConstantSignal(w), ConstantSignal(a)
    if kind == "switching":
        return (SwitchingSignal([0.25, 0.35], [w, 0.8 * w]),
                SwitchingSignal([0.3, 0.2, 0.15], [a, -0.5 * a, a_t]))
    if kind == "table":
        return (TableSignal([0.0, 0.45], [w, 1.2 * w]),
                TableSignal([0.0, 0.2, 0.55], [a, 0.3 * a, a_t], period=0.7))
    sin_w = SinusoidSignal(w, 0.3, np.diagonal(phase), trig="sin", time_scale=0.2)
    if kind == "sinusoid":
        return sin_w, SinusoidSignal(a, 0.4 * a, phase, trig="cos", time_scale=0.3)
    return sin_w, SwitchingSignal([0.3, 0.2, 0.15], [a, -0.5 * a, a_t])  # mixed


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


B = dynamics._BLOCK


def drifting_to_overflow(blow_step):
    """(omega, coupling, dt) of an uncoupled pair whose first phase is finite after
    blow_step steps of dt = 1 and overflows in the next one, at t = blow_step + 1:
    a blow-up that no breakpoint starts, so it can fall anywhere in a block."""
    w = sys.float_info.max / (blow_step + 0.5)
    return ConstantSignal([w, w / 3.0]), ConstantSignal(np.zeros((2, 2))), 1.0


def reference_blow_up(omega, coupling, t_end, dt):
    with pytest.raises(RuntimeError, match="blew up") as err, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rk4_oracle.simulate(np.zeros(2), omega, coupling, t_end, dt)
    return str(err.value)


def raised(run):
    """The RuntimeError run() raises, and every warning it surfaced."""
    with pytest.raises(RuntimeError) as err, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    return str(err.value), [str(w.message) for w in caught]


@pytest.mark.parametrize("blow_step", [B, 2 * B - 1, 70],
                         ids=["first-of-block", "last-of-block", "mid-block"])
def test_blow_up_at_block_edges_names_the_reference_time(blow_step):
    omega, coupling, dt = drifting_to_overflow(blow_step)
    expected = reference_blow_up(omega, coupling, 3.0 * B, dt)
    assert expected == f"state blew up at t = {blow_step + 1:.6f} s"
    # a run past the blow-up surfaces what the run that ends at it does: no later step
    run = lambda t_end: raised(lambda: simulate(np.zeros(2), omega, coupling, t_end, dt))
    message, caught = run(3.0 * B)
    assert message == expected
    assert run(blow_step + 1.0) == (message, caught)


@pytest.mark.parametrize("blow_step", [B, 2 * B - 1, 70],
                         ids=["first-of-block", "last-of-block", "mid-block"])
def test_blow_up_without_out_names_the_reference_time(blow_step):
    # as state_transition runs it: no out, only the last state returned
    omega, coupling, dt = drifting_to_overflow(blow_step)
    expected = reference_blow_up(omega, coupling, 3.0 * B, dt)
    run = lambda nsteps: raised(lambda: dynamics._rk4(
        dynamics._rhs, np.zeros(2), 0.0, dt, nsteps, (omega, coupling)))
    message, caught = run(3 * B)
    assert message == expected
    assert run(blow_step + 1) == (message, caught)


def underflowing_from_70(y, out=None):
    """y' = 1, with an underflow in every stage from y = 70 on: an error that leaves
    the state finite. Writes into out when given, as the package's rhs do."""
    tiny = np.multiply(1e-300, 1e-20 * (y >= 70.0))
    return 1.0 + tiny if out is None else np.add(1.0, tiny, out)


@pytest.mark.parametrize("state", ["warn", "raise"])
def test_an_error_that_leaves_the_state_finite_surfaces_as_a_check_per_step_would(state):
    # only the caller's numpy error state sees such an error: it must surface in the
    # step that makes it, as often as in the reference's steps, y' = 1 from y = 0
    def run(integrate):
        out = np.full((3 * B + 1, 1), np.nan)
        with warnings.catch_warnings(record=True) as caught, np.errstate(under=state):
            warnings.simplefilter("always")
            try:
                integrate(underflowing_from_70, np.zeros(1), 0.0, 1.0, 3 * B, out=out)
                error = None
            except FloatingPointError as exc:
                error = str(exc)
        return error, [str(w.message) for w in caught], out

    error, caught, out = run(dynamics._rk4)
    ref_error, ref_caught, ref_out = run(rk4_step_oracle.rk4)
    assert (error, caught) == (ref_error, ref_caught)
    assert (error is None) == (state == "warn") and len(caught) == (489 if error is None else 0)
    last = 3 * B + 1 if error is None else 70  # the rows before the raising step
    assert np.array_equal(out[:last], ref_out[:last]) and out[last - 1, 0] == last - 1


def assert_relaxed_lock(lock, w, a, r, theta0):
    """The lock is the reference loop's own lock at a spread of 1e-10, polished."""
    _, th, k1 = rk4_oracle.lock_search(w, a, r, theta0)
    assert np.abs(lock.rep_phases - (th - th[0])).max() <= 1e-9
    assert abs(lock.collective_rate - float(k1.mean())) <= 1e-9


@pytest.mark.parametrize("m, seed", [(2, 0), (5, 1), (8, 2)])
def test_lock_search_matches_the_reference_loop(m, seed):
    # a symmetric positive coupling locks by Newton from theta0 before any
    # RK4 step, on the lock the reference loop relaxes to
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 1.5, (m, m))
    a = np.triu(a, 1)
    a = a + a.T
    w = rng.uniform(0.9, 1.1, m)
    theta0 = rng.uniform(-0.2, 0.2, m)
    r = math.pi / 3
    lock = phase_locked_equilibrium(w, a, r, theta0)
    handover, state, _ = _relax(w, a, r, theta0, 1e-3, 500.0, 1e-10)
    assert lock.lock_time == 0.0 and handover == 0.0 and np.array_equal(state, theta0)
    assert_relaxed_lock(lock, w, a, r, theta0)
    rate = rk4_oracle.kuramoto_rhs(lock.rep_phases, w, a)
    assert rate.max() - rate.min() <= 1e-13
    assert lock.residual <= 1e-13 and 1 <= lock.newton_iterations <= 5


@pytest.mark.parametrize("seed", range(16))
def test_newton_first_lock_on_the_perturb_graphs(seed):
    # the m = 20 graph and static frequencies perturbation_experiment draws
    mask = er_random_network(20, 0.2, seed)
    w = np.random.default_rng([seed, 90001]).uniform(0.9, 1.1, 20)
    lock = phase_locked_equilibrium(w, mask, math.pi / 3, np.zeros(20))
    assert lock.lock_time == 0.0 and 1 <= lock.newton_iterations <= 5
    assert_relaxed_lock(lock, w, mask, math.pi / 3, np.zeros(20))


def test_newton_first_lock_of_the_averaged_fast_schedule():
    cfg = json.loads(bundled_config_path("fast").read_text())
    omega, coupling = (signal_from_json(cfg["signals"][k]) for k in ("omega", "coupling"))
    w = np.asarray(omega.window_average(0.0, omega.period))
    a = np.asarray(coupling.window_average(0.0, coupling.period))
    lock = phase_locked_equilibrium(w, a, math.pi / 3, np.zeros(5))
    assert lock.lock_time == 0.0 and 1 <= lock.newton_iterations <= 5
    assert_relaxed_lock(lock, w, a, math.pi / 3, np.zeros(5))


def signed_network(m, seed):
    """Seeded directed signed coupling, frequencies and start of a lock test."""
    rng = np.random.default_rng([m, seed])
    a = rng.uniform(-1.0, 1.5, (m, m))
    np.fill_diagonal(a, 0.0)
    return rng.uniform(-0.6, 0.6, m), a, rng.uniform(-0.5, 0.5, m)


def test_lock_relaxes_where_newton_from_theta0_finds_an_unstable_lock():
    # Newton from theta0 lands on a lock with a growing mode, so RK4 relaxes
    # and Newton takes over from its state after one second
    w, a, theta0 = signed_network(6, 34)
    r = math.pi / 3
    unstable, rate, _ = _newton_lock(w, a, theta0, 1e-10)
    assert rate.max() - rate.min() < 1e-10
    assert np.linalg.eigvals(_jacobian(a, unstable)[0]).real.max() > 0.1
    handover, state, _ = _relax(w, a, r, theta0, 1e-3, 500.0, 1e-10)
    assert handover == 1.0
    ref = rk4_oracle.simulate(theta0, ConstantSignal(w), ConstantSignal(a), handover, 1e-3)
    assert np.abs(state - ref[-1]).max() <= 1e-12
    lock = phase_locked_equilibrium(w, a, r, theta0)
    assert lock.lock_time == handover and lock.residual <= 1e-13
    assert_relaxed_lock(lock, w, a, r, theta0)


@pytest.mark.parametrize("t_max", [2.0005, 2.5, 500.0])
def test_lock_relaxes_to_a_later_whole_second(t_max):
    # Newton from the states at t = 0 and 1 s does not take over, from the state at
    # 2 s it does, on the lock the reference loop reaches at t = 29.92 s; a horizon
    # that is no whole number of seconds still tries Newton at each whole second
    w, a, theta0 = signed_network(6, 93)
    r = math.pi / 3
    handover, state, _ = _relax(w, a, r, theta0, 1e-3, t_max, 1e-10)
    assert handover == 2.0
    ref = rk4_oracle.simulate(theta0, ConstantSignal(w), ConstantSignal(a), handover, 1e-3)
    assert np.abs(state - ref[-1]).max() <= 1e-12
    lock = phase_locked_equilibrium(w, a, r, theta0, t_max=t_max)
    assert lock.lock_time == handover and lock.residual <= 1e-13
    if t_max == 500.0:
        assert_relaxed_lock(lock, w, a, r, theta0)


def test_no_newton_attempt_at_the_horizon():
    # the lock above is handed over at 2 s, so a 2 s horizon, whose last state
    # Newton never sees, finds none
    w, a, theta0 = signed_network(6, 93)
    with pytest.raises(NoLockError) as err:
        phase_locked_equilibrium(w, a, math.pi / 3, theta0, t_max=2.0)
    rate = rk4_oracle.kuramoto_rhs(
        rk4_oracle.simulate(theta0, ConstantSignal(w), ConstantSignal(a), 2.0, 1e-3)[-1], w, a)
    assert f"{rate.max() - rate.min():.3g}" == "0.231"
    assert str(err.value) == "no phase lock within 2.0 s (derivative spread 0.231 at the horizon)"


# an unlockable pair: |omega_1 - omega_2| = 0.2 exceeds a_12 + a_21 = 0.1, and its
# phase spread grows monotonically, to 0.443 by 2.5 s
WEAK_W, WEAK_A = np.array([1.2, 1.0]), np.array([[0.0, 0.05], [0.05, 0.0]])


def weak_phases():
    """The reference loop's phases of the weak pair from rest, per step of 1 ms to 2.5 s."""
    return rk4_oracle.simulate(np.zeros(2), ConstantSignal(WEAK_W), ConstantSignal(WEAK_A),
                               2.5, 1e-3)


def half_width_first_left_at(phases, step):
    """A half-width between the phase spreads at step - 1 and step, so that the
    state at step is the first outside the region."""
    spread = phases.max(axis=1) - phases.min(axis=1)
    return 0.5 * float(spread[step - 1] + spread[step])


@pytest.mark.parametrize("step", [1000, 2000, 2201],
                         ids=["window-start", "last-whole-window-start", "partial-window"])
def test_relaxation_leaves_the_region_at_the_reference_time(step):
    # the horizon of 2.5 s ends in a partial window
    r = half_width_first_left_at(weak_phases(), step)
    with pytest.raises(RuntimeError) as ref:
        rk4_oracle.lock_search(WEAK_W, WEAK_A, r, np.zeros(2), t_max=2.5)
    assert str(ref.value) == f"left the PD region at t = {step / 1000:.3f} s"
    with pytest.raises(NoLockError) as err:
        phase_locked_equilibrium(WEAK_W, WEAK_A, r, np.zeros(2), t_max=2.5)
    assert str(err.value) == (f"phases left the PD region (half-width {r:.4g}) "
                              f"at t = {step / 1000:.3f} s")


@pytest.mark.parametrize("at_horizon", [False, True])
def test_relaxation_without_a_lock_tries_newton_at_each_whole_second(at_horizon, monkeypatch):
    # over 2.5 s Newton starts from the states at 0, 1 and 2 s only; with
    # at_horizon the state at 2.5 s alone is outside the region, which is never checked
    phases = weak_phases()
    r = half_width_first_left_at(phases, 2500) if at_horizon else math.pi / 3
    assert rk4_oracle.lock_search(WEAK_W, WEAK_A, r, np.zeros(2), t_max=2.5) is None
    starts = []

    def recorded_newton(w, a, theta, tol):
        starts.append(theta)
        return _newton_lock(w, a, theta, tol)

    monkeypatch.setattr(scenarios, "_newton_lock", recorded_newton)
    with pytest.raises(NoLockError) as err:
        phase_locked_equilibrium(WEAK_W, WEAK_A, r, np.zeros(2), t_max=2.5)
    assert str(err.value) == "no phase lock within 2.5 s (derivative spread 0.157 at the horizon)"
    rate = rk4_oracle.kuramoto_rhs(phases[-1], WEAK_W, WEAK_A)
    assert f"{rate.max() - rate.min():.3g}" == "0.157"
    assert len(starts) == 3
    assert np.abs(np.array(starts) - phases[[0, 1000, 2000]]).max() <= 1e-12


def test_newton_first_returns_a_stable_lock_where_the_relaxation_leaves_the_region():
    # the RK4 relaxation from theta0 leaves the region at t = 2.223 s; Newton
    # from theta0 finds a stable lock inside it, which the lock finder returns
    w, a, theta0 = signed_network(6, 29)
    r = math.pi / 3
    with pytest.raises(RuntimeError, match="left the PD region at t = 2.223 s"):
        rk4_oracle.lock_search(w, a, r, theta0)
    lock = phase_locked_equilibrium(w, a, r, theta0)
    th = lock.rep_phases
    assert lock.lock_time == 0.0 and th.max() - th.min() <= r
    rate = rk4_oracle.kuramoto_rhs(th, w, a)
    assert rate.max() - rate.min() < 1e-10
    modes = np.sort(np.linalg.eigvals(_jacobian(a, th)[0]).real)
    assert abs(modes[-1]) <= 1e-12 and modes[-2] < -0.1
    phases = simulate(th, ConstantSignal(w), ConstantSignal(a), 20.0, 1e-3).phases
    assert np.abs(phases - phases[:, :1] - th).max() <= 1e-10


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


def expm_product(laps, durations, s, t):
    """Product of expm(-G_k tau_k) over the pieces of a periodic schedule met in [s, t]."""
    starts = np.concatenate([[0.0], np.cumsum(durations)])
    period = starts[-1]
    u = np.eye(laps[0].shape[0])
    tau = s
    while tau < t - 1e-12:
        cycle, rem = divmod(tau, period)
        k = int(np.searchsorted(starts, rem + 1e-12, side="right")) - 1
        end = min(cycle * period + starts[k + 1], t)
        u = expm(-laps[k] * (end - tau)) @ u
        tau = end
    return u


@pytest.mark.parametrize("kind", ["switching", "sinusoid", "constant"])
def test_state_transition_matches_the_reference_loop(kind):
    # piecewise-constant symmetric generators take the exact per-piece product
    # and are held to scipy's expm; a smooth generator is held to the RK4 loop
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
        u = state_transition(gen, s, t, 5e-3)
        if kind == "switching":
            ref = expm_product(laps, [0.5, 0.25, 0.25], s, t)
        elif kind == "constant":
            ref = expm(-laps[2] * (t - s))
        else:
            ref = rk4_oracle.state_transition(gen, s, t, 5e-3)
        assert np.abs(u - ref).max() <= 1e-12


def test_state_transition_of_an_asymmetric_schedule_steps_rk4():
    rng = np.random.default_rng(6)
    laps = [rng.uniform(-1.0, 1.0, (4, 4)) for _ in range(2)]
    gen = SwitchingSignal([0.5, 0.25], laps)
    u = state_transition(gen, 0.25, 2.0, 5e-3)
    assert np.abs(u - rk4_oracle.state_transition(gen, 0.25, 2.0, 5e-3)).max() <= 1e-12


@pytest.mark.parametrize("omega_kind, time_scale", [("sinusoid", 1.0), ("constant", 1.0),
                                                    ("sinusoid", 0.7)])
def test_linear_correction_matches_dop853(omega_kind, time_scale):
    lock, rng = _lock(6, 3)
    m = 6
    if omega_kind == "sinusoid":
        omega_pert = SinusoidSignal(np.zeros(m), np.ones(m), rng.uniform(-0.5, 0.5, m),
                                    trig="sin", time_scale=time_scale)
    else:
        omega_pert = ConstantSignal(0.1)
    coupling_pert = SinusoidSignal(0.2 * lock.coupling_bar, lock.coupling_bar,
                                   rng.uniform(-0.5, 0.5, (m, m)), trig="cos",
                                   time_scale=time_scale)
    times, phi = linear_correction(lock, omega_pert, coupling_pert, 20.0, 1e-3)
    rep = lock.rep_phases
    diff = rep[None, :] - rep[:, None]
    y = lock.coupling_bar * np.cos(diff)
    y -= np.diag(y.sum(axis=1))

    def rhs(t, p):
        z = omega_pert.evaluate(t) + (coupling_pert.evaluate(t) * np.sin(diff)).sum(axis=1)
        return z + y @ p

    sample = slice(None, None, 250)
    sol = solve_ivp(rhs, (0.0, 20.0), np.zeros(m), method="DOP853", rtol=1e-12, atol=1e-12,
                    t_eval=times[sample])
    assert np.abs(phi[sample] - sol.y.T).max() <= 1e-10


@st.composite
def batched_networks(draw):
    """A seeded network of one signal kind, a batch of starts and a node relabelling."""
    kind = draw(st.sampled_from(KINDS))
    m = draw(st.integers(2, 6))
    num = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    perm = np.array(draw(st.permutations(range(m))))
    return (kind, *draw_arrays(m, seed, num), perm)


@settings(max_examples=40)
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


@st.composite
def per_run_networks(draw):
    """Starts and one seeded network per run, all of one signal kind."""
    kind = draw(st.sampled_from(KINDS))
    m = draw(st.integers(2, 6))
    num = draw(st.integers(1, 4))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=num, max_size=num))
    runs = [draw_arrays(m, seed, 1) for seed in seeds]
    return (kind, np.stack([run[0] for run in runs]), np.stack([run[1] for run in runs]),
            runs[0][2], np.concatenate([run[3] for run in runs]))


@settings(max_examples=40)
@given(per_run_networks())
def test_per_run_signals_equal_their_single_runs_bit_for_bit(case):
    kind, w, a, phase, starts = case
    batch = simulate(starts, *network(kind, w, a, phase), 0.5, DT).phases
    for i, th in enumerate(starts):
        single = simulate(th, *network(kind, w[i], a[i], phase), 0.5, DT).phases
        assert np.array_equal(batch[i], single)


def test_per_run_signals_must_match_the_batch():
    w, a, phase, starts = draw_arrays(3, seed=1, num=2)
    omega, coupling = network("sinusoid", np.stack([w] * 3), np.stack([a] * 3), phase)
    mismatch = "does not match starts of shape (2, 3)"
    with pytest.raises(ValueError, match=re.escape(f"(3, 3, 3) {mismatch}")):
        simulate(starts, ConstantSignal(w), coupling, 0.5, DT)
    with pytest.raises(ValueError, match=re.escape(f"(3, 3) {mismatch}")):
        simulate(starts, omega, ConstantSignal(a), 0.5, DT)
    with pytest.raises(ValueError, match="does not match starts of shape"):
        simulate(starts[0], ConstantSignal(w), ConstantSignal(np.stack([a] * 2)), 0.5, DT)
