import json
import math
import re

import numpy as np
import pytest

from tvkuramoto.cli import bundled_config_path
from tvkuramoto.dynamics import phase_differences, phases_from_pd, simulate
from tvkuramoto.linalg import state_transition
from tvkuramoto.scenarios import (
    NoLockError,
    ap_experiment,
    er_random_network,
    fast_switching_sweep,
    find_periodic_pd,
    first_order_approx,
    linear_correction,
    phase_locked_equilibrium,
    poincare_map,
)
from tvkuramoto.signals import (ConstantSignal, SinusoidSignal, SwitchingSignal, TableSignal,
                                signal_from_json)

import psd_oracle
import rk4_oracle

TWO_NODE = np.array([[0.0, 1.0], [1.0, 0.0]])


def bundled_signals(name):
    cfg = json.loads(bundled_config_path(name).read_text())
    return (signal_from_json(cfg["signals"]["omega"]),
            signal_from_json(cfg["signals"]["coupling"]))


def union_find_connected(adj):
    m = adj.shape[0]
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(m):
        for j in range(i + 1, m):
            if adj[i, j] != 0:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(m)}) == 1


# --- phase-locked equilibrium --------------------------------------------------


def test_lock_identical_frequencies():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.5, 1.5, (4, 4))
    a = np.triu(a, 1)
    a = a + a.T
    lock = phase_locked_equilibrium(np.full(4, 1.3), a, math.pi / 3,
                                    rng.uniform(-0.2, 0.2, 4))
    assert np.abs(lock.pd).max() < 1e-8
    assert lock.collective_rate == pytest.approx(1.3, abs=1e-9)


def test_lock_two_node_closed_form():
    lock = phase_locked_equilibrium(np.array([1.2, 1.0]), TWO_NODE, math.pi / 3, np.zeros(2))
    assert lock.pd[0] == pytest.approx(-math.asin(0.1), abs=1e-8)
    assert lock.collective_rate == pytest.approx(1.1, abs=1e-10)
    assert lock.residual < 1e-8
    assert lock.verified


def test_lock_within_a_zero_horizon_comes_from_newton_at_time_zero():
    # t_max = 0 leaves RK4 no step; Newton from theta0 still finds the lock
    lock = phase_locked_equilibrium(np.array([1.2, 1.0]), TWO_NODE, math.pi / 3, np.zeros(2),
                                    t_max=0.0)
    assert lock.lock_time == 0.0
    assert lock.pd[0] == pytest.approx(-math.asin(0.1), abs=1e-8)
    assert lock.collective_rate == pytest.approx(1.1, abs=1e-10)
    assert lock.residual < 1e-8


def test_lock_averaged_fast_schedule():
    omega, coupling = bundled_signals("fast")
    w_bar = omega.window_average(0.0, omega.period)
    a_bar = coupling.window_average(0.0, coupling.period)
    lock = phase_locked_equilibrium(w_bar, a_bar, math.pi / 3, np.zeros(5))
    assert np.abs(lock.pd).max() < math.pi / 3


def test_lock_timeout():
    # |omega_1 - omega_2| = 0.2 exceeds a_12 + a_21 = 0.1, so no lock exists;
    # the phase spread grows only to 0.52 < r by t_max while Newton tries at
    # t = 0, 1 and 2 s
    weak = 0.05 * TWO_NODE
    with pytest.raises(NoLockError, match="no phase lock within 3.0 s"):
        phase_locked_equilibrium(np.array([1.2, 1.0]), weak, math.pi / 3, np.zeros(2),
                                 t_max=3.0)


def test_lock_within_a_short_horizon_comes_at_time_zero():
    # Newton from theta0 needs no relaxation time, so a one-second horizon suffices
    lock = phase_locked_equilibrium(np.array([1.2, 1.0]), TWO_NODE, math.pi / 3,
                                    np.zeros(2), t_max=1.0)
    assert lock.lock_time == 0.0
    assert lock.pd[0] == pytest.approx(-math.asin(0.1), abs=1e-12)


def test_lock_region_exit():
    # the uncoupled pair drifts apart at 1 rad/s; the exit time is the reference loop's
    with pytest.raises(RuntimeError) as ref:
        rk4_oracle.lock_search(np.array([2.0, 1.0]), np.zeros((2, 2)), 0.5, np.zeros(2))
    exit_time = re.fullmatch(r"left the PD region at t = ([0-9.]+) s", str(ref.value)).group(1)
    with pytest.raises(NoLockError) as err:
        phase_locked_equilibrium(np.array([2.0, 1.0]), np.zeros((2, 2)), 0.5, np.zeros(2))
    assert str(err.value) == f"phases left the PD region (half-width 0.5) at t = {exit_time} s"


def test_lock_rejects_a_newton_lock_outside_the_region():
    # Newton from theta0 reaches the stable lock asin(0.1) = 0.10017, outside r
    with pytest.raises(NoLockError, match="Newton lock leaves the PD region"):
        phase_locked_equilibrium(np.array([1.2, 1.0]), TWO_NODE, 0.1001, np.zeros(2))


def test_lock_rejects_an_unreached_residual():
    with pytest.raises(NoLockError, match="not below 0"):
        phase_locked_equilibrium(np.array([1.2, 1.0]), TWO_NODE, math.pi / 3, np.zeros(2),
                                 deriv_tol=0.0)


# --- period map and orbit -------------------------------------------------------


def test_poincare_static_lock_is_fixed_point():
    lock = phase_locked_equilibrium(np.array([1.2, 1.0]), TWO_NODE, math.pi / 3, np.zeros(2))
    out = poincare_map(lock.pd, ConstantSignal([1.2, 1.0]), ConstantSignal(TWO_NODE),
                       2.0, 1e-3)
    assert np.abs(out - lock.pd).max() < 1e-9


def test_poincare_uncoupled_drift():
    omega = ConstantSignal([0.7, 0.2])
    coupling = ConstantSignal(np.zeros((2, 2)))
    pd0 = np.array([0.05])
    out = poincare_map(pd0, omega, coupling, 1.5, 1e-3)
    assert out[0] == pytest.approx(0.05 + (0.2 - 0.7) * 1.5, abs=1e-12)


def test_poincare_reports_region_exit():
    omega = ConstantSignal([2.0, 1.0])
    coupling = ConstantSignal(np.zeros((2, 2)))
    with pytest.raises(RuntimeError, match="left the"):
        poincare_map(np.array([0.0]), omega, coupling, 2.0, 1e-3, r=0.5)


def test_poincare_random_starts_converge_to_common_fixed_point():
    omega, coupling = bundled_signals("ap")
    rng = np.random.default_rng(1)
    finals = []
    for _ in range(10):
        pd = phase_differences(rng.uniform(-math.pi / 6, math.pi / 6, 5))
        for it in range(60):
            nxt = poincare_map(pd, omega, coupling, 4.0, 1e-3)
            if np.linalg.norm(nxt - pd) < 1e-8:
                pd = nxt
                break
            pd = nxt
        else:
            pytest.fail("period map did not converge within 60 iterations")
        finals.append(pd)
    finals = np.array(finals)
    assert np.abs(finals - finals[0]).max() < 1e-8


def test_poincare_is_contractive_on_the_bundled_schedule():
    omega, coupling = bundled_signals("ap")
    rng = np.random.default_rng(2)
    for _ in range(5):
        pd_a = phase_differences(rng.uniform(-math.pi / 12, math.pi / 12, 5))
        pd_b = phase_differences(rng.uniform(-math.pi / 12, math.pi / 12, 5))
        ha = poincare_map(pd_a, omega, coupling, 4.0, 1e-3)
        hb = poincare_map(pd_b, omega, coupling, 4.0, 1e-3)
        assert np.linalg.norm(ha - hb) <= np.linalg.norm(pd_a - pd_b) + 1e-12


def test_find_periodic_pd_static_orbit_is_constant():
    lock = phase_locked_equilibrium(np.array([1.2, 1.0]), TWO_NODE, math.pi / 3, np.zeros(2))
    orbit = find_periodic_pd(ConstantSignal([1.2, 1.0]), ConstantSignal(TWO_NODE),
                             2.0, lock.pd, dt=1e-3)
    assert np.abs(orbit.pd_samples - lock.pd).max() < 1e-8
    assert orbit.residual < 1e-10


def test_find_periodic_pd_seed_independent():
    omega, coupling = bundled_signals("ap")
    rng = np.random.default_rng(3)
    orbits = [
        find_periodic_pd(omega, coupling, 4.0,
                         phase_differences(rng.uniform(-0.4, 0.4, 5)), dt=1e-3)
        for _ in range(3)
    ]
    for other in orbits[1:]:
        assert np.abs(other.fixed_point - orbits[0].fixed_point).max() < 1e-8


def assert_orbit_is_the_maps_own_run(orbit, seed, omega, coupling, r, dt=1e-3):
    samples, period = orbit.pd_samples, orbit.period
    assert samples.shape[0] == int(round(period / dt)) + 1
    # the last row is the period map of the first, and its mismatch is the residual
    assert samples[-1].tobytes() == poincare_map(samples[0], omega, coupling, period,
                                                 dt).tobytes()
    assert float(np.linalg.norm(samples[-1] - samples[0])) == orbit.residual < 1e-10
    assert orbit.fixed_point.tobytes() == samples[-1].tobytes()
    # the orbit as it was resampled: one more period from the map's image
    resampled = simulate(phases_from_pd(samples[-1]), omega, coupling, period, dt)
    assert np.abs(resampled.phase_differences() - samples).max() <= 1e-12
    # the iterations of x -> H(x) until ||H(x) - x|| < tol
    x, iterations = seed, 0
    while True:
        iterations += 1
        nxt = poincare_map(x, omega, coupling, period, dt, r=r)
        if np.linalg.norm(nxt - x) < 1e-10:
            break
        x = nxt
    assert orbit.iterations == iterations


def test_orbit_is_the_converged_period_maps_own_run():
    omega, coupling = bundled_signals("ap")
    r = json.loads(bundled_config_path("ap").read_text())["parameters"]["r"]
    seed = phase_differences(np.random.default_rng(5).uniform(-0.3, 0.3, 5))
    orbit = find_periodic_pd(omega, coupling, 4.0, seed, r=r)
    assert orbit.iterations > 1
    assert_orbit_is_the_maps_own_run(orbit, seed, omega, coupling, r)


# --- perturbation expansion -----------------------------------------------------


def make_base(rng, m=4):
    a = rng.uniform(0.5, 1.5, (m, m))
    a = np.triu(a, 1)
    a = a + a.T
    w = 1.0 + rng.uniform(-0.1, 0.1, m)
    return phase_locked_equilibrium(w, a, math.pi / 3, np.zeros(m))


def correction_growth(base, omega_pert, coupling_pert, horizon, dt=1e-2):
    """(max |phi| over [0, horizon], slope of its running max over the second half) of the
    first-order correction. A slope below 1e-4 per second counts as bounded: a drift this
    slow cannot be told from a bounded oscillation at these horizons."""
    times, phi = linear_correction(base, omega_pert, coupling_pert, horizon, dt)
    running = np.maximum.accumulate(np.abs(phi).max(axis=1))
    half = len(times) // 2
    return float(running[-1]), float(np.polyfit(times[half:], running[half:], 1)[0])


def test_first_order_zero_perturbation_is_zero():
    rng = np.random.default_rng(4)
    base = make_base(rng)
    zero_v = SinusoidSignal(np.zeros(4), np.zeros(4), np.zeros(4))
    zero_m = SinusoidSignal(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
    exp = first_order_approx(base, zero_v, zero_m, 0.1, 5.0, 1e-3)
    assert exp.bound == 0.0


def test_first_order_rejects_nonzero_mean():
    rng = np.random.default_rng(5)
    base = make_base(rng)
    biased = SinusoidSignal(np.array([0.1, 0.0, 0.0, 0.0]), np.ones(4), np.zeros(4))
    zero_m = SinusoidSignal(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
    with pytest.raises(ValueError, match="zero-mean"):
        first_order_approx(base, biased, zero_m, 0.1, 5.0, 1e-3)


def test_first_order_solves_the_linear_variation_equation():
    rng = np.random.default_rng(6)
    base = make_base(rng)
    m = 4
    alpha = rng.uniform(-0.5, 0.5, m)
    mask = (base.coupling_bar != 0).astype(float)
    beta = rng.uniform(-0.5, 0.5, (m, m))
    omega_pert = SinusoidSignal(np.zeros(m), np.ones(m), alpha, trig="sin")
    coupling_pert = SinusoidSignal(np.zeros((m, m)), mask, beta, trig="cos")
    exp = first_order_approx(base, omega_pert, coupling_pert, 0.1, 4.0, 1e-3)

    # finite-difference residual of phi' = z(t) + Y phi at interior samples
    rep = base.rep_phases
    diff = rep[None, :] - rep[:, None]
    y = base.coupling_bar * np.cos(diff)
    np.fill_diagonal(y, 0.0)
    np.fill_diagonal(y, -y.sum(axis=1))
    sin_lock = np.sin(diff)
    dt = 1e-3
    idx = np.arange(200, 3800, 97)
    for k in idx:
        t = exp.times[k]
        z = omega_pert.evaluate(t) + (coupling_pert.evaluate(t) * sin_lock).sum(axis=1)
        lhs = (exp.phi[k + 1] - exp.phi[k - 1]) / (2 * dt)
        rhs = z + y @ exp.phi[k]
        assert np.abs(lhs - rhs).max() < 1e-4


def test_epsilon_scaling_of_the_remainder():
    # quadratic remainder: halving epsilon shrinks the approximation error ~4x
    lock = phase_locked_equilibrium(np.array([1.1, 1.0]), TWO_NODE, math.pi / 3, np.zeros(2))
    alpha = np.array([0.3, -0.2])
    beta = np.array([[0.0, 0.1], [0.1, 0.0]])
    mask = TWO_NODE
    omega_pert = SinusoidSignal(np.zeros(2), np.ones(2), alpha, trig="sin")
    coupling_pert = SinusoidSignal(np.zeros((2, 2)), mask, beta, trig="cos")
    errs = {}
    for eps in (0.1, 0.05):
        exp = first_order_approx(lock, omega_pert, coupling_pert, eps, 20.0, 1e-3)
        omega_full = SinusoidSignal(np.array([1.1, 1.0]), eps * np.ones(2), alpha, trig="sin")
        coupling_full = SinusoidSignal(mask, eps * mask, beta, trig="cos")
        traj = simulate(lock.rep_phases, omega_full, coupling_full, 20.0, 1e-3)
        errs[eps] = np.abs(traj.phases[:, 0] - exp.approx_phases()[:, 0]).max()
    ratio = errs[0.1] / errs[0.05]
    assert 2.5 <= ratio <= 6.0


def test_boundedness_zero_perturbation():
    rng = np.random.default_rng(7)
    base = make_base(rng)
    zero_v = SinusoidSignal(np.zeros(4), np.zeros(4), np.zeros(4))
    zero_m = SinusoidSignal(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
    bound, slope = correction_growth(base, zero_v, zero_m, 50.0)
    assert slope < 1e-4
    assert bound == 0.0


def test_boundedness_flags_secular_drift():
    # a frequency bias on one node violates the zero-mean hypothesis and
    # produces linear drift along the consensus direction
    rng = np.random.default_rng(8)
    base = make_base(rng)
    biased = SinusoidSignal(np.array([0.2, 0.0, 0.0, 0.0]), np.zeros(4), np.zeros(4))
    zero_m = SinusoidSignal(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
    _, slope = correction_growth(base, biased, zero_m, 100.0)
    assert slope > 1e-3


def test_boundedness_full_scale_random_graph():
    # the first-order correction stays bounded over 200 s on the bundled
    # perturbation setup (connected ER graph, zero-mean modulations)
    mask = er_random_network(20, 0.2, seed=1)
    rng = np.random.default_rng(21)
    omega_bar = rng.uniform(0.9, 1.1, 20)
    base = phase_locked_equilibrium(omega_bar, mask, math.pi / 3, np.zeros(20), dt=1e-3)
    alpha = rng.uniform(-math.pi / 6, math.pi / 6, 20)
    beta = np.triu(rng.uniform(-math.pi / 6, math.pi / 6, (20, 20)), 1)
    beta = beta + beta.T
    omega_pert = SinusoidSignal(np.zeros(20), np.ones(20), alpha, trig="sin")
    coupling_pert = SinusoidSignal(np.zeros((20, 20)), mask, beta, trig="cos")
    bound, slope = correction_growth(base, omega_pert, coupling_pert, 200.0)
    assert slope < 1e-4
    assert bound > 0.0


def test_linear_jacobian_reaches_consensus():
    # the lock's Jacobian flow u' = Y u equalizes all components
    rng = np.random.default_rng(9)
    base = make_base(rng, m=8)
    rep = base.rep_phases
    diff = rep[None, :] - rep[:, None]
    y = base.coupling_bar * np.cos(diff)
    np.fill_diagonal(y, 0.0)
    np.fill_diagonal(y, -y.sum(axis=1))
    flow = state_transition(ConstantSignal(-y), 0.0, 100.0, 1e-2)
    for _ in range(20):
        u = flow @ rng.uniform(-1, 1, 8)
        assert u.max() - u.min() < 1e-6


# --- fast switching --------------------------------------------------------------


def test_fast_sweep_no_variation_has_tiny_tail():
    a = np.triu(np.random.default_rng(10).uniform(0.5, 1.0, (4, 4)), 1)
    a = a + a.T
    w = np.array([1.0, 1.1, 0.9, 1.05])
    omega = SwitchingSignal([1.0, 1.0], [w, w])
    coupling = SwitchingSignal([1.0, 1.0], [a, a])
    rep = fast_switching_sweep(omega, coupling, [5.0, 20.0], math.pi / 3, t_end=20.0)
    assert rep.schedule_certified
    assert np.all(rep.tails < 1e-6)


def fast_probe_schedule(rng, kind):
    """Periodic coupling B + D(t) with a symmetric positive B, so the average locks, and
    D(t) of zero mean: small and symmetric, large and symmetric (often not PSD), or
    asymmetric. A switching or table schedule has equal pieces, a sinusoid one period."""
    m, count, style = int(rng.integers(2, 6)), int(rng.integers(2, 5)), int(rng.integers(3))
    b = rng.uniform(0.5, 1.5, (m, m))
    b = b + b.T
    np.fill_diagonal(b, 0.0)
    d = rng.uniform(-1.0, 1.0, (count, m, m)) * (0.2 if style == 0 else 3.0)
    if style != 2:
        d = d + d.transpose(0, 2, 1)
    d -= d.mean(axis=0)
    for piece in d:
        np.fill_diagonal(piece, 0.0)
    if kind == "sinusoid":
        return SinusoidSignal(b, d[0], rng.uniform(-3.0, 3.0))
    if kind == "switching":
        return SwitchingSignal([0.5] * count, list(b + d))
    return TableSignal(0.5 * np.arange(count), list(b + d), period=0.5 * count)


@pytest.mark.parametrize("kind", ["switching", "periodic-table", "sinusoid"])
def test_fast_sweep_schedule_notes_match_the_per_time_loop(kind):
    # the sweep needs a periodic coupling, so constant and aperiodic ones are not run
    rng = np.random.default_rng([76, ["switching", "periodic-table", "sinusoid"].index(kind)])
    seen = set()
    for _ in range(8):
        coupling = fast_probe_schedule(rng, kind)
        m = coupling.shape[0]
        omega = SwitchingSignal([coupling.period], [rng.uniform(-0.1, 0.1, m)])
        rep = fast_switching_sweep(omega, coupling, [1.0], math.pi / 3, t_end=0.05)
        want = psd_oracle.fast_notes(coupling)
        assert rep.certification_notes == want
        assert rep.schedule_certified == (want == "")
        seen.add(want.split(" at ")[0])
    assert len(seen) > 1


def test_fast_sweep_bundled_schedule_scaling():
    omega, coupling = bundled_signals("fast")
    rep = fast_switching_sweep(omega, coupling, [10.0, 40.0], math.pi / 3, t_end=20.0)
    assert not rep.schedule_certified  # pieces are not PSD, recorded not fatal
    assert rep.tails[1] < rep.tails[0]
    assert np.all(rep.invariant)


def test_fast_delta_dynamics_residual():
    # measured deviation from the averaged lock satisfies the switched linear
    # equation when the mean-value cosines are reconstructed from the data
    omega, coupling = bundled_signals("fast")
    r = math.pi / 3
    rep = fast_switching_sweep(omega, coupling, [10.0], r, t_end=10.0)
    base = rep.base
    eps = rep.epsilons[0]
    omega_h = omega.time_compress(eps)
    coupling_h = coupling.time_compress(eps)
    dt = 1e-3
    traj = simulate(base.rep_phases, omega_h, coupling_h, 10.0, dt)
    theta_bar = base.rep_phases[None, :] + base.collective_rate * traj.times[:, None]
    delta = traj.phases - theta_bar

    sin_lock = np.sin(base.rep_phases[None, :] - base.rep_phases[:, None])
    w_bar, a_bar = base.omega_bar, base.coupling_bar
    piece_steps = int(round((0.1) / dt))
    for k in range(150, 9800, 211):
        if k % piece_steps < 2 or k % piece_steps > piece_steps - 2:
            continue  # keep finite differences away from switch instants
        t = traj.times[k]
        w_t = np.asarray(omega_h.evaluate(t))
        a_t = np.asarray(coupling_h.evaluate(t))
        drive = (w_t - w_bar) + ((a_t - a_bar) * sin_lock).sum(axis=1)
        th = traj.phases[k]
        pd_now = th[None, :] - th[:, None]
        pd_bar = base.rep_phases[None, :] - base.rep_phases[:, None]
        gap = pd_now.T - pd_bar.T  # entry [i, j]: theta_ji - theta_bar_ji
        with np.errstate(divide="ignore", invalid="ignore"):
            cos_mean = np.where(np.abs(gap) > 1e-9,
                                (np.sin(pd_now.T) - np.sin(pd_bar.T)) / gap,
                                np.cos(pd_bar.T))
        coupling_term = (a_t * cos_mean * (delta[k][None, :].T - delta[k]).T).sum(axis=1)
        rhs = drive + coupling_term
        lhs = (delta[k + 1] - delta[k - 1]) / (2 * dt)
        assert np.abs(lhs - rhs).max() < 1e-4


def test_ap_orbit_runs_over_the_common_period():
    # coupling period 4, frequency period 6: the pair repeats every 12 s, and a
    # period map over 4 s would restart the frequencies at the wrong phase
    cfg = json.loads(bundled_config_path("ap").read_text())
    _, coupling = bundled_signals("ap")
    omega = SwitchingSignal([3.0, 3.0], [p["value"] for p in cfg["signals"]["omega"]["pieces"]])
    res = ap_experiment(omega, coupling, cfg["parameters"]["r"], num_runs=2, t_end=24.0,
                        divergence_from=8.0)
    assert res.orbit.period == 12.0
    assert res.orbit.residual < 1e-10
    assert res.max_distance_to_orbit_end < 1e-9
    assert_orbit_is_the_maps_own_run(res.orbit, phase_differences(res.runs[0].final()),
                                     omega, coupling, cfg["parameters"]["r"])


# --- random networks --------------------------------------------------------------


def test_er_complete_at_p_one():
    assert np.array_equal(er_random_network(5, 1.0, seed=0), np.ones((5, 5)) - np.eye(5))


def test_er_same_seed_is_identical():
    a = er_random_network(20, 0.2, seed=13)
    b = er_random_network(20, 0.2, seed=13)
    assert np.array_equal(a, b)


def test_er_outputs_connected_and_symmetric():
    for seed in range(100):
        a = er_random_network(20, 0.2, seed=seed)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert union_find_connected(a)


def test_er_rejects_bad_parameters():
    with pytest.raises(ValueError):
        er_random_network(5, 0.0, seed=0)
    with pytest.raises(ValueError):
        er_random_network(1, 0.5, seed=0)


def test_fast_sweep_checks_its_coupling_first():
    # a 1 x 1 coupling used to reach the PSD probe and raise IndexError
    omega = SwitchingSignal([1.0, 1.0], [[0.0], [1.0]])
    coupling = SwitchingSignal([1.0, 1.0], [[[0.0]], [[0.0]]])
    with pytest.raises(ValueError, match=r"at least two oscillators, got m=1"):
        fast_switching_sweep(omega, coupling, [10.0], 1.0)


def test_ap_end_target_off_a_period_boundary_is_the_orbit_row_at_the_same_phase():
    # t_end = 10 s is 2.5 periods of 4 s: each run ends 2 s into a period, so its distance
    # is to the orbit's row at 2 s, read here by time, not to the fixed point
    cfg = json.loads(bundled_config_path("ap").read_text())
    omega, coupling = bundled_signals("ap")
    res = ap_experiment(omega, coupling, cfg["parameters"]["r"], num_runs=2, t_end=10.0,
                        divergence_from=8.0)
    assert res.orbit.period == 4.0
    (row,) = np.flatnonzero(np.abs(res.orbit.times - 2.0) < 1e-9)
    ends = [phase_differences(run.final()) for run in res.runs]
    want = max(float(np.abs(pd - res.orbit.pd_samples[row]).max()) for pd in ends)
    assert res.max_distance_to_orbit_end == want < 1e-9
    assert min(float(np.abs(pd - res.orbit.fixed_point).max()) for pd in ends) > 0.1
