"""Reference per-run RK4 loops, kept apart from the package's integrator.

These are the loops the package used before it had one batched integrator:
one start at a time, every signal evaluated at every stage time it needs
(piecewise-constant signals once per step), and the coupling term summed as
sum_j a_ij sin(theta_j - theta_i) with an m x m sine. They read signals only
through `evaluate` and share no code with `tvkuramoto.dynamics`. The tests
compare the package against them at 1e-12.
"""

from __future__ import annotations

import numpy as np


def kuramoto_rhs(theta, w, a):
    diff = theta[None, :] - theta[:, None]  # diff[i, j] = theta_j - theta_i
    return w + (a * np.sin(diff)).sum(axis=1)


def simulate(theta0, omega, coupling, t_end, dt):
    """Phases (N+1, m) of one start; raises RuntimeError on non-finite state."""
    th = np.asarray(theta0, dtype=float).copy()
    nsteps = int(round(t_end / dt))
    out = np.empty((nsteps + 1, th.size))
    out[0] = th
    w_pc, a_pc = omega.is_piecewise_constant, coupling.is_piecewise_constant
    for k in range(nsteps):
        t = k * dt
        wa = omega.evaluate(t)
        aa = np.asarray(coupling.evaluate(t), dtype=float)
        wb = wa if w_pc else omega.evaluate(t + 0.5 * dt)
        ab = aa if a_pc else np.asarray(coupling.evaluate(t + 0.5 * dt), dtype=float)
        wc = wa if w_pc else omega.evaluate(t + dt)
        ac = aa if a_pc else np.asarray(coupling.evaluate(t + dt), dtype=float)
        k1 = kuramoto_rhs(th, wa, aa)
        k2 = kuramoto_rhs(th + 0.5 * dt * k1, wb, ab)
        k3 = kuramoto_rhs(th + 0.5 * dt * k2, wb, ab)
        k4 = kuramoto_rhs(th + dt * k3, wc, ac)
        th = th + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(th)):
            raise RuntimeError(f"state blew up at t = {t + dt:.6f} s")
        out[k + 1] = th
    return out


def lock_search(omega_bar, a_bar, r, theta0, dt=1e-3, t_max=500.0, window=1.0,
                deriv_tol=1e-10):
    """(lock_time, phases at the lock, phase velocities there), or None without a lock."""
    w = np.asarray(omega_bar, dtype=float)
    a = np.asarray(a_bar, dtype=float)
    th = np.asarray(theta0, dtype=float).copy()
    need = max(int(round(window / dt)), 1)
    consec = 0
    for k in range(int(round(t_max / dt))):
        k1 = kuramoto_rhs(th, w, a)
        if th.max() - th.min() > r:
            raise RuntimeError(f"left the PD region at t = {k * dt:.3f} s")
        if float(k1.max() - k1.min()) < deriv_tol:
            consec += 1
            if consec >= need:
                return (k + 1 - need) * dt, th, k1
        else:
            consec = 0
        k2 = kuramoto_rhs(th + 0.5 * dt * k1, w, a)
        k3 = kuramoto_rhs(th + 0.5 * dt * k2, w, a)
        k4 = kuramoto_rhs(th + dt * k3, w, a)
        th = th + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return None


def linear_correction(rep_phases, coupling_bar, omega_pert, coupling_pert, t_end, dt):
    """phi (N+1, m) of phi' = z(t) + Y phi, phi(0) = 0, z read at all three stage times."""
    rep = np.asarray(rep_phases, dtype=float)
    m = rep.size
    diff = rep[None, :] - rep[:, None]
    sin_lock = np.sin(diff)
    y = coupling_bar * np.cos(diff)
    np.fill_diagonal(y, 0.0)
    np.fill_diagonal(y, -y.sum(axis=1))

    def z_at(t):
        omega_v = omega_pert.evaluate(t)
        if isinstance(omega_v, float):
            omega_v = np.full(m, omega_v)
        return omega_v + (np.asarray(coupling_pert.evaluate(t)) * sin_lock).sum(axis=1)

    nsteps = int(round(t_end / dt))
    phi = np.zeros(m)
    out = np.empty((nsteps + 1, m))
    out[0] = phi
    for k in range(nsteps):
        t = k * dt
        za, zb, zc = z_at(t), z_at(t + 0.5 * dt), z_at(t + dt)
        k1 = za + y @ phi
        k2 = zb + y @ (phi + 0.5 * dt * k1)
        k3 = zb + y @ (phi + 0.5 * dt * k2)
        k4 = zc + y @ (phi + dt * k3)
        phi = phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = phi
    return out


def state_transition(gen, s, t, dt):
    """U(t) of U' = -G(tau) U, U(s) = I."""
    nsteps = int(round((t - s) / dt))
    u = np.eye(np.asarray(gen.evaluate(s)).shape[0])
    pc = gen.is_piecewise_constant
    for k in range(nsteps):
        tau = s + k * dt
        ga = np.asarray(gen.evaluate(tau), dtype=float)
        gb = ga if pc else np.asarray(gen.evaluate(tau + 0.5 * dt), dtype=float)
        gc = ga if pc else np.asarray(gen.evaluate(min(tau + dt, t)), dtype=float)
        k1 = -ga @ u
        k2 = -gb @ (u + 0.5 * dt * k1)
        k3 = -gb @ (u + 0.5 * dt * k2)
        k4 = -gc @ (u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u
