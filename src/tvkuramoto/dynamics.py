"""Simulation of the time-varying oscillator network and phase-difference utilities.

The model is theta_i' = omega_i(t) + sum_j a_ij(t) sin(theta_j - theta_i) with
phases unwrapped on the real line (the analysis lives in phase differences
confined to |theta_ij| <= r < pi/2, so no modular wrapping is wanted).
Every fixed-step integration in the package runs through one classical
4th-order routine, `_rk4`, on a grid aligned to every signal breakpoint, which
makes runs bit-for-bit reproducible. Its state may carry a batch axis (R starts
as one (R, m) array); it evaluates a piecewise-constant signal once per piece
and a smooth one twice per step. The coupling term takes the product form
cos(theta_i) (A sin theta)_i - sin(theta_i) (A cos theta)_i: O(m) trig calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from tvkuramoto.signals import TimeSignal, check_alignment


@lru_cache(maxsize=None)
def pd_pairs(m: int) -> tuple:
    """Ordered index pairs (i, j), i > j, lexicographic; 0-based."""
    return tuple((i, j) for i in range(1, m) for j in range(i))


def phase_differences(theta: np.ndarray) -> np.ndarray:
    """The m(m-1)/2 independent differences theta_i - theta_j, i > j."""
    theta = np.asarray(theta, dtype=float)
    pairs = pd_pairs(theta.shape[-1])
    ii = np.array([p[0] for p in pairs], dtype=int)
    jj = np.array([p[1] for p in pairs], dtype=int)
    return theta[..., ii] - theta[..., jj]


def phases_from_pd(pd: np.ndarray, m: int) -> np.ndarray:
    """Lift a PD vector to phases with theta_1 = 0 (representative choice).

    Any other lift differs by a global shift, which the dynamics quotient out.
    Rejects internally inconsistent PD vectors.
    """
    pd = np.asarray(pd, dtype=float)
    if pd.size != m * (m - 1) // 2:
        raise ValueError(f"PD vector has {pd.size} entries, expected {m * (m - 1) // 2}")
    theta = np.zeros(m)
    for i in range(1, m):
        theta[i] = pd[i * (i - 1) // 2]  # entry (i, 0)
    if np.max(np.abs(phase_differences(theta) - pd)) > 1e-9:
        raise ValueError("PD vector is not consistent with any phase vector")
    return theta


def check_r(r: float) -> float:
    """The PD half-width r itself; ValueError unless 0 <= r < pi/2."""
    if not 0.0 <= r < math.pi / 2:
        raise ValueError(f"r must lie in [0, pi/2), got {r}")
    return r


def region_membership(pd: np.ndarray, r: float) -> bool:
    """True iff every |theta_ij| <= r (the PD hypercube of half-width r)."""
    check_r(r)
    pd = np.asarray(pd, dtype=float)
    return bool(pd.size == 0 or np.max(np.abs(pd)) <= r)


def hajnal_diameter(delta) -> float:
    """max_i delta_i - min_j delta_j, the contraction functional of the delta-system."""
    values = np.asarray(delta, dtype=float)
    return float(values.max() - values.min())


@dataclass(frozen=True)
class PhaseTrajectory:
    """Phases on a uniform time grid; row k is theta(times[k]), unwrapped."""

    times: np.ndarray   # shape (N+1,)
    phases: np.ndarray  # shape (N+1, m), or (R, N+1, m) for a batch of R runs

    @property
    def m(self) -> int:
        return self.phases.shape[-1]

    def phase_differences(self) -> np.ndarray:
        """(N+1, m(m-1)/2) array of PD vectors along the run."""
        return phase_differences(self.phases)

    def final(self) -> np.ndarray:
        return self.phases[..., -1, :].copy()


def kuramoto_rhs(theta: np.ndarray, t: float, omega: TimeSignal,
                 coupling: TimeSignal) -> np.ndarray:
    """Right-hand side omega_i(t) + sum_j a_ij(t) sin(theta_j - theta_i)."""
    theta = np.asarray(theta, dtype=float)
    _check_shapes(theta.shape[-1], omega, coupling)
    return _rhs(theta, omega.evaluate(t), coupling.evaluate(t))


def _check_shapes(m, omega, coupling):
    if coupling.shape != (m, m):
        raise ValueError(f"coupling matrix shape {coupling.shape} does not match m={m}")
    if omega.shape not in ((), (m,)):
        raise ValueError(f"frequency vector shape {omega.shape} does not match m={m}")


def _rhs(theta, w, a):
    # sum_j a_ij sin(theta_j - theta_i) = cos(theta_i) (A sin theta)_i - sin(theta_i) (A cos theta)_i
    s, c = np.sin(theta), np.cos(theta)
    return w + c * np.dot(s, a.T) - s * np.dot(c, a.T)


def _rk4(rhs, y0, t0, dt, nsteps, signals=(), out=None, stop=None):
    """Classical 4th-order integration of y' = rhs(y, *signal values) for nsteps steps from t0.

    The caller has checked the grid with check_alignment, so a piecewise-constant
    signal is evaluated at the first step of each piece; a smooth one at t + dt/2
    and t + dt, the latter reused at the next step. out[k], if given, receives
    y(t0 + k dt). The run ends early where stop(t, y, y') is true. Returns the
    last state and its step. Raises on non-finite state, naming the time.
    """
    t_end = t0 + nsteps * dt
    pieces = [i for i, sig in enumerate(signals) if sig.is_piecewise_constant]
    smooth = [i for i, sig in enumerate(signals) if not sig.is_piecewise_constant]
    cuts = {0, nsteps}
    for i in pieces:
        steps = np.rint((signals[i].breakpoints_in(t0, t_end) - t0) / dt)
        cuts.update(int(k) for k in steps if 0 < k < nsteps)
    cuts = sorted(cuts)
    vc = [None if sig.is_piecewise_constant else sig.evaluate(t0) for sig in signals]
    va, vb = list(vc), list(vc)
    half, sixth = 0.5 * dt, dt / 6.0
    y = y0
    if out is not None:
        out[0] = y0
    for lo, hi in zip(cuts, cuts[1:]):
        for i in pieces:
            va[i] = vb[i] = vc[i] = signals[i].evaluate(t0 + lo * dt)
        for k in range(lo, hi):
            t = t0 + k * dt
            for i in smooth:
                va[i] = vc[i]
                vb[i] = signals[i].evaluate(t + half)
                vc[i] = signals[i].evaluate(t0 + (k + 1) * dt)
            k1 = rhs(y, *va)
            if stop is not None and stop(t, y, k1):
                return y, k
            k2 = rhs(y + half * k1, *vb)
            k3 = rhs(y + half * k2, *vb)
            k4 = rhs(y + dt * k3, *vc)
            y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(y).all():
                raise RuntimeError(f"state blew up at t = {t + dt:.6f} s")
            if out is not None:
                out[k + 1] = y
    return y, nsteps


def simulate(theta0: np.ndarray, omega: TimeSignal, coupling: TimeSignal,
             t_end: float, dt: float) -> PhaseTrajectory:
    """Integrate the network from theta0 over [0, t_end], sampling every step.

    theta0 is one start (m,) or a batch (R, m); the phases come back as
    (N+1, m) or (R, N+1, m), run i being the contiguous block phases[i].
    dt must tile [0, t_end] and hit every breakpoint of both signals. Raises
    on non-finite state, reporting the blow-up time.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if theta0.ndim not in (1, 2):
        raise ValueError(f"theta0 must have shape (m,) or (R, m), got {theta0.shape}")
    _check_shapes(theta0.shape[-1], omega, coupling)
    nsteps = check_alignment([omega, coupling], 0.0, t_end, dt)
    phases = np.empty(theta0.shape[:-1] + (nsteps + 1, theta0.shape[-1]))
    _rk4(_rhs, theta0, 0.0, dt, nsteps, (omega, coupling), out=np.moveaxis(phases, -2, 0))
    return PhaseTrajectory(np.arange(nsteps + 1) * dt, phases)


def invariance_monitor(traj: PhaseTrajectory, r: float):
    """Earliest grid time at which the PDs leave the half-width-r hypercube.

    Returns None when the sampled trajectory never leaves (invariant on the
    grid); exit times are resolved to the sampling step only.
    """
    check_r(r)
    spread_hi = traj.phases.max(axis=1) - traj.phases.min(axis=1)
    # max_{i>j} |theta_ij| equals the phase spread max theta - min theta
    bad = np.nonzero(spread_hi > r)[0]
    if bad.size == 0:
        return None
    return float(traj.times[bad[0]])


@dataclass(frozen=True)
class DivergenceSeries:
    """Pointwise maximum PD discrepancy between two runs."""

    times: np.ndarray
    values: np.ndarray

    @property
    def final(self) -> float:
        return float(self.values[-1])


def pd_divergence(traj_a: PhaseTrajectory, traj_b: PhaseTrajectory) -> DivergenceSeries:
    """max_{i>j} |pd_a_ij(t) - pd_b_ij(t)| along two runs on the same grid.

    Computed as the Hajnal diameter of delta(t) = theta_a(t) - theta_b(t),
    which equals the maximum pairwise PD discrepancy and is invariant to
    global phase shifts of either run.
    """
    if traj_a.times.shape != traj_b.times.shape or not np.allclose(
        traj_a.times, traj_b.times, rtol=0.0, atol=1e-12
    ):
        raise ValueError("trajectories are sampled on different grids")
    delta = traj_a.phases - traj_b.phases
    values = delta.max(axis=1) - delta.min(axis=1)
    return DivergenceSeries(traj_a.times.copy(), values)
