"""Simulation of the time-varying oscillator network and phase-difference utilities.

The model is theta_i' = omega_i(t) + sum_j a_ij(t) sin(theta_j - theta_i) with
phases unwrapped on the real line (the analysis lives in phase differences
confined to |theta_ij| <= r < pi/2, so no modular wrapping is wanted).
Every fixed-step integration in the package runs through one classical
4th-order routine, `_rk4`, on a grid aligned to every signal breakpoint, which
makes runs bit-for-bit reproducible. It takes no callback and returns the last
state; each rhs writes into the stage buffer it is passed, rhs(y, *values,
out). Its state may carry a batch axis (R starts as one (R, m) array); it
reads a table's piece at every step start in one `piece_index` call, and a
smooth signal a block of steps at a time, at every half and whole step of the
block in one array call each. `simulate` spreads a piecewise-constant frequency
shared by a batch to the batch's shape once, before the run, so no stage add
broadcasts it. The coupling term cos(theta_i) (A sin theta)_i -
sin(theta_i) (A cos theta)_i takes O(m) trig calls, into buffers `_kuramoto`
holds. Every phase spread is `hajnal_diameter`, max - min over the last axis,
so the monitors read a batch one run at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from tvkuramoto.signals import TimeSignal, _numbers, check_alignment


@lru_cache(maxsize=None)
def pd_pairs(m: int) -> tuple:
    """Ordered index pairs (i, j), i > j, lexicographic; 0-based."""
    return tuple((i, j) for i in range(1, m) for j in range(i))


@lru_cache(maxsize=None)
def pd_index(m: int) -> tuple:
    """Index arrays (ii, jj) of pd_pairs(m): the PDs are theta[..., ii] - theta[..., jj]."""
    return tuple(np.array(pd_pairs(m), dtype=int).reshape(-1, 2).T)


def phase_differences(theta: np.ndarray) -> np.ndarray:
    """The m(m-1)/2 independent differences theta_i - theta_j, i > j."""
    theta = np.asarray(theta, dtype=float)
    ii, jj = pd_index(theta.shape[-1])
    return theta[..., ii] - theta[..., jj]


def phases_from_pd(pd: np.ndarray) -> np.ndarray:
    """Lift a PD vector of m(m-1)/2 entries to m phases with theta_1 = 0.

    Any other lift differs by a global shift, which the dynamics quotient out.
    Rejects a size that is no m(m-1)/2, non-finite entries and inconsistent PDs.
    """
    pd = _numbers("pd", pd, 1)
    m = int(round((1 + math.sqrt(1 + 8 * pd.size)) / 2))
    if pd.size != m * (m - 1) // 2:
        raise ValueError(f"PD vector has {pd.size} entries, not m(m-1)/2 for any m")
    theta = np.zeros(m)
    for i in range(1, m):
        theta[i] = pd[i * (i - 1) // 2]  # entry (i, 0)
    if np.max(np.abs(phase_differences(theta) - pd)) > 1e-9:
        raise ValueError("PD vector is not consistent with any phase vector")
    return theta


def check_r(r: float) -> float:
    """The PD half-width r itself; ValueError unless 0 <= r < pi/2 (a bool is no number)."""
    if isinstance(r, (bool, np.bool_)) or not 0.0 <= r < math.pi / 2:
        raise ValueError(f"r must lie in [0, pi/2), got {r}")
    return r


def hajnal_diameter(delta):
    """max_i delta_i - min_j delta_j over the last axis, the contraction functional of
    the delta-system: a float for one vector, an array for a stack of them."""
    values = np.asarray(delta, dtype=float)
    spread = values.max(axis=-1)
    spread -= values.min(axis=-1)  # in place: a batch's spread takes one (R, N+1) array, not two
    return spread


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
    _check_shapes(theta.shape, omega, coupling)
    return _rhs(theta, omega.evaluate(t), coupling.evaluate(t), np.empty(theta.shape))


def _check_shapes(shape, omega, coupling):
    """Signals fit starts of this shape: (m,), or (R, m) with signals shared or per run."""
    m, batch = shape[-1], shape[:-1]
    if coupling.shape not in ((m, m), batch + (m, m)):
        raise ValueError(f"coupling shape {coupling.shape} does not match "
                         f"starts of shape {shape}")
    if omega.shape not in ((), (m,), batch + (m,)):
        raise ValueError(f"frequency shape {omega.shape} does not match "
                         f"starts of shape {shape}")


def _kuramoto(shape, per_run):
    """The Kuramoto rhs(theta, w, a, out) for states of this shape, on buffers it holds.

    One call takes A sin theta and A cos theta: one (2R, m) product for a batch
    sharing A; for one row or per-run A, the two products two calls would make."""
    sc = np.empty((2,) + shape)
    prod = np.empty((2,) + shape + (1,) * per_run)  # per run: matmul's (R, m, 1) columns
    (s, c), (ps, pc), cols = sc, prod[..., 0] if per_run else prod, sc[..., None]
    flat = (-1, shape[-1]) if len(shape) == 2 and shape[0] != 1 else (2, 1, shape[-1])
    rows, sums = sc.reshape(flat), prod.reshape(flat)
    product = np.dot if len(flat) == 2 else np.matmul  # dot: the cheaper call for one gemm

    def rhs(theta, w, a, out):  # out= passed by position: numpy parses keywords slower
        np.sin(theta, s)
        np.cos(theta, c)
        np.matmul(a, cols, prod) if per_run else product(rows, a.T, sums)
        np.add(w, np.multiply(c, ps, ps), out)
        return np.subtract(out, np.multiply(s, pc, pc), out)
    return rhs


def _rhs(theta, w, a, out):
    """The Kuramoto right-hand side into out, on buffers of its own."""
    return _kuramoto(theta.shape, a.ndim == 3)(theta, w, a, out)


_BLOCK = 64  # RK4 steps per block: a smooth signal is read once a block


def _rk4(rhs, y0, t0, dt, nsteps, signals=(), out=None):
    """Classical 4th-order integration of y' = rhs(y, *signal values, out) from t0, nsteps steps.

    rhs writes into out, one of four stages held for the call. A piecewise-constant
    signal's piece_index at the step starts cuts the run where it changes (check_alignment
    put every switch on one); a smooth signal is read once per block of _BLOCK steps, at
    every t + dt/2 and t + dt in it. out[k], if given, receives y(t0 + k dt).
    Returns the last state, a new array; raises on non-finite state, naming the time.
    A block runs with floating-point errors recorded, not reported, and its state is
    checked once at its end; a block that ends non-finite or recorded an error the
    caller's numpy error state would report runs again from its start, step by step
    under that state, so it reports what a check after every step would.
    """
    pieces = [i for i, sig in enumerate(signals) if sig.is_piecewise_constant]
    smooth = [i for i, sig in enumerate(signals) if not sig.is_piecewise_constant]
    step_starts = t0 + np.arange(nsteps) * dt
    index = {i: signals[i].piece_index(step_starts) for i in pieces}  # piece of each step
    cuts = {0, nsteps}
    for at in index.values():
        cuts.update((np.flatnonzero(np.diff(at)) + 1).tolist())
    cuts = sorted(cuts)
    values = [None] * len(signals)
    half, step, sixth = map(np.array, (0.5 * dt, dt, dt / 6.0))  # 0-d: same bits, less overhead
    y = np.array(y0, dtype=float)
    z, k = np.empty_like(y), np.empty((4,) + y.shape)  # z: a stage's input, then their sum
    (k1, k2, k3, k4), k23 = k, k[1:3]
    if out is not None:
        out[0] = y0

    def steps(first, ends, mids, times, check):
        va, vb, vc = list(values), list(values), list(values)
        for j, t in enumerate(times):
            for i, end, mid in zip(smooth, ends, mids):
                va[i], vb[i], vc[i] = end[j], mid[j], end[j + 1]
            rhs(y, *va, k1)
            rhs(np.add(y, np.multiply(half, k1, z), z), *vb, k2)
            rhs(np.add(y, np.multiply(half, k2, z), z), *vb, k3)
            rhs(np.add(y, np.multiply(step, k3, z), z), *vc, k4)
            np.add(k23, k23, k23)  # 2 k2 and 2 k3, exactly
            np.add.reduce(k, 0, None, z)  # ((k1 + 2 k2) + 2 k3) + k4
            np.add(y, np.multiply(sixth, z, z), y)
            if check and not np.isfinite(y).all():
                raise RuntimeError(f"state blew up at t = {t + dt:.6f} s")
            if out is not None:
                out[first + j + 1] = y

    errors = []  # the floating-point errors of the running block
    quiet = {kind: "ignore" if mode == "ignore" else "call" for kind, mode in np.geterr().items()}
    recorded = np.errstate(call=lambda kind, flag: errors.append(kind), **quiet)(steps)
    for lo, hi in zip(cuts, cuts[1:]):
        for i in pieces:
            values[i] = signals[i].values[index[i][lo]]
        for first in range(lo, hi, _BLOCK):
            ts = t0 + np.arange(first, min(first + _BLOCK, hi) + 1) * dt
            block = ([signals[i].evaluate(ts) for i in smooth],
                     [signals[i].evaluate(ts[:-1] + half) for i in smooth], ts[:-1].tolist())
            start = y.copy()
            recorded(first, *block, False)
            if errors or not np.isfinite(y).all():
                errors.clear()
                y[...] = start
                steps(first, *block, True)
    return y


def simulate(theta0: np.ndarray, omega: TimeSignal, coupling: TimeSignal,
             t_end: float, dt: float) -> PhaseTrajectory:
    """Integrate the network from theta0 over [0, t_end], sampling every step.

    theta0 is one start (m,) or a batch (R, m); the phases come back as
    (N+1, m) or (R, N+1, m), run i being the contiguous block phases[i].
    A batch may share one pair of signals or give each run its own: signals
    whose values carry the same leading axis, frequencies (R, m) and
    couplings (R, m, m), with run i reading row i. Either signal may be
    shared while the other is per run. A shared piecewise-constant frequency
    (m,) of a batch of R > 1 runs is integrated as its (R, m) spread, the same
    values in every row: a new table, so the caller's is left as it was. dt
    must tile [0, t_end] and hit every breakpoint of both signals. Raises on
    non-finite state, reporting the blow-up time.
    """
    theta0 = _numbers("theta0", theta0, (1, 2))
    _numbers("t_end", t_end, 0, ">0")
    _check_shapes(theta0.shape, omega, coupling)
    nsteps = check_alignment([omega, coupling], 0.0, t_end, dt)
    if omega.is_piecewise_constant and theta0.ndim == 2 and len(theta0) > 1 \
            and omega.shape == theta0.shape[1:]:
        omega = omega._spread(len(theta0))  # every stage add then adds arrays of one shape
    phases = np.empty(theta0.shape[:-1] + (nsteps + 1, theta0.shape[-1]))
    rhs = _kuramoto(theta0.shape, len(coupling.shape) == 3)
    _rk4(rhs, theta0, 0.0, dt, nsteps, (omega, coupling), out=np.moveaxis(phases, -2, 0))
    return PhaseTrajectory(np.arange(nsteps + 1) * dt, phases)


def invariance_monitor(traj: PhaseTrajectory, r: float):
    """Earliest grid time at which the PDs leave the half-width-r hypercube.

    Returns None when the sampled trajectory never leaves (invariant on the
    grid); exit times are resolved to the sampling step only. A batch gets a
    list of one exit time (or None) per run.
    """
    check_r(r)
    # max_{i>j} |theta_ij| is the phase spread, the Hajnal diameter of theta
    outside = hajnal_diameter(traj.phases) > r
    exits = [float(traj.times[row.argmax()]) if row.any() else None
             for row in np.atleast_2d(outside)]
    return exits if outside.ndim == 2 else exits[0]


def pd_divergence(traj_a: PhaseTrajectory, traj_b: PhaseTrajectory) -> np.ndarray:
    """max_{i>j} |pd_a_ij(t) - pd_b_ij(t)| at each time of two runs on the same grid.

    Computed as the Hajnal diameter of delta(t) = theta_a(t) - theta_b(t),
    which equals the maximum pairwise PD discrepancy and is invariant to
    global phase shifts of either run. Two batches give an (R, N+1) array,
    one row per pair of runs.
    """
    if traj_a.times.shape != traj_b.times.shape or not np.allclose(
        traj_a.times, traj_b.times, rtol=0.0, atol=1e-12
    ):
        raise ValueError("trajectories are sampled on different grids")
    return hajnal_diameter(traj_a.phases - traj_b.phases)
