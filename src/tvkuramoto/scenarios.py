"""Experiment drivers: periodic switching, small perturbations, fast switching.

The perturbation and fast-switching experiments start at the static phase
lock theta_i(t) = Omega*t + rep_i, which Newton's method finds from the given
start when it is linearly stable; failing that, the static system is integrated
one second at a time by the package's one RK4 routine, and Newton is tried
again from the state at the start of each second. Every phase, velocity and
deviation spread is `dynamics.hajnal_diameter`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from tvkuramoto import certificates, dynamics, graph, linalg
from tvkuramoto.signals import (PeriodError, SinusoidSignal, TimeSignal, _numbers,
                                check_alignment, common_period)


@dataclass(frozen=True)
class PhaseLockedState:
    """Rotating solution with constant PDs: theta_i(t) = collective_rate*t + rep_phases_i."""

    collective_rate: float        # common frequency of the lock (rad/s)
    pd: np.ndarray                # constant phase differences, i > j order
    rep_phases: np.ndarray        # representative phases with rep_phases[0] = 0
    omega_bar: np.ndarray         # static frequencies the lock belongs to
    coupling_bar: np.ndarray      # static couplings the lock belongs to
    lock_time: float              # hand-over time: 0 when Newton locks from theta0
    residual: float               # max_i |rhs_i - collective_rate| at the lock
    newton_iterations: int        # Newton steps from the hand-over state
    verified: bool                # a static stability certificate passed
    certificate: str              # which certificate verified it ("" if none)


class NoLockError(RuntimeError):
    """The static system failed to phase-lock within the search horizon."""


_HANDOVER_SPREAD = 1e-8  # velocity spread at which a linearly stable Newton lock is handed over
_HANDOVER_WINDOW = 1.0   # relaxation time between Newton attempts (s)
_NEWTON_MAX_ITER = 50


def _static_certificate(a_bar: np.ndarray, r: float):
    """Cheapest applicable static certificate: xi < 0, else lambda2 > 0 if symmetric PSD."""
    xi = certificates.xi_index(a_bar, r)
    if xi < 0:
        return True, f"xi({r:.4g}) = {xi:.4g} < 0"
    fault, low = certificates.psd_fault(graph.laplacian_from_adjacency(a_bar))
    if fault is None and low > 1e-12:
        return True, f"lambda2 = {low:.4g} > 0 (symmetric PSD)"
    return False, ""


def _jacobian(a: np.ndarray, theta: np.ndarray):
    """Jacobian Y of the static rhs at theta, and sin(theta_j - theta_i).

    y_ij = a_ij cos(theta_j - theta_i) off the diagonal, diagonal set for zero
    row sums; it is also the matrix of the first-order correction's ODE.
    """
    diff = theta[None, :] - theta[:, None]  # diff[i, j] = theta_j - theta_i
    y = a * np.cos(diff)
    np.fill_diagonal(y, 0.0)
    np.fill_diagonal(y, -y.sum(axis=1))
    return y, np.sin(diff)


def _newton_lock(w, a, theta, deriv_tol: float):
    """Newton's method on rhs(theta) = Omega for (theta_1..theta_{m-1}, Omega), theta_0 fixed.

    The Jacobian is the bordered matrix [[Y, -1], [e_0^T, 0]]. Steps continue
    until the phase-velocity spread falls below deriv_tol, plus one step that
    takes it to rounding level; a singular system ends them early. Returns
    (phases, velocities, steps taken).
    """
    m = theta.size
    bordered = np.zeros((m + 1, m + 1))
    bordered[:m, m] = -1.0
    bordered[m, 0] = 1.0
    th = theta.copy()
    rate = dynamics._rhs(th, w, a, np.empty(m))
    omega = float(rate.mean())
    steps, met = 0, False
    while not met and steps < _NEWTON_MAX_ITER:
        met = dynamics.hajnal_diameter(rate) < deriv_tol
        bordered[:m, :m] = _jacobian(a, th)[0]
        try:
            step = np.linalg.solve(bordered, np.append(omega - rate, 0.0))
        except np.linalg.LinAlgError:
            break
        th += step[:m]
        omega += float(step[m])
        rate = dynamics._rhs(th, w, a, np.empty(m))
        steps += 1
    return th, rate, steps


def _relax(w, a, r: float, theta0, dt: float, t_max: float, deriv_tol: float):
    """RK4 relaxation of the static system one _HANDOVER_WINDOW at a time, Newton
    tried from the state at t = 0, before any step, and at each whole window
    before t_max.

    An attempt takes over when it reaches a velocity spread below
    _HANDOVER_SPREAD at a linearly stable lock. Returns the hand-over time, the
    RK4 state there and Newton's (phases, velocities, steps). Raises
    NoLockError if a state before t_max leaves the half-width-r hypercube
    first, or if no attempt takes over.
    """
    every = max(int(round(_HANDOVER_WINDOW / dt)), 1)
    nsteps = max(int(round(t_max / dt)), 0)
    basis = linalg._ones_complement_basis(theta0.size)
    out = np.empty((every + 1, theta0.size))
    x = theta0
    rhs = dynamics._kuramoto(x.shape, False)
    for k in range(0, max(nsteps, 1), every):  # Newton from theta0 even when RK4 takes no step
        th, rate, steps = _newton_lock(w, a, x, min(deriv_tol, _HANDOVER_SPREAD))
        if dynamics.hajnal_diameter(rate) < _HANDOVER_SPREAD:
            # Y 1 = 0, so Y on the ones-complement has every eigenvalue but the zero mode
            modes = np.linalg.eigvals(basis.T @ _jacobian(a, th)[0] @ basis)
            if modes.real.max() < 0:
                return k * dt, x, (th, rate, steps)
        n = min(every, nsteps - k)
        x = dynamics._rk4(lambda y, dy: rhs(y, w, a, dy), x, k * dt, dt, n, out=out[:n + 1])
        outside = dynamics.hajnal_diameter(out[:max(n, 1)]) > r  # the states at steps k .. k+n-1
        if outside.any():
            raise NoLockError(f"phases left the PD region (half-width {r:.4g}) at "
                              f"t = {(k + outside.argmax()) * dt:.3f} s")
    raise NoLockError(
        f"no phase lock within {t_max} s (derivative spread "
        f"{dynamics.hajnal_diameter(rhs(x, w, a, np.empty(x.shape))):.3g} at the horizon)")


def phase_locked_equilibrium(omega_bar, a_bar, r: float, theta0,
                             dt: float = 1e-3, t_max: float = 500.0,
                             deriv_tol: float = 1e-10) -> PhaseLockedState:
    """Find the static system's phase lock: Newton first, RK4 relaxation if it must.

    Newton's method solves omega_i + sum_j a_ij sin(theta_j - theta_i) = Omega,
    theta_0 held, from theta0 until the velocity spread is below deriv_tol
    (1e-8 at most). A linearly stable lock with a spread below 1e-8 is taken
    at lock_time 0; otherwise RK4 relaxes from theta0 and Newton is tried from
    its state at each whole second. A symmetric nonnegative connected
    coupling has one lock with every |theta_ij| < pi/2, and it is
    exponentially stable (Dorfler & Bullo, Automatica 50, 2014), so Newton
    lands on the lock the relaxation reaches; a signed or directed coupling
    may give a stable lock where the relaxation would leave the region.
    Raises NoLockError when the relaxation leaves the half-width-r hypercube
    or finds no lock by t_max, when the lock leaves the hypercube, or when
    Newton does not reach deriv_tol.
    """
    _numbers("dt", dt, 0, ">0")
    w = np.asarray(omega_bar, dtype=float)
    a = np.asarray(a_bar, dtype=float)
    th = np.asarray(theta0, dtype=float)
    m = th.size
    if w.shape != (m,) or a.shape != (m, m):
        raise ValueError("omega_bar / a_bar dimensions do not match theta0")

    lock_time, _, (th, rate, steps) = _relax(w, a, r, th, dt, t_max, deriv_tol)
    spread = dynamics.hajnal_diameter(rate)
    if not spread < deriv_tol:
        raise NoLockError(f"Newton reached a derivative spread of {spread:.3g} after {steps} "
                          f"steps, not below {deriv_tol:.3g}")
    if dynamics.hajnal_diameter(th) > r:
        raise NoLockError(f"the Newton lock leaves the PD region (half-width {r:.4g}): "
                          f"phase spread {dynamics.hajnal_diameter(th):.4g}")

    omega_lock = float(rate.mean())
    verified, cert = _static_certificate(a, r)
    return PhaseLockedState(
        collective_rate=omega_lock,
        pd=dynamics.phase_differences(th),
        rep_phases=th - th[0],
        omega_bar=w.copy(),
        coupling_bar=a.copy(),
        lock_time=float(lock_time),
        residual=float(np.abs(rate - omega_lock).max()),
        newton_iterations=steps,
        verified=verified,
        certificate=cert,
    )


def _period_run(pd0: np.ndarray, omega: TimeSignal, coupling: TimeSignal, period: float,
                dt: float, r: "float | None") -> dynamics.PhaseTrajectory:
    """One period from the PD vector pd0, lifted to phases with theta_1 = 0 (any
    other lift differs by a global shift the dynamics quotient out). With r
    given, leaving the PD hypercube mid-period is an error since it breaks the
    contraction argument."""
    traj = dynamics.simulate(dynamics.phases_from_pd(pd0), omega, coupling, period, dt)
    if r is not None:
        exit_time = dynamics.invariance_monitor(traj, r)
        if exit_time is not None:
            raise RuntimeError(f"PDs left the half-width-{r:.4g} region at t = {exit_time:.4f} s "
                               "during the period map")
    return traj


def poincare_map(pd0: np.ndarray, omega: TimeSignal, coupling: TimeSignal,
                 period: float, dt: float, r: "float | None" = None) -> np.ndarray:
    """PD-to-PD map over one forcing period, the PDs at the end of _period_run."""
    return dynamics.phase_differences(_period_run(pd0, omega, coupling, period, dt, r).final())


@dataclass(frozen=True)
class PeriodicPDOrbit:
    """Fixed point of the period map and the map's own run over one period from it."""

    period: float
    times: np.ndarray        # grid over [0, period]
    pd_samples: np.ndarray   # (N+1, m(m-1)/2): x, then H(x) in the last row
    residual: float          # fixed-point residual ||H(x) - x||, the orbit's endpoint mismatch
    iterations: int

    @property
    def fixed_point(self) -> np.ndarray:
        """H(x), the last row: the nearer of x and H(x) to the fixed point."""
        return self.pd_samples[-1].copy()


def find_periodic_pd(omega: TimeSignal, coupling: TimeSignal, period: float,
                     pd_seed, tol: float = 1e-10, max_iter: int = 200,
                     dt: float = 1e-3, r: "float | None" = None) -> PeriodicPDOrbit:
    """Iterate the period map H to its unique fixed point; the orbit is the PDs of
    the last map's run, from the last iterate x to H(x).

    Convergence is guaranteed when one of the stability certificates for the
    schedule passes (the map is then a contraction after finitely many
    periods); non-convergence suggests a failing certificate or loss of
    invariance.
    """
    pd = np.asarray(pd_seed, dtype=float)
    residual = math.inf
    for it in range(1, max_iter + 1):
        run = _period_run(pd, omega, coupling, period, dt, r)
        samples = run.phase_differences()  # row 0 is x as the lift gives it back
        residual = float(np.linalg.norm(samples[-1] - samples[0]))
        if residual < tol:
            break
        pd = samples[-1]
    else:
        raise RuntimeError(
            f"period map did not reach a fixed point in {max_iter} iterations "
            f"(residual {residual:.3g}); check the stability certificate")
    return PeriodicPDOrbit(period, run.times, samples, residual, it)


@dataclass(frozen=True)
class PerturbationExpansion:
    """First-order response of a locked system to zero-mean periodic forcing."""

    epsilon: float
    base: PhaseLockedState
    times: np.ndarray
    phi: np.ndarray          # (N+1, m) first-order phase correction
    bound: float             # observed sup-norm of phi

    def approx_phases(self) -> np.ndarray:
        """theta_bar(t) + epsilon * phi(t) on the sample grid."""
        base_phases = self.base.rep_phases[None, :] + \
            self.base.collective_rate * self.times[:, None]
        return base_phases + self.epsilon * self.phi


def _harmonic_parts(sig: TimeSignal):
    """(time_scale, base, cos coefficient, sin coefficient) of a constant or
    sinusoid signal, time_scale None for a constant; None for any other kind."""
    if sig.is_constant:
        return None, sig.evaluate(0.0), 0.0, 0.0
    if isinstance(sig, SinusoidSignal):
        return sig.time_scale, sig.base, sig._cos_coef, sig._sin_coef
    return None


_PHI_BLOCK = 512  # rows of phi per block of the closed form, so its temporaries stay small


def linear_correction(base: PhaseLockedState, omega_pert: TimeSignal,
                      coupling_pert: TimeSignal, t_end: float, dt: float):
    """Solve phi' = z(t) + Y phi from phi(0) = 0 on the dt grid over [0, t_end].

    Y is the lock's Jacobian y_ij = a_bar_ij cos(theta_bar_ji) with zero row
    sums; z collects the forcing projected onto the locked geometry,
    z_i = omega_pert_i + sum_j coupling_pert_ij sin(theta_bar_ji). When Y is
    symmetric and both forcings are constant or sinusoidal on one common
    time_scale, z = g0 + gc cos(wt) + gs sin(wt) and phi is summed in closed
    form over the eigen-modes of Y. Every other input is integrated by RK4.
    """
    y, sin_lock = _jacobian(base.coupling_bar, base.rep_phases)
    m = y.shape[0]
    nsteps = check_alignment([omega_pert, coupling_pert], 0.0, t_end, dt)
    times = np.arange(nsteps + 1) * dt
    parts = [_harmonic_parts(omega_pert), _harmonic_parts(coupling_pert)]
    scales = {p[0] for p in parts if p is not None and p[0] is not None}
    out = np.empty((nsteps + 1, m))
    if None in parts or len(scales) > 1 or not np.array_equal(y, y.T):
        dynamics._rk4(lambda phi, w, a, k: np.add(w + (a * sin_lock).sum(axis=1), y @ phi, out=k),
                      np.zeros(m), 0.0, dt, nsteps, (omega_pert, coupling_pert), out=out)
        return times, out

    (_, w0, wc, ws), (_, a0, ac, as_) = parts
    lam, vecs = np.linalg.eigh(y)
    # forcing of each eigen-mode: g0 + gc cos(freq t) + gs sin(freq t)
    g0, gc, gs = ((np.broadcast_to(wv, (m,)) + (av * sin_lock).sum(axis=1)) @ vecs
                  for wv, av in ((w0, a0), (wc, ac), (ws, as_)))
    freq = 1.0 / scales.pop() if scales else 1.0
    den = lam ** 2 + freq ** 2
    p_c = -(lam * gc + freq * gs) / den
    p_s = (freq * gc - lam * gs) / den
    zero = lam == 0.0
    lam_nonzero = np.where(zero, 1.0, lam)
    for lo in range(0, nsteps + 1, _PHI_BLOCK):
        t = times[lo:lo + _PHI_BLOCK, None]
        lt = lam * t
        # psi = Pc cos + Ps sin - e^{lam t} Pc + g0 (e^{lam t} - 1)/lam, g0 t when lam = 0
        psi = p_c * np.cos(freq * t) + p_s * np.sin(freq * t) - np.exp(lt) * p_c \
            + g0 * np.where(zero, t, np.expm1(lt) / lam_nonzero)
        if not np.isfinite(psi).all():
            raise RuntimeError(f"first-order correction overflows by t = {t[-1, 0]:.6f} s")
        out[lo:lo + _PHI_BLOCK] = psi @ vecs.T
    return times, out


def first_order_approx(base: PhaseLockedState, omega_pert: TimeSignal,
                       coupling_pert: TimeSignal, epsilon: float, t_end: float,
                       dt: float) -> PerturbationExpansion:
    """Build the first-order expansion theta = theta_bar + epsilon*phi + o(epsilon).

    The forcing signals must be periodic with zero mean over one period
    (checked to 1e-9); phi starts at zero so the expansion shares the lock's
    initial phases.
    """
    for name, sig in (("omega_pert", omega_pert), ("coupling_pert", coupling_pert)):
        if sig.period is None:
            raise ValueError(f"{name} must be periodic")
        integral = np.asarray(sig.integrate_window(0.0, sig.period))
        if np.abs(integral).max() > 1e-9:
            raise ValueError(f"{name} is not zero-mean over its period "
                             f"(max |integral| = {np.abs(integral).max():.3g})")
    times, phi = linear_correction(base, omega_pert, coupling_pert, t_end, dt)
    return PerturbationExpansion(
        epsilon=epsilon, base=base, times=times, phi=phi,
        bound=float(np.abs(phi).max()),
    )


@dataclass(frozen=True)
class FastSwitchReport:
    """Tail PD deviations from the averaged lock across switching frequencies."""

    frequencies: np.ndarray   # switching frequencies (Hz), strictly increasing
    epsilons: np.ndarray      # matching compression factors
    tails: np.ndarray         # sup over the tail window of max_ij |pd_ij - pd_bar_ij|
    base: PhaseLockedState    # lock of the averaged system
    invariant: np.ndarray     # bool per frequency: PDs stayed in the region
    deviation_series: list    # per frequency: (times, deviations)
    runs: list                # per frequency: its dynamics.PhaseTrajectory
    schedule_certified: bool  # every sampled Laplacian symmetric and PSD
    certification_notes: str  # first violation when not certified


def fast_switching_sweep(omega_base: TimeSignal, coupling_base: TimeSignal,
                         frequencies, r: float, t_end: float = 40.0,
                         dt_target: float = 1e-3, tail_fraction: float = 0.2) -> FastSwitchReport:
    """Compare the switched system against its averaged lock across frequencies.

    The base schedule is compressed so that the switch rate equals each
    requested frequency; each run starts at the averaged lock and the
    deviation max_ij |theta_ij(t) - pd_bar_ij| is measured over the trailing
    window. The symmetric-PSD certification of the schedule is recorded in
    the report (not an abort condition); a non-positive averaged algebraic
    connectivity or a non-locking averaged system does abort.
    """
    graph.check_coupling(coupling_base)
    if coupling_base.period is None or omega_base.period is None:
        raise PeriodError("fast switching needs periodic base signals")
    freqs = np.sort(_numbers("frequencies", frequencies, 1, ">0"))
    if freqs.size == 0:
        raise ValueError("frequencies must be a nonempty list")
    _numbers("t_end", t_end, 0, ">0")
    if _numbers("tail_fraction", tail_fraction, 0, ">0") > 1:
        raise ValueError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")

    fault = certificates.first_psd_fault(coupling_base)
    notes = ""
    if fault is not None:
        t, _, low = fault
        notes = (f"coupling schedule is not symmetric at t = {t}" if low is None
                 else f"coupling Laplacian is not PSD at t = {t} (eigenvalue {low:.4g})")

    a_bar = np.asarray(coupling_base.window_average(0.0, coupling_base.period))
    w_bar = np.asarray(omega_base.window_average(0.0, omega_base.period))
    lam2 = linalg.lambda2(graph.laplacian_from_adjacency(a_bar))
    if lam2 <= 0:
        raise ValueError(f"averaged algebraic connectivity {lam2:.4g} is not positive")
    try:
        base = phase_locked_equilibrium(w_bar, a_bar, r, np.zeros(a_bar.shape[0]),
                                        dt=dt_target)
    except NoLockError as exc:
        raise RuntimeError(f"averaged system failed to lock: {exc}") from exc

    switches_per_period = max(len(coupling_base.breakpoints()), 1)
    tails, eps_list, invariant, series, runs = [], [], [], [], []
    for h in freqs:
        eps = switches_per_period / (float(h) * coupling_base.period)
        omega_h = omega_base.time_compress(eps)
        coupling_h = coupling_base.time_compress(eps)
        piece = coupling_h.period / switches_per_period
        nsub = max(int(math.ceil(piece / dt_target)), 1)
        dt_h = piece / nsub
        n_steps = int(round(t_end / dt_h))
        traj = dynamics.simulate(base.rep_phases, omega_h, coupling_h, n_steps * dt_h, dt_h)
        dev = dynamics.hajnal_diameter(traj.phases - base.rep_phases)
        tail_n = max(int(len(dev) * tail_fraction), 1)
        tails.append(float(dev[-tail_n:].max()))
        eps_list.append(eps)
        invariant.append(dynamics.invariance_monitor(traj, r) is None)
        series.append((traj.times, dev))
        runs.append(traj)
    return FastSwitchReport(freqs, np.array(eps_list), np.array(tails), base,
                            np.array(invariant), series, runs,
                            not notes, notes)


_ER_MAX_ATTEMPTS = 10_000


def er_random_network(m: int, p: float, seed: int) -> np.ndarray:
    """Adjacency (0/1, zero diagonal) of a seeded connected undirected random graph.

    Draws are deterministic in (seed, attempt); the attempt counter is the
    documented sub-seed incremented until the sample is connected.
    """
    if _numbers("linking probability p", p, 0, ">0") > 1:
        raise ValueError(f"linking probability must be in (0, 1], got {p}")
    if m < 2:
        raise ValueError(f"need at least two nodes, got {m}")
    for attempt in range(_ER_MAX_ATTEMPTS):
        rng = np.random.default_rng([int(seed), attempt])
        upper = np.triu(rng.random((m, m)) < p, k=1)
        adj = (upper | upper.T).astype(float)
        if graph.has_spanning_tree(adj != 0):  # symmetric, so rooted == connected
            return adj
    raise RuntimeError(f"no connected draw in {_ER_MAX_ATTEMPTS} attempts (p too small?)")


# ----------------------------------------------------------------------------
# Experiment drivers (the CLI wraps these with file output)


def _check_draws(seed, **bounds) -> None:
    """ValueError naming the parameter at fault unless seed is a non-negative integer (not
    a bool) and every bound is finite, the first (a range's low end) at most the second."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    for name, value in bounds.items():
        _numbers(name, value, 0)
    (low_name, low), (high_name, high) = list(bounds.items())[:2]
    if low > high:
        raise ValueError(f"{low_name} must be at most {high_name} = {high}, got {low}")


@dataclass(frozen=True)
class ApExperimentResult:
    runs: list                  # PhaseTrajectory per initial condition
    exit_times: list            # None per run when invariant
    orbit: PeriodicPDOrbit
    max_divergence_after: float  # worst pairwise PD divergence at t >= divergence_from
    divergence_from: float
    max_distance_to_orbit_end: float
    certificate: certificates.CertificateReport


def ap_experiment(omega: TimeSignal, coupling: TimeSignal, r: float,
                  num_runs: int = 10, ic_low: float = -math.pi / 6,
                  ic_high: float = math.pi / 6, seed: int = 0,
                  t_end: float = 60.0, dt: float = 1e-3,
                  divergence_from: float = 40.0, eta: float = 0.01,
                  orbit_tol: float = 1e-10, orbit_max_iter: int = 200) -> ApExperimentResult:
    """Multi-start runs plus the periodic PD orbit over the signals' common period."""
    num_runs = certificates._positive_int("num_runs", num_runs)
    orbit_max_iter = certificates._positive_int("orbit_max_iter", orbit_max_iter)
    _numbers("orbit_tol", orbit_tol, 0, ">0")
    _check_draws(seed, ic_low=ic_low, ic_high=ic_high)
    _numbers("divergence_from", divergence_from, 0, ">=0")
    if num_runs >= 2 and divergence_from > t_end:
        raise ValueError(f"divergence_from must be at most t_end = {t_end} with two runs or "
                         f"more, got {divergence_from}")
    period = common_period([omega, coupling])
    if period is None or any(sig.period is None and not sig.is_constant
                             for sig in (omega, coupling)):
        raise PeriodError("the signals must be periodic or constant, and not both constant")
    m = coupling.shape[0]

    cert = certificates.thm2_window_check(coupling, r, period, eta)

    theta0 = np.array([np.random.default_rng([int(seed), k]).uniform(ic_low, ic_high, m)
                       for k in range(num_runs)])
    batch = dynamics.simulate(theta0, omega, coupling, t_end, dt)
    runs = [dynamics.PhaseTrajectory(batch.times, phases) for phases in batch.phases]
    exits = dynamics.invariance_monitor(batch, r)

    worst_div = 0.0
    start_idx = int(round(divergence_from / dt))
    for i in range(num_runs):
        for j in range(i + 1, num_runs):
            div = dynamics.pd_divergence(runs[i], runs[j])
            worst_div = max(worst_div, float(div[start_idx:].max()))

    orbit = find_periodic_pd(omega, coupling, period,
                             dynamics.phase_differences(runs[0].final()),
                             tol=orbit_tol, max_iter=orbit_max_iter, dt=dt, r=r)

    # runs end on a period boundary when t_end is a multiple of the period
    n_period = t_end / period
    if abs(n_period - round(n_period)) < 1e-9:
        target = orbit.fixed_point
    else:
        phase = (t_end % period) / dt
        target = orbit.pd_samples[int(round(phase))]
    dist_end = max(
        float(np.abs(dynamics.phase_differences(run.final()) - target).max())
        for run in runs
    )
    return ApExperimentResult(runs, exits, orbit, worst_div, divergence_from, dist_end, cert)


@dataclass(frozen=True)
class PerturbationExperimentResult:
    base: PhaseLockedState
    expansion: PerturbationExpansion
    full_run: dynamics.PhaseTrajectory
    approx_error: float          # max_t |theta_1 - (theta_bar_1 + eps*phi_1)|
    approx_error_half: float     # same at eps/2
    error_ratio: float
    exit_time: "float | None"
    max_pd_deviation: float      # from the static locked PDs
    certificate: certificates.CertificateReport


def perturbation_experiment(m: int = 20, p: float = 0.2, seed: int = 1,
                            epsilon: float = 0.1, r: float = math.pi / 3,
                            omega_low: float = 0.9, omega_high: float = 1.1,
                            t_end: float = 50.0, dt: float = 1e-3) -> PerturbationExperimentResult:
    """Small-perturbation experiment on a seeded connected random graph.

    Unit couplings on the edges are modulated by eps*cos(t + beta_ij) and the
    frequencies by eps*sin(t + alpha_i), with the modulation phases drawn
    uniformly from [-r/2, r/2]. The full run starts exactly at the static lock
    so the expansion shares its initial condition.
    """
    _check_draws(seed, omega_low=omega_low, omega_high=omega_high, epsilon=epsilon)
    mask = er_random_network(m, p, seed)
    rng = np.random.default_rng([int(seed), 90001])
    omega_bar = rng.uniform(omega_low, omega_high, m)
    alpha = rng.uniform(-r / 2, r / 2, m)
    beta_upper = np.triu(rng.uniform(-r / 2, r / 2, (m, m)), k=1)
    beta = beta_upper + beta_upper.T

    base = phase_locked_equilibrium(omega_bar, mask, r, np.zeros(m), dt=dt)

    omega_pert = SinusoidSignal(np.zeros(m), np.ones(m), alpha, trig="sin")
    coupling_pert = SinusoidSignal(np.zeros((m, m)), mask, beta, trig="cos")
    expansion = first_order_approx(base, omega_pert, coupling_pert, epsilon, t_end, dt)

    # the eps and eps/2 runs are one batch, each run reading its own row of the signals
    scale = np.array([epsilon, epsilon / 2])
    omega_full = SinusoidSignal(omega_bar, scale[:, None] * np.ones(m), alpha, trig="sin")
    coupling_full = SinusoidSignal(mask, scale[:, None, None] * mask, beta, trig="cos")
    batch = dynamics.simulate(np.stack([base.rep_phases] * 2), omega_full, coupling_full,
                              t_end, dt)
    full, half = (dynamics.PhaseTrajectory(batch.times, phases) for phases in batch.phases)
    approx = expansion.approx_phases()
    err = float(np.abs(full.phases[:, 0] - approx[:, 0]).max())
    approx_half = replace(expansion, epsilon=epsilon / 2).approx_phases()
    err_half = float(np.abs(half.phases[:, 0] - approx_half[:, 0]).max())

    max_dev = float(dynamics.hajnal_diameter(full.phases - base.rep_phases).max())

    cert = certificates.cor1_sliding_window_check(
        SinusoidSignal(mask, epsilon * mask, beta, trig="cos"), 2 * math.pi,
        eta=0.5 * float(2 * math.pi * (1 - epsilon)))

    return PerturbationExperimentResult(
        base=base, expansion=expansion, full_run=full,
        approx_error=err, approx_error_half=err_half,
        error_ratio=err / err_half if err_half > 0 else math.inf,
        exit_time=dynamics.invariance_monitor(full, r),
        max_pd_deviation=max_dev, certificate=cert,
    )
