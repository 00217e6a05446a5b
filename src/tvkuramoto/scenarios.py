"""Experiment drivers: periodic switching, small perturbations, fast switching.

All three build on the static phase-locked equilibrium finder, which locates a
rotating solution theta_i(t) = Omega*t + rep_i with constant phase differences
by integrating until the PD derivatives vanish over a trailing window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tvkuramoto import certificates, dynamics, graph, linalg
from tvkuramoto.signals import SinusoidSignal, TimeSignal, check_alignment


@dataclass(frozen=True)
class PhaseLockedState:
    """Rotating solution with constant PDs: theta_i(t) = collective_rate*t + rep_phases_i."""

    collective_rate: float        # common frequency of the lock (rad/s)
    pd: np.ndarray                # constant phase differences, i > j order
    rep_phases: np.ndarray        # representative phases with rep_phases[0] = 0
    omega_bar: np.ndarray         # static frequencies the lock belongs to
    coupling_bar: np.ndarray      # static couplings the lock belongs to
    lock_time: float              # first time the derivative criterion held for a full window
    residual: float               # max_i |rhs_i - collective_rate| at the lock
    verified: bool                # a static stability certificate passed
    certificate: str              # which certificate verified it ("" if none)


class NoLockError(RuntimeError):
    """The static system failed to phase-lock within the search horizon."""


def _static_certificate(a_bar: np.ndarray, r: float):
    """Cheapest applicable static certificate: xi < 0, else lambda2 > 0 if symmetric PSD."""
    xi = certificates.xi_index(a_bar, r)
    if xi < 0:
        return True, f"xi({r:.4g}) = {xi:.4g} < 0"
    lap = graph.laplacian_from_adjacency(a_bar)
    scale = max(1.0, float(np.abs(lap).max()))
    if np.abs(lap - lap.T).max() <= 1e-10 * scale:
        spec = linalg.restricted_spectrum(lap)
        if spec[0] >= -1e-9 and spec[0] > 1e-12:
            return True, f"lambda2 = {spec[0]:.4g} > 0 (symmetric PSD)"
    return False, ""


def phase_locked_equilibrium(omega_bar, a_bar, r: float, theta0,
                             dt: float = 1e-3, t_max: float = 500.0,
                             window: float = 1.0, deriv_tol: float = 1e-10) -> PhaseLockedState:
    """Run the static system until the PDs stop moving and read off the lock.

    Locking is declared when the spread of the phase velocities (equal to the
    largest |d theta_ij / dt|) stays below deriv_tol for a full trailing
    window. Raises NoLockError after t_max, and errors out if the phases leave
    the half-width-r hypercube during the search.
    """
    w = np.asarray(omega_bar, dtype=float)
    a = np.asarray(a_bar, dtype=float)
    th = np.asarray(theta0, dtype=float).copy()
    m = th.size
    if w.shape != (m,) or a.shape != (m, m):
        raise ValueError("omega_bar / a_bar dimensions do not match theta0")

    def rhs(x):
        diff = x[None, :] - x[:, None]
        return w + (a * np.sin(diff)).sum(axis=1)

    need = max(int(round(window / dt)), 1)
    consec = 0
    nsteps = int(round(t_max / dt))
    k1 = rhs(th)
    for k in range(nsteps):
        k1 = rhs(th)
        if th.max() - th.min() > r:
            raise NoLockError(f"phases left the PD region (half-width {r:.4g}) at t = {k * dt:.3f} s")
        if float(k1.max() - k1.min()) < deriv_tol:
            consec += 1
            if consec >= need:
                break
        else:
            consec = 0
        k2 = rhs(th + 0.5 * dt * k1)
        k3 = rhs(th + 0.5 * dt * k2)
        k4 = rhs(th + dt * k3)
        th = th + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:
        raise NoLockError(
            f"no phase lock within {t_max} s (derivative spread "
            f"{float(k1.max() - k1.min()):.3g} at the horizon)")

    lock_time = (k + 1 - need) * dt
    omega_lock = float(k1.mean())
    verified, cert = _static_certificate(a, r)
    return PhaseLockedState(
        collective_rate=omega_lock,
        pd=dynamics.phase_differences(th),
        rep_phases=th - th[0],
        omega_bar=w.copy(),
        coupling_bar=a.copy(),
        lock_time=float(lock_time),
        residual=float(np.abs(k1 - omega_lock).max()),
        verified=verified,
        certificate=cert,
    )


def poincare_map(pd0: np.ndarray, omega: TimeSignal, coupling: TimeSignal,
                 period: float, dt: float, r: "float | None" = None) -> np.ndarray:
    """PD-to-PD map over one forcing period.

    The PD vector is lifted to phases with theta_1 = 0 (any other lift differs
    by a global shift the dynamics quotient out), integrated for one period,
    and projected back. With r given, leaving the PD hypercube mid-period is
    an error since it breaks the contraction argument.
    """
    pd0 = np.asarray(pd0, dtype=float)
    m = int(round((1 + math.sqrt(1 + 8 * pd0.size)) / 2))
    theta0 = dynamics.phases_from_pd(pd0, m)
    traj = dynamics.simulate(theta0, omega, coupling, period, dt)
    if r is not None:
        exit_time = dynamics.invariance_monitor(traj, r)
        if exit_time is not None:
            raise RuntimeError(f"PDs left the half-width-{r:.4g} region at t = {exit_time:.4f} s "
                               "during the period map")
    return dynamics.phase_differences(traj.final())


@dataclass(frozen=True)
class PeriodicPDOrbit:
    """Fixed point of the period map, resampled over one period."""

    period: float
    times: np.ndarray        # grid over [0, period]
    pd_samples: np.ndarray   # (N+1, m(m-1)/2)
    residual: float          # fixed-point iteration residual ||H(pd) - pd||
    iterations: int

    @property
    def fixed_point(self) -> np.ndarray:
        return self.pd_samples[0].copy()


def find_periodic_pd(omega: TimeSignal, coupling: TimeSignal, period: float,
                     pd_seed, tol: float = 1e-10, max_iter: int = 200,
                     dt: float = 1e-3, r: "float | None" = None) -> PeriodicPDOrbit:
    """Iterate the period map to its unique fixed point and resample the orbit.

    Convergence is guaranteed when one of the stability certificates for the
    schedule passes (the map is then a contraction after finitely many
    periods); non-convergence suggests a failing certificate or loss of
    invariance.
    """
    pd = np.asarray(pd_seed, dtype=float).copy()
    residual = math.inf
    for it in range(1, max_iter + 1):
        pd_next = poincare_map(pd, omega, coupling, period, dt, r=r)
        residual = float(np.linalg.norm(pd_next - pd))
        pd = pd_next
        if residual < tol:
            break
    else:
        raise RuntimeError(
            f"period map did not reach a fixed point in {max_iter} iterations "
            f"(residual {residual:.3g}); check the stability certificate")
    m = int(round((1 + math.sqrt(1 + 8 * pd.size)) / 2))
    traj = dynamics.simulate(dynamics.phases_from_pd(pd, m), omega, coupling, period, dt)
    samples = traj.phase_differences()
    wrap = float(np.linalg.norm(samples[-1] - samples[0]))
    if wrap > 1e-8:
        raise RuntimeError(f"orbit endpoint mismatch {wrap:.3g} exceeds 1e-8")
    return PeriodicPDOrbit(period, traj.times, samples, residual, it)


@dataclass(frozen=True)
class PerturbationExpansion:
    """First-order response of a locked system to zero-mean periodic forcing."""

    epsilon: float
    base: PhaseLockedState
    times: np.ndarray
    phi: np.ndarray          # (N+1, m) first-order phase correction
    bound: float             # observed sup-norm of phi
    omega_pert: TimeSignal
    coupling_pert: TimeSignal

    def approx_phases(self) -> np.ndarray:
        """theta_bar(t) + epsilon * phi(t) on the sample grid."""
        base_phases = self.base.rep_phases[None, :] + \
            self.base.collective_rate * self.times[:, None]
        return base_phases + self.epsilon * self.phi


def linear_correction(base: PhaseLockedState, omega_pert: TimeSignal,
                      coupling_pert: TimeSignal, t_end: float, dt: float):
    """Integrate phi' = z(t) + Y phi from phi(0) = 0.

    Y is the lock's Jacobian y_ij = a_bar_ij cos(theta_bar_ji) with zero row
    sums; z collects the forcing projected onto the locked geometry.
    """
    rep = base.rep_phases
    m = rep.size
    diff = rep[None, :] - rep[:, None]       # diff[i, j] = theta_bar_j - theta_bar_i
    sin_lock = np.sin(diff)
    y = base.coupling_bar * np.cos(diff)
    np.fill_diagonal(y, 0.0)
    np.fill_diagonal(y, -y.sum(axis=1))

    def z_at(t):
        omega_v = omega_pert.evaluate(t)
        if isinstance(omega_v, float):
            omega_v = np.full(m, omega_v)
        a_v = np.asarray(coupling_pert.evaluate(t), dtype=float)
        return omega_v + (a_v * sin_lock).sum(axis=1)

    nsteps = check_alignment([omega_pert, coupling_pert], 0.0, t_end, dt)
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
    times = np.arange(nsteps + 1) * dt
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
        omega_pert=omega_pert, coupling_pert=coupling_pert,
    )


@dataclass(frozen=True)
class BoundednessResult:
    bounded: bool
    bound: float       # max_i sup_t |phi_i(t)| over the horizon
    tail_slope: float  # linear-fit slope of the running max, second half


def boundedness_check(expansion: PerturbationExpansion, horizon: float,
                      dt: float = 1e-3) -> BoundednessResult:
    """Re-integrate phi over the horizon and test the running max for growth.

    Bounded means the running maximum of |phi| grows slower than 1e-4 per
    second over the second half of the horizon (a drift this slow is
    indistinguishable from a bounded oscillation at these horizons).
    """
    times, phi = linear_correction(expansion.base, expansion.omega_pert,
                                   expansion.coupling_pert, horizon, dt)
    running = np.maximum.accumulate(np.abs(phi).max(axis=1))
    half = len(times) // 2
    slope = float(np.polyfit(times[half:], running[half:], 1)[0])
    return BoundednessResult(bounded=slope < 1e-4, bound=float(running[-1]), tail_slope=slope)


@dataclass(frozen=True)
class FastSwitchReport:
    """Tail PD deviations from the averaged lock across switching frequencies."""

    frequencies: np.ndarray   # switching frequencies (Hz), strictly increasing
    epsilons: np.ndarray      # matching compression factors
    tails: np.ndarray         # sup over the tail window of max_ij |pd_ij - pd_bar_ij|
    base: PhaseLockedState    # lock of the averaged system
    invariant: np.ndarray     # bool per frequency: PDs stayed in the region
    deviation_series: list    # per frequency: (times, deviations)
    adjacent_pd_series: list  # per frequency: (times, theta_i - theta_{i+1} columns)
    schedule_certified: bool  # every sampled Laplacian symmetric and PSD
    certification_notes: str  # first violation when not certified


def fast_switching_sweep(omega_base: TimeSignal, coupling_base: TimeSignal,
                         frequencies, r: float, t_end: float = 40.0,
                         dt_target: float = 1e-3, tail_fraction: float = 0.2,
                         lock_t_max: float = 500.0) -> FastSwitchReport:
    """Compare the switched system against its averaged lock across frequencies.

    The base schedule is compressed so that the switch rate equals each
    requested frequency; each run starts at the averaged lock and the
    deviation max_ij |theta_ij(t) - pd_bar_ij| is measured over the trailing
    window. The symmetric-PSD certification of the schedule is recorded in
    the report (not an abort condition); a non-positive averaged algebraic
    connectivity or a non-locking averaged system does abort.
    """
    if coupling_base.period is None or omega_base.period is None:
        raise ValueError("fast switching needs periodic base signals")
    freqs = np.asarray(sorted(frequencies), dtype=float)
    if freqs.size == 0 or freqs[0] <= 0:
        raise ValueError("switching frequencies must be positive")

    probe = np.unique(np.concatenate([
        coupling_base.breakpoints_in(0.0, coupling_base.period),
        np.linspace(0.0, coupling_base.period, 33, endpoint=False),
    ]))
    certified, notes = True, ""
    for t in probe:
        a = np.asarray(coupling_base.evaluate(float(t)), dtype=float)
        lap = graph.laplacian_from_adjacency(a)
        scale = max(1.0, float(np.abs(lap).max()))
        if np.abs(lap - lap.T).max() > 1e-10 * scale:
            certified, notes = False, f"coupling schedule is not symmetric at t = {t}"
            break
        low = float(linalg.restricted_spectrum(lap)[0])
        if low < -1e-9:
            certified = False
            notes = f"coupling Laplacian is not PSD at t = {t} (eigenvalue {low:.4g})"
            break

    a_bar = np.asarray(coupling_base.window_average(0.0, coupling_base.period).value)
    w_bar = np.asarray(omega_base.window_average(0.0, omega_base.period).value)
    lam2 = linalg.lambda2(graph.laplacian_from_adjacency(a_bar))
    if lam2 <= 0:
        raise ValueError(f"averaged algebraic connectivity {lam2:.4g} is not positive")
    try:
        base = phase_locked_equilibrium(w_bar, a_bar, r, np.zeros(a_bar.shape[0]),
                                        dt=dt_target, t_max=lock_t_max)
    except NoLockError as exc:
        raise RuntimeError(f"averaged system failed to lock: {exc}") from exc

    switches_per_period = max(len(coupling_base.breakpoints()), 1)
    tails, eps_list, invariant, series, adj_series = [], [], [], [], []
    for h in freqs:
        eps = switches_per_period / (float(h) * coupling_base.period)
        omega_h = omega_base.time_compress(eps)
        coupling_h = coupling_base.time_compress(eps)
        piece = coupling_h.period / switches_per_period
        nsub = max(int(math.ceil(piece / dt_target)), 1)
        dt_h = piece / nsub
        n_steps = int(round(t_end / dt_h))
        traj = dynamics.simulate(base.rep_phases, omega_h, coupling_h, n_steps * dt_h, dt_h)
        delta = traj.phases - base.rep_phases[None, :]
        dev = delta.max(axis=1) - delta.min(axis=1)
        spread = traj.phases.max(axis=1) - traj.phases.min(axis=1)
        tail_n = max(int(len(dev) * tail_fraction), 1)
        tails.append(float(dev[-tail_n:].max()))
        eps_list.append(eps)
        invariant.append(bool(spread.max() <= r))
        series.append((traj.times, dev))
        adj_series.append((traj.times, traj.phases[:, :-1] - traj.phases[:, 1:]))
    return FastSwitchReport(freqs, np.array(eps_list), np.array(tails), base,
                            np.array(invariant), series, adj_series,
                            certified, notes)


def er_random_network(m: int, p: float, seed: int,
                      max_attempts: int = 10_000) -> graph.SignedNetwork:
    """Seeded connected undirected 0/1 random graph.

    Draws are deterministic in (seed, attempt); the attempt counter is the
    documented sub-seed incremented until the sample is connected.
    """
    if not 0 < p <= 1:
        raise ValueError(f"linking probability must be in (0, 1], got {p}")
    if m < 2:
        raise ValueError(f"need at least two nodes, got {m}")
    for attempt in range(max_attempts):
        rng = np.random.default_rng([int(seed), attempt])
        upper = np.triu(rng.random((m, m)) < p, k=1)
        adj = (upper | upper.T).astype(float)
        if graph.has_spanning_tree(adj != 0):  # symmetric, so rooted == connected
            return graph.SignedNetwork(adj)
    raise RuntimeError(f"no connected draw in {max_attempts} attempts (p too small?)")


# ----------------------------------------------------------------------------
# Experiment drivers (the CLI wraps these with file output)


@dataclass(frozen=True)
class ApExperimentResult:
    runs: list                  # PhaseTrajectory per initial condition
    exit_times: list            # None per run when invariant
    orbit: PeriodicPDOrbit
    two_period_times: np.ndarray
    two_period_pd: np.ndarray
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
    """Periodic-switching experiment: multi-start runs plus the periodic PD orbit."""
    if coupling.period is None:
        raise ValueError("the switching schedule must be periodic")
    period = coupling.period
    m = np.asarray(coupling.evaluate(0.0)).shape[0]

    cert = certificates.thm2_window_check(coupling, r, period, eta)

    runs, exits = [], []
    for k in range(num_runs):
        rng = np.random.default_rng([int(seed), k])
        theta0 = rng.uniform(ic_low, ic_high, m)
        traj = dynamics.simulate(theta0, omega, coupling, t_end, dt)
        runs.append(traj)
        exits.append(dynamics.invariance_monitor(traj, r))

    worst_div = 0.0
    start_idx = int(round(divergence_from / dt))
    for i in range(num_runs):
        for j in range(i + 1, num_runs):
            div = dynamics.pd_divergence(runs[i], runs[j])
            worst_div = max(worst_div, float(div.values[start_idx:].max()))

    orbit = find_periodic_pd(omega, coupling, period,
                             dynamics.phase_differences(runs[0].final()),
                             tol=orbit_tol, max_iter=orbit_max_iter, dt=dt, r=r)
    two = dynamics.simulate(dynamics.phases_from_pd(orbit.fixed_point, m),
                            omega, coupling, 2 * period, dt)
    two_pd = two.phase_differences()

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
    return ApExperimentResult(runs, exits, orbit, two.times, two_pd,
                              worst_div, divergence_from, dist_end, cert)


@dataclass(frozen=True)
class PerturbationExperimentResult:
    network: graph.SignedNetwork
    base: PhaseLockedState
    expansion: PerturbationExpansion
    full_run: dynamics.PhaseTrajectory
    approx_error: float          # max_t |theta_1 - (theta_bar_1 + eps*phi_1)|
    approx_error_half: float     # same at eps/2
    error_ratio: float
    exit_time: "float | None"
    max_pd_deviation: float      # from the static locked PDs
    certificate: certificates.CertificateReport
    alpha: np.ndarray            # frequency modulation phases
    beta: np.ndarray             # coupling modulation phases


def perturbation_experiment(m: int = 20, p: float = 0.2, seed: int = 1,
                            epsilon: float = 0.1, r: float = math.pi / 3,
                            omega_low: float = 0.9, omega_high: float = 1.1,
                            t_end: float = 50.0, dt: float = 1e-3,
                            lock_t_max: float = 500.0) -> PerturbationExperimentResult:
    """Small-perturbation experiment on a seeded connected random graph.

    Unit couplings on the edges are modulated by eps*cos(t + beta_ij) and the
    frequencies by eps*sin(t + alpha_i), with the modulation phases drawn
    uniformly from [-r/2, r/2]. The full run starts exactly at the static lock
    so the expansion shares its initial condition.
    """
    net = er_random_network(m, p, seed)
    mask = net.adjacency
    rng = np.random.default_rng([int(seed), 90001])
    omega_bar = rng.uniform(omega_low, omega_high, m)
    alpha = rng.uniform(-r / 2, r / 2, m)
    beta_upper = np.triu(rng.uniform(-r / 2, r / 2, (m, m)), k=1)
    beta = beta_upper + beta_upper.T

    base = phase_locked_equilibrium(omega_bar, mask, r, np.zeros(m),
                                    dt=dt, t_max=lock_t_max)

    omega_pert = SinusoidSignal(np.zeros(m), np.ones(m), alpha, trig="sin")
    coupling_pert = SinusoidSignal(np.zeros((m, m)), mask, beta, trig="cos")
    expansion = first_order_approx(base, omega_pert, coupling_pert, epsilon, t_end, dt)

    def full_sim(eps):
        omega_full = SinusoidSignal(omega_bar, eps * np.ones(m), alpha, trig="sin")
        coupling_full = SinusoidSignal(mask, eps * mask, beta, trig="cos")
        return dynamics.simulate(base.rep_phases, omega_full, coupling_full, t_end, dt), \
            coupling_full

    full, coupling_full = full_sim(epsilon)
    approx = expansion.approx_phases()
    err = float(np.abs(full.phases[:, 0] - approx[:, 0]).max())

    half, _ = full_sim(epsilon / 2)
    approx_half = expansion.base.rep_phases[None, :] + \
        expansion.base.collective_rate * expansion.times[:, None] + \
        (epsilon / 2) * expansion.phi
    err_half = float(np.abs(half.phases[:, 0] - approx_half[:, 0]).max())

    delta = full.phases - base.rep_phases[None, :]
    max_dev = float((delta.max(axis=1) - delta.min(axis=1)).max())

    cert = certificates.cor1_sliding_window_check(
        coupling_full, 2 * math.pi, eta=0.5 * float(2 * math.pi * (1 - epsilon)))

    return PerturbationExperimentResult(
        network=net, base=base, expansion=expansion, full_run=full,
        approx_error=err, approx_error_half=err_half,
        error_ratio=err / err_half if err_half > 0 else math.inf,
        exit_time=dynamics.invariance_monitor(full, r),
        max_pd_deviation=max_dev, certificate=cert, alpha=alpha, beta=beta,
    )
