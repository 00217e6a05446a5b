"""Invariance and stability criteria for PD trajectories, as pure checks.

Every check returns a CertificateReport: a verdict (pass / fail / inconclusive)
plus the witnesses that certify it -- threshold margins, window averages,
eigenvalue series, or the earliest violating pair/window/time. Quantifiers over
all t >= 0 are evaluated on one period for periodic signals (sufficient by
periodicity) and on the supplied horizon otherwise; window integrals of the
coupling are exact for piecewise-constant signals and midpoint quadrature
aligned to breakpoints otherwise.

Sign convention for matrices quoted from the literature on switched oscillator
networks: a printed matrix with negative diagonal and zero row sums is
coupling-side, i.e. its off-diagonal entries are the couplings a_ij and the
Laplacian is its negation. This package always takes couplings as input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from tvkuramoto import graph
from tvkuramoto.dynamics import check_r
from tvkuramoto.graph import _pair_sums, _pair_tensors
from tvkuramoto.linalg import lambda2, restricted_spectrum
from tvkuramoto.signals import ConstantSignal, TableSignal, TimeSignal, sample_grid

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"


@dataclass(frozen=True)
class CertificateReport:
    """Verdict plus certifying witnesses for one stability criterion."""

    criterion: str
    verdict: str
    witnesses: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "verdict": self.verdict,
            "witnesses": _jsonable(self.witnesses),
            "parameters": _jsonable(self.parameters),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _frequencies_at(omega: TimeSignal, t: float, m: int) -> np.ndarray:
    w = omega.evaluate(t)
    if isinstance(w, float):
        return np.full(m, w)
    w = np.asarray(w, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"frequency signal shape {w.shape} does not match m={m}")
    return w


def _coupling_at(coupling: TimeSignal, t: float) -> np.ndarray:
    """Coupling matrix at t; every criterion needs an m x m matrix with m >= 2."""
    a = np.asarray(coupling.evaluate(t), dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"coupling signal must be matrix-valued, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError(f"coupling must couple at least two oscillators, got m={a.shape[0]}")
    return a


def invariance_pointwise(omega: TimeSignal, coupling: TimeSignal, r: float,
                         grid=None) -> CertificateReport:
    """Pointwise sufficient condition for the PD hypercube to be invariant.

    For every ordered pair i != j and every grid time, the drift margin

        w_i - w_j - [(a_ij + a_ji) + sum_neg + sum_common_min] * sin(r)

    must be strictly negative, where sum_neg collects the negative parts
    [a_ik]^- + [a_jk]^- outside the common positive neighborhood and
    sum_common_min the pairwise minima inside it.
    """
    check_r(r)
    if grid is None:
        grid = sample_grid([omega, coupling])
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty evaluation grid")
    sin_r = math.sin(r)
    worst = -math.inf
    worst_loc = None
    prev = None
    for t in grid:
        a = _coupling_at(coupling, float(t))
        if a is not prev:  # piecewise-constant signals return one array per piece
            prev = a
            m = a.shape[0]
            common_min, neg_sum = _pair_sums(a)
            mixing = ((a + a.T) + neg_sum + common_min) * sin_r
        w = _frequencies_at(omega, float(t), m)
        lhs = (w[:, None] - w[None, :]) - mixing
        np.fill_diagonal(lhs, -math.inf)
        k = int(np.argmax(lhs))
        i, j = divmod(k, m)
        if lhs[i, j] > worst:
            worst = float(lhs[i, j])
            worst_loc = (float(t), i + 1, j + 1)
    verdict = PASS if worst < 0.0 else FAIL
    return CertificateReport(
        "invariance-pointwise", verdict,
        witnesses={
            "max_lhs": worst,
            "margin": -worst,
            "worst_time": worst_loc[0],
            "worst_pair": [worst_loc[1], worst_loc[2]],
            "grid_size": int(grid.size),
        },
        parameters={"r": r},
    )


def invariance_robust(omega: TimeSignal, coupling: TimeSignal, r: float,
                      grid=None) -> CertificateReport:
    """Robust invariance test: frequency spread vs. mixing quantities.

    Passes iff delta_omega / sin(r) <= mu0 + mu2 - mu1, with the mixing
    quantities from graph.ergodic_quantities. At r = 0 the condition is read
    as requiring a zero frequency spread.
    """
    check_r(r)
    if grid is None:
        grid = sample_grid([omega, coupling])
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty evaluation grid")
    m = _coupling_at(coupling, float(grid[0])).shape[0]
    delta_omega = 0.0
    for t in grid:
        w = _frequencies_at(omega, float(t), m)
        delta_omega = max(delta_omega, float(w.max() - w.min()))
    mu0, mu1, mu2 = graph.ergodic_quantities(coupling, grid)
    rhs = mu0 + mu2 - mu1
    if math.sin(r) == 0.0:
        ok = delta_omega == 0.0 and rhs >= 0.0
        lhs = math.inf if delta_omega > 0 else 0.0
    else:
        lhs = delta_omega / math.sin(r)
        ok = lhs <= rhs
    return CertificateReport(
        "invariance-robust", PASS if ok else FAIL,
        witnesses={"delta_omega": delta_omega, "mu0": mu0, "mu1": mu1, "mu2": mu2,
                   "lhs": lhs, "rhs": rhs},
        parameters={"r": r},
    )


def _negative_coupling_report(criterion: str, coupling: TimeSignal, times, s: float,
                              t: float, params: dict) -> "CertificateReport | None":
    """INCONCLUSIVE report at the most negative coupling entry, or None if there is none.

    The spanning-tree criteria need nonnegative couplings. The entries are
    probed at the given times, at every breakpoint in [s, t] and at 101 even
    points of [s, t].
    """
    worst = None
    for u in np.unique(np.concatenate([
        times, coupling.breakpoints_in(s, t), np.linspace(s, t, 101),
    ])):
        a = _coupling_at(coupling, float(u))
        k = int(np.argmin(a))
        value = float(a.flat[k])
        if value < -1e-12 and (worst is None or value < worst["value"]):
            i, j = divmod(k, a.shape[0])
            worst = {"t": float(u), "pair": [i + 1, j + 1], "value": value}
    if worst is None:
        return None
    return CertificateReport(criterion, INCONCLUSIVE,
                             witnesses={"negative_coupling_at": worst}, parameters=params)


def thm1_spanning_tree_check(coupling: TimeSignal, partition, eta,
                             bins: "int | None" = None) -> CertificateReport:
    """Aggregated-connectivity test for nonnegative couplings.

    Each partition interval is split into equal bins; the integrated coupling
    over every bin, thresholded at that interval's eta, must contain a
    spanning tree. The divergence of sum(eta_n) over an infinite horizon is
    the caller's asymptotic claim; the report echoes the finite sum.
    """
    partition = np.asarray(partition, dtype=float)
    if partition.size < 2 or np.any(np.diff(partition) <= 0):
        raise ValueError("partition must be strictly increasing with at least two times")
    n_intervals = partition.size - 1
    etas = np.asarray(eta, dtype=float)
    if etas.ndim == 0:
        etas = np.full(n_intervals, float(etas))
    if etas.size != n_intervals or np.any(etas <= 0):
        raise ValueError("need one positive eta per partition interval")
    m = _coupling_at(coupling, 0.0).shape[0]
    nbins = int(bins) if bins is not None else max(m - 1, 1)

    params = {"partition": partition.tolist(), "eta": etas.tolist(), "bins": nbins}
    bad = _negative_coupling_report("thm1-spanning-tree", coupling, partition,
                                    partition[0], partition[-1], params)
    if bad is not None:
        return bad

    windows = []
    first_fail = None
    for n in range(n_intervals):
        edges = np.linspace(partition[n], partition[n + 1], nbins + 1)
        for k in range(nbins):
            z = graph.laplacian_from_adjacency(
                coupling.integrate_window(float(edges[k]), float(edges[k + 1])))
            ok = graph.has_spanning_tree(graph.threshold_graph(z, float(etas[n])))
            windows.append({"interval": n + 1, "bin": k + 1, "spanning_tree": ok})
            if not ok and first_fail is None:
                first_fail = {"interval": n + 1, "bin": k + 1,
                              "window": [float(edges[k]), float(edges[k + 1])]}
    verdict = PASS if first_fail is None else FAIL
    wit = {"eta_sum": float(etas.sum()), "windows_checked": len(windows),
           "eta_sum_divergence": "asserted by caller for periodic setups"}
    if first_fail is not None:
        wit["first_failing_window"] = first_fail
    return CertificateReport("thm1-spanning-tree", verdict, witnesses=wit, parameters=params)


def cor1_sliding_window_check(coupling: TimeSignal, window: float, eta: float,
                              starts=None) -> CertificateReport:
    """Sliding-window spanning-tree test for nonnegative couplings.

    The length-T aggregated coupling starting at every sampled t, thresholded
    at eta, must contain a spanning tree. For periodic couplings one period of
    window starts suffices and is the default.
    """
    if window <= 0 or eta <= 0:
        raise ValueError("window length and eta must be positive")
    if starts is None:
        starts = sample_grid(coupling, num=128)
    starts = np.asarray(starts, dtype=float)
    params = {"window": window, "eta": eta, "num_starts": int(starts.size)}
    bad = _negative_coupling_report("cor1-sliding-window", coupling, starts,
                                    0.0, float(starts.max() + window), params)
    if bad is not None:
        return bad
    for t in starts:
        z = graph.laplacian_from_adjacency(coupling.integrate_window(float(t), float(t) + window))
        if not graph.has_spanning_tree(graph.threshold_graph(z, eta)):
            return CertificateReport(
                "cor1-sliding-window", FAIL,
                witnesses={"first_failing_start": float(t)},
                parameters=params,
            )
    return CertificateReport("cor1-sliding-window", PASS,
                             witnesses={"all_starts_pass": True}, parameters=params)


def xi_index(net, r: float) -> float:
    """Matrix-measure-type index of a signed coupling matrix at PD half-width r.

    xi = -min over pairs i != j of { c_ij + sum_{k != i,j} min(a~_ik, a~_jk) }
    where the symmetrized direct coupling c_ij = (a_ij + a_ji) cos(r) when the
    sum is positive (else untouched) and a~_ik = a_ik cos(r) when positive
    (else untouched). Negative window averages of xi certify exponential PD
    stability for signed couplings.
    """
    if isinstance(net, graph.SignedNetwork):
        a = net.adjacency
    else:
        a = np.asarray(net, dtype=float).copy()
        np.fill_diagonal(a, 0.0)
    cos_r = math.cos(r)
    s = a + a.T
    c = np.where(s > 0, s * cos_r, s)
    at = np.where(a > 0, a * cos_r, a)
    ai, aj, k_is_pair = _pair_tensors(at)
    ksum = np.where(~k_is_pair, np.minimum(ai, aj), 0.0).sum(axis=2)
    vals = c + ksum
    np.fill_diagonal(vals, math.inf)
    return float(-vals.min())


def _xi_steps(coupling: TimeSignal, r: float) -> TableSignal:
    """xi(L(t), r) of a piecewise-constant coupling as a step signal.

    xi is computed once per piece (of one period, when the coupling repeats),
    and the step signal's exact window integral folds whole periods, so a
    window costs the same for any number of periods.
    """
    starts = coupling.breakpoints()
    if starts.size == 0:
        starts = np.array([0.0])
    xis = [xi_index(_coupling_at(coupling, float(t)), r) for t in starts]
    return TableSignal(starts, xis, period=coupling.period)


def _xi_window_integral(coupling: TimeSignal, r: float, a: float, b: float,
                        quad_points: int) -> float:
    """Integral of xi(L(t), r) over [a, b] for a smooth coupling, by the midpoint rule."""
    n = max(8, quad_points)
    mids = a + (np.arange(n) + 0.5) * (b - a) / n
    return float(np.mean([xi_index(_coupling_at(coupling, float(t)), r) for t in mids])) * (b - a)


def thm2_window_check(coupling: TimeSignal, r: float, window: float, eta: float,
                      starts=None, quad_points: int = 256) -> CertificateReport:
    """Window-averaged xi test for signed couplings.

    Passes iff the average of xi(L(s), r) over [t, t+T] is <= -eta at every
    sampled window start t. Piecewise-constant couplings integrate the
    per-piece xi step signal exactly; smooth couplings use midpoint quadrature.
    """
    check_r(r)
    if window <= 0:
        raise ValueError("window length must be positive")
    if starts is None:
        starts = sample_grid(coupling, num=128)
    starts = np.asarray(starts, dtype=float)
    if coupling.is_piecewise_constant:
        steps = _xi_steps(coupling, r)
        integrals = [steps.integrate_window(float(t), float(t) + window) for t in starts]
    else:
        integrals = [_xi_window_integral(coupling, r, float(t), float(t) + window, quad_points)
                     for t in starts]
    averages = np.array(integrals) / window
    worst_idx = int(np.argmax(averages))
    ok = bool(averages[worst_idx] <= -eta)
    return CertificateReport(
        "thm2-xi-window", PASS if ok else FAIL,
        witnesses={
            "worst_window_average": float(averages[worst_idx]),
            "worst_start": float(starts[worst_idx]),
            "window_averages": averages.tolist(),
            "threshold": -eta,
        },
        parameters={"r": r, "window": window, "eta": eta, "num_starts": int(starts.size)},
    )


def tilde_laplacian(lap: np.ndarray, r: float) -> np.ndarray:
    """Scale nonpositive off-diagonal entries by cos(r), refit the diagonal.

    Keeps zero row sums exactly and preserves symmetry; the second-smallest
    eigenvalue of the result is the conservative rate used by the
    symmetric-PSD criteria.
    """
    lap = np.asarray(lap, dtype=float)
    scale = max(1.0, float(np.abs(lap).max()))
    rowsum = np.abs(lap.sum(axis=1)).max()
    if rowsum > 1e-9 * scale:
        raise ValueError(f"Laplacian row sums are not zero (max |row sum| = {rowsum:.3g})")
    out = np.where(lap <= 0, lap * math.cos(r), lap)
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, -out.sum(axis=1))
    return out


def psd_fault(lap: np.ndarray) -> tuple:
    """Symmetric-PSD test of a Laplacian: (fault, lowest eigenvalue orthogonal to 1).

    The fault is "asymmetric", with no eigenvalue, when max |L - L^T| exceeds
    1e-10 * max(1, max |L|); "not_psd" when the eigenvalue is below -1e-9;
    None when L passes both tests.
    """
    scale = max(1.0, float(np.abs(lap).max()))
    if np.abs(lap - lap.T).max() > 1e-10 * scale:
        return "asymmetric", None
    low = float(restricted_spectrum(lap)[0])
    return ("not_psd" if low < -1e-9 else None), low


def _lambda2_series(coupling: TimeSignal, r: float, h: float, num_windows: int):
    """alpha_k = lambda2 of the tilde of the window-averaged Laplacian, k < num_windows."""
    alphas = []
    for k in range(num_windows):
        avg = coupling.window_average(k * h, (k + 1) * h).value
        lap = graph.laplacian_from_adjacency(np.asarray(avg, dtype=float))
        alphas.append(lambda2(tilde_laplacian(lap, r)))
    return np.array(alphas)


def thm3_series_check(coupling: TimeSignal, r: float, h: float, num_windows: int = 1,
                      alpha_hat: float = 1e-6) -> CertificateReport:
    """Symmetric-PSD criterion: window-averaged tilde-Laplacian connectivity.

    Validates that every sampled Laplacian is symmetric and positive
    semidefinite, then computes the alpha series. The main verdict is the
    series-divergence test, reduced for periodic couplings to a positive
    per-period sum; the uniform-lower-bound verdict (min alpha > alpha_hat) is
    reported alongside for the exponential-rate corollary.
    """
    check_r(r)
    if h <= 0 or num_windows < 1:
        raise ValueError("need h > 0 and at least one window")
    horizon = h * num_windows
    probe = np.unique(np.concatenate([
        coupling.breakpoints_in(0.0, horizon), np.linspace(0.0, horizon, 51),
    ]))
    params = {"r": r, "h": h, "num_windows": num_windows, "alpha_hat": alpha_hat}
    for t in probe:
        fault, low = psd_fault(graph.laplacian_from_adjacency(_coupling_at(coupling, float(t))))
        if fault is not None:
            wit = ({"asymmetric_at": float(t)} if low is None
                   else {"not_psd_at": float(t), "min_eigenvalue": low})
            return CertificateReport("thm3-lambda2-series", INCONCLUSIVE,
                                     witnesses=wit, parameters=params)

    alphas = _lambda2_series(coupling, r, h, num_windows)
    min_alpha = float(alphas.min())
    partial_sum = float(alphas.sum())
    cor2_pass = min_alpha > alpha_hat

    if coupling.kind == "constant":
        scope, period_sum = "constant", float(alphas[0])
    elif coupling.period is not None and abs(coupling.period / h - round(coupling.period / h)) < 1e-9 \
            and round(coupling.period / h) <= num_windows:
        n = int(round(coupling.period / h))
        scope, period_sum = "one-period", float(alphas[:n].sum())
    else:
        scope, period_sum = "horizon", partial_sum
    thm3_pass = period_sum > 0.0

    return CertificateReport(
        "thm3-lambda2-series", PASS if thm3_pass else FAIL,
        witnesses={
            "alpha_series": alphas.tolist(),
            "min_alpha": min_alpha,
            "partial_sum": partial_sum,
            "per_period_sum": period_sum,
            "divergence_scope": scope,
            "cor2_uniform_pass": bool(cor2_pass),
        },
        parameters=params,
    )


def cor2_uniform_check(coupling: TimeSignal, r: float, h: float, num_windows: int = 1,
                       alpha_hat: float = 1e-6) -> CertificateReport:
    """Exponential-rate variant: every alpha_k must exceed alpha_hat."""
    base = thm3_series_check(coupling, r, h, num_windows, alpha_hat)
    if base.verdict == INCONCLUSIVE:
        return CertificateReport("cor2-lambda2-uniform", INCONCLUSIVE,
                                 witnesses=base.witnesses, parameters=base.parameters)
    verdict = PASS if base.witnesses["cor2_uniform_pass"] else FAIL
    return CertificateReport("cor2-lambda2-uniform", verdict,
                             witnesses=base.witnesses, parameters=base.parameters)


def _optional(params: dict, *names: str) -> dict:
    return {k: params[k] for k in names if k in params}


_CHECKS = {
    "invariance-pointwise": lambda om, co, p: invariance_pointwise(om, co, p["r"]),
    "invariance-robust": lambda om, co, p: invariance_robust(om, co, p["r"]),
    "thm1-spanning-tree": lambda om, co, p: thm1_spanning_tree_check(
        co, p["partition"], p["eta"], **_optional(p, "bins")),
    "cor1-sliding-window": lambda om, co, p: cor1_sliding_window_check(
        co, p["T"], p["eta"], **_optional(p, "starts")),
    "thm2-xi-window": lambda om, co, p: thm2_window_check(
        co, p["r"], p["T"], p["eta"], **_optional(p, "starts")),
    "thm3-lambda2-series": lambda om, co, p: thm3_series_check(
        co, p["r"], p["h"], **_optional(p, "num_windows", "alpha_hat")),
    "cor2-lambda2-uniform": lambda om, co, p: cor2_uniform_check(
        co, p["r"], p["h"], **_optional(p, "num_windows", "alpha_hat")),
}

CRITERIA = tuple(_CHECKS)


def run_check(criterion: str, omega: "TimeSignal | None", coupling: TimeSignal,
              params: dict) -> CertificateReport:
    """Dispatch a criterion by name (CLI entry point)."""
    if criterion not in _CHECKS:
        raise ValueError(f"unknown criterion {criterion!r}; known: {', '.join(CRITERIA)}")
    if omega is None:
        omega = ConstantSignal(0.0)
    try:
        return _CHECKS[criterion](omega, coupling, params)
    except KeyError as exc:
        raise ValueError(f"criterion {criterion!r} is missing parameter {exc}") from exc
