"""Invariance and stability criteria for PD trajectories, as pure checks.

Every check returns a CertificateReport: a verdict (pass / fail / inconclusive)
plus the witnesses that certify it -- threshold margins, window averages,
eigenvalue series, or the earliest violating pair/window/time. A supremum over
all t >= 0 reads signals.probe: each stored piece of a table, exactly, and a
smooth signal on its signals.sample_grid. invariance_pointwise reads the joint
grid of both signals, the switches alone for two tables. A coupling hypothesis
(nonnegative entries, symmetric PSD Laplacians) is probed over all t, not a
criterion's own span, a smooth coupling at PROBE_POINTS per period, but a
sinusoid's entries are nonnegative iff their exact minima are. The kinks, and a
smooth coupling's grid, give thm2's and cor1's default starts. Window integrals of
the coupling are exact; thm2's window integrals of xi are exact for
piecewise-constant couplings and a midpoint rule on _XI_CELLS cells per period
otherwise (_xi_steps). Each criterion checks its coupling once, with
graph.check_coupling, before any evaluation.

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
from tvkuramoto.linalg import _Asymmetric, _check_zero_row_sums, lambda2, restricted_spectrum
from tvkuramoto.signals import (ConstantSignal, PeriodError, SinusoidSignal, TableSignal,
                                TimeSignal, _numbers, common_period, probe, sample_grid)

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"
PROBE_POINTS = 128  # even times per period of a smooth coupling's probes and default starts


@dataclass(frozen=True)
class CertificateReport:
    """Verdict plus certifying witnesses for one stability criterion."""

    criterion: str
    verdict: str
    witnesses: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """The report as strict JSON values: a non-finite witness (inf, NaN) becomes None."""
        return {
            "criterion": self.criterion,
            "verdict": self.verdict,
            "witnesses": _jsonable(self.witnesses),
            "parameters": _jsonable(self.parameters),
        }


def _jsonable(obj):
    if isinstance(obj, (np.ndarray, np.generic)):  # numpy values as Python values
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _invariance_inputs(omega: TimeSignal, coupling: TimeSignal, r: float) -> int:
    """m of an invariance criterion, its inputs checked once."""
    m = graph.check_coupling(coupling)
    if omega.shape not in ((), (m,)):
        raise ValueError(f"frequency signal shape {omega.shape} does not match m={m}")
    check_r(r)
    return m


def invariance_pointwise(omega: TimeSignal, coupling: TimeSignal, r: float) -> CertificateReport:
    """Pointwise sufficient condition for the PD hypercube to be invariant.

    For every ordered pair i != j and every grid time, the drift margin

        w_i - w_j - [(a_ij + a_ji) + sum_neg + sum_common_min] * sin(r)

    must be strictly negative, where sum_neg collects the negative parts [a_ik]^- + [a_jk]^-
    outside the common positive neighborhood and sum_common_min the pairwise minima inside
    it, at every time of the joint signals.sample_grid (two tables: their switches alone);
    the margins of one (omega piece, coupling piece) pair are built once. A coupling with a
    nonzero diagonal is rejected: a self-link would count as a common neighbour.
    """
    m = _invariance_inputs(omega, coupling, r)
    grid = sample_grid([omega, coupling])
    worst, worst_loc = -math.inf, None
    # values[k[n]] at grid[n]: a piecewise-constant signal read by piece_index, a smooth one
    # in one array call over the grid, whose rows equal scalar calls, a row per time
    (kw, omegas), (ka, couplings) = (
        (sig.piece_index(grid), sig.values) if sig.is_piecewise_constant
        else (np.arange(grid.size), sig.evaluate(grid)) for sig in (omega, coupling))
    # each (omega, coupling) pair at its first grid time; a piece stored twice gives
    # equal margins at a later time, which cannot displace the worst
    first = np.sort(np.unique(kw * (ka.max() + 1) + ka, return_index=True)[1])
    mixings = {}
    for t, p, q in zip(grid[first].tolist(), kw[first].tolist(), ka[first].tolist()):
        w, a = omegas[p], couplings[q]
        if q not in mixings:
            common_min, neg_sum = _pair_sums(a)
            mixings[q] = ((a + a.T) + neg_sum + common_min) * math.sin(r)
        lhs = np.subtract.outer(w, w) - mixings[q]
        np.fill_diagonal(lhs, -math.inf)
        i, j = divmod(int(np.argmax(lhs)), m)
        if lhs[i, j] > worst:
            worst = float(lhs[i, j])
            worst_loc = (t, i + 1, j + 1)
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


def invariance_robust(omega: TimeSignal, coupling: TimeSignal, r: float) -> CertificateReport:
    """Robust invariance test: frequency spread vs. mixing quantities.

    Passes iff delta_omega / sin(r) <= mu0 + mu2 - mu1, with the mixing
    quantities from graph.ergodic_quantities; each side over its own signal's
    signals.probe, so the two periods need no common multiple. At r = 0
    the condition is read as requiring a zero frequency spread. A coupling
    with a nonzero diagonal is rejected, as in invariance_pointwise.
    """
    _invariance_inputs(omega, coupling, r)
    delta_omega = max(float(np.ptp(w)) for _, w in probe(omega))
    mu0, mu1, mu2 = graph.ergodic_quantities(coupling)
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


def _positive_int(name: str, value) -> int:
    """value as an int; ValueError naming it unless it is a positive integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _negative_coupling_report(criterion: str, coupling: TimeSignal,
                              params: dict) -> "CertificateReport | None":
    """INCONCLUSIVE report at the most negative coupling entry (the earliest, then the first
    in row-major order), or None above -1e-12: the spanning-tree criteria need nonnegative
    couplings. A sinusoid entry b + c cos(t/tau) + s sin(t/tau) is least, b - hypot(c, s),
    at t = tau (atan2(-s, -c) mod 2 pi), or t = 0 if c = s = 0; others read the probes."""
    if isinstance(coupling, SinusoidSignal):
        c, s = (np.broadcast_to(v, coupling.shape)
                for v in (coupling._cos_coef, coupling._sin_coef))
        amp = np.hypot(c, s)
        turn = np.mod(np.arctan2(-s, -c), 2 * math.pi)  # 2 pi for an angle an ulp below 0
        times = np.where((amp > 0) & (turn < 2 * math.pi), coupling.time_scale * turn, 0.0)
        values = coupling.base - amp
    else:
        probes = list(probe(coupling, PROBE_POINTS))
        times = np.array([np.full(coupling.shape, u) for u, _ in probes])
        values = np.array([a for _, a in probes])
    k = int(np.lexsort((times.ravel(), values.ravel()))[0])
    if values.flat[k] >= -1e-12:
        return None
    i, j = divmod(k % coupling.shape[0] ** 2, coupling.shape[0])  # k runs over probes too
    worst = {"t": float(times.flat[k]), "pair": [i + 1, j + 1], "value": float(values.flat[k])}
    return CertificateReport(criterion, INCONCLUSIVE, witnesses={"negative_coupling_at": worst},
                             parameters=params)


# matrix entries per integrate_window call of a smooth coupling, 5 windows at m = 20:
# cor1's batch temporaries on the perturb experiment's m = 20 sinusoid raised its peak
# RSS on a 2-vCPU Xeon VM from 94.2 to 94.6 MB with 20 windows per call and to 96.5 MB
# with all 128 starts in one. A table's blocks hold 20 windows at m = 20: over ten
# certify-sweep rounds, blocks of 40 raised the peak RSS by 0.45 MiB more than blocks of 20
_WINDOW_BLOCK_ENTRIES = 2048
_TABLE_BLOCK_ENTRIES = 8192
_FIRST_BLOCK = 4  # windows in the first block of _first_window_without_tree


def _block(coupling: TimeSignal) -> int:
    """Windows per integrate_window call of the spanning-tree criteria."""
    entries = _TABLE_BLOCK_ENTRIES if coupling.is_piecewise_constant else _WINDOW_BLOCK_ENTRIES
    return max(1, entries // coupling.shape[0] ** 2)


def _first_window_without_tree(coupling: TimeSignal, lo, hi, etas) -> "int | None":
    """First k whose window [lo[k], hi[k]], integrated and thresholded at etas[k], has no
    spanning tree, or None. Windows are integrated a block at a time, up to the block of
    the first failure: the first block holds _FIRST_BLOCK windows and each later one twice
    as many, up to _block, so an early failure integrates few windows and a long run
    takes large blocks. The new graphs of a block are closed in one stacked call, and
    each distinct graph once."""
    block, verdicts = _block(coupling), {}
    size, b = min(_FIRST_BLOCK, block), 0
    while b < lo.size:
        # -z holds the Laplacian's off-diagonal entries, all threshold_graph reads
        z = coupling.integrate_window(lo[b:b + size], hi[b:b + size])
        graphs = graph.threshold_graph(-z, etas[b:b + size])
        keys = [g.tobytes() for g in graphs]
        new = {key: g for key, g in zip(keys, graphs) if key not in verdicts}
        if new:
            verdicts.update(zip(new, graph.has_spanning_tree(np.array(list(new.values())))))
        for k, key in enumerate(keys, b):
            if not verdicts[key]:
                return k
        b, size = b + size, min(2 * size, block)
    return None


def thm1_spanning_tree_check(coupling: TimeSignal, partition, eta,
                             bins: "int | None" = None) -> CertificateReport:
    """Aggregated-connectivity test for nonnegative couplings.

    Each partition interval is split into equal bins; the integrated coupling
    over every bin, thresholded at that interval's eta, must contain a
    spanning tree. Only the given partition is checked: the divergence of
    sum(eta_n) over an infinite horizon is the caller's asymptotic claim, and
    the report echoes the finite sum. Every interval's bin edges come from one
    np.linspace over the partition, and the bins of all intervals run as one
    list of windows, each with its interval's eta: integrated in blocks that grow
    to 20 windows of a table at m = 20 (see _block), the graphs of a block not seen
    before closed in one stacked call, so a periodic schedule costs a few
    closures for any number of periods. The check integrates nothing past the
    block holding its first failing window; windows_checked counts the
    partition's windows (intervals x bins) all the same.
    """
    m = graph.check_coupling(coupling)
    partition = _numbers("partition", partition, 1, ">=0")
    if partition.size < 2 or np.any(np.diff(partition) <= 0):
        raise ValueError("partition must be strictly increasing, of two times or more")
    n_intervals = partition.size - 1
    etas = _numbers("eta", eta, (0, 1), ">0")
    if etas.ndim == 0:
        etas = np.full(n_intervals, float(etas))
    if etas.size != n_intervals:
        raise ValueError("need one eta per partition interval")
    nbins = m - 1 if bins is None else _positive_int("bins", bins)

    params = {"partition": partition.tolist(), "eta": etas.tolist(), "bins": nbins}
    bad = _negative_coupling_report("thm1-spanning-tree", coupling, params)
    if bad is not None:
        return bad

    wit = {"eta_sum": float(etas.sum()), "windows_checked": n_intervals * nbins,
           "eta_sum_divergence": "asserted by caller for periodic setups"}
    edges = np.linspace(partition[:-1], partition[1:], nbins + 1, axis=1)  # a row per interval
    k = _first_window_without_tree(coupling, edges[:, :-1].ravel(), edges[:, 1:].ravel(),
                                   np.repeat(etas, nbins))
    if k is not None:
        n, j = divmod(k, nbins)
        wit["first_failing_window"] = {"interval": n + 1, "bin": j + 1,
                                       "window": [float(edges[n, j]), float(edges[n, j + 1])]}
    verdict = FAIL if k is not None else PASS
    return CertificateReport("thm1-spanning-tree", verdict, witnesses=wit, parameters=params)


def _fold(coupling: TimeSignal, *parts) -> np.ndarray:
    """Window starts, sorted and unique, on one period of a periodic coupling, clipped at 0."""
    starts = np.concatenate(parts)
    if coupling.period is not None:
        starts = np.mod(starts, coupling.period)
        starts = starts[starts < coupling.period]
    return np.unique(np.maximum(starts, 0.0))


def _eta_starts(coupling: TimeSignal, starts: np.ndarray, window: float,
                eta: float) -> np.ndarray:
    """cor1's default starts: the sorted starts, each start where an entry of the window
    integral z crosses eta between two of them (by linear interpolation, exact as z is
    linear in between), and one start inside each gap, the wrap of a periodic coupling
    included. The thresholded graph is constant inside a gap, so every graph is seen."""
    if coupling.period is not None:
        starts = np.append(starts, starts[0] + coupling.period)
    block = _block(coupling)
    pts = [starts]
    for b in range(0, starts.size - 1, block):
        s = starts[b:b + block + 1]
        z = coupling.integrate_window(s, s + window) - eta
        k, i, j = np.nonzero((z[:-1] > 0) != (z[1:] > 0))
        za, zb = z[k, i, j], z[k + 1, i, j]
        pts.append(s[k] + za / (za - zb) * (s[k + 1] - s[k]))
    pts = np.unique(np.concatenate(pts))
    return _fold(coupling, pts, (pts[:-1] + pts[1:]) / 2)


def _window_starts(coupling: TimeSignal, window: float, starts,
                   eta: "float | None" = None) -> np.ndarray:
    """The given window starts, checked, or the default ones: every kink, where either
    window end meets a breakpoint (a window integral is linear in its start between kinks),
    a smooth coupling's even grid, and with eta, for a table, _eta_starts."""
    if starts is not None:
        starts = _numbers("starts", starts, 1, ">=0")
        if starts.size == 0:
            raise ValueError("starts must be a nonempty list of window starts")
        return starts
    starts = _fold(coupling, sample_grid(coupling, PROBE_POINTS), coupling.breakpoints() - window)
    if eta is None or not coupling.is_piecewise_constant:
        return starts
    return _eta_starts(coupling, starts, window, eta)


def cor1_sliding_window_check(coupling: TimeSignal, window: float, eta: float,
                              starts=None) -> CertificateReport:
    """Sliding-window spanning-tree test for nonnegative couplings.

    The length-T aggregated coupling starting at every sampled t, thresholded
    at eta, must contain a spanning tree. For a piecewise-constant coupling the
    default starts see every graph a window takes, so the default check is
    exact. The check stops at the first failing start, and the closure runs
    once per distinct thresholded graph.
    """
    graph.check_coupling(coupling)
    _numbers("T", window, 0, ">0")
    _numbers("eta", eta, 0, ">0")
    starts = _window_starts(coupling, window, starts, eta)
    params = {"window": window, "eta": eta, "num_starts": int(starts.size)}
    bad = _negative_coupling_report("cor1-sliding-window", coupling, params)
    if bad is not None:
        return bad
    k = _first_window_without_tree(coupling, starts, starts + window, np.full(starts.size, eta))
    wit = {"all_starts_pass": True} if k is None else {"first_failing_start": float(starts[k])}
    return CertificateReport("cor1-sliding-window", PASS if k is None else FAIL,
                             witnesses=wit, parameters=params)


def xi_index(net, r: float) -> float:
    """Matrix-measure-type index of a signed coupling matrix at PD half-width r.

    xi = -min over pairs i != j of { c_ij + sum_{k != i,j} min(a~_ik, a~_jk) }
    where the symmetrized direct coupling c_ij = (a_ij + a_ji) cos(r) when the
    sum is positive (else untouched) and a~_ik = a_ik cos(r) when positive
    (else untouched). Negative window averages of xi certify exponential PD
    stability for signed couplings.
    """
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


_XI_CELLS = 4096  # equal cells per period of a smooth coupling, xi read at each midpoint


def _xi_steps(coupling: TimeSignal, r: float) -> TableSignal:
    """xi(L(t), r) as a step signal: once per stored piece of a piecewise-constant coupling,
    on its own times and period, and at the midpoint of each of _XI_CELLS equal cells of a
    smooth coupling's period, one scalar evaluate per cell. Its window integral folds
    whole periods, so a window costs the same for any number of periods."""
    if coupling.is_piecewise_constant:
        starts, mats = coupling.times, coupling.values
    else:
        starts = np.arange(_XI_CELLS) * (coupling.period / _XI_CELLS)
        mats = (coupling.evaluate(float(t)) for t in starts + coupling.period / (2 * _XI_CELLS))
    return TableSignal(starts, [xi_index(a, r) for a in mats], period=coupling.period)


def thm2_window_check(coupling: TimeSignal, r: float, window: float, eta: float,
                      starts=None) -> CertificateReport:
    """Window-averaged xi test for signed couplings.

    Passes iff the average of xi(L(s), r) over [t, t+T] is <= -eta at every
    sampled window start t, integrated on the steps of _xi_steps: exactly for a
    piecewise-constant coupling, by a midpoint rule for a smooth one. For a
    piecewise-constant coupling the default starts hold every start where a
    window end meets a breakpoint, so the default check is exact.
    """
    graph.check_coupling(coupling)
    check_r(r)
    _numbers("T", window, 0, ">0")
    _numbers("eta", eta, 0, ">0")
    starts = _window_starts(coupling, window, starts)
    averages = _xi_steps(coupling, r).integrate_window(starts, starts + window) / window
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
    lap = _check_zero_row_sums(lap)
    out = np.where(lap <= 0, lap * math.cos(r), lap)
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, -out.sum(axis=1))
    return out


def psd_fault(lap: np.ndarray) -> tuple:
    """Symmetric-PSD test of a Laplacian: (fault, lowest eigenvalue orthogonal to 1).

    The fault is "asymmetric", with no eigenvalue, when the one symmetry rule,
    linalg._check_symmetric, rejects L; "not_psd" when the eigenvalue is below
    -1e-9; None when L passes both tests. L must be m x m with m >= 2.
    """
    try:
        low = float(restricted_spectrum(lap)[0])
    except _Asymmetric:
        return "asymmetric", None
    return ("not_psd" if low < -1e-9 else None), low


def first_psd_fault(coupling: TimeSignal) -> "tuple | None":
    """(t, fault, eigenvalue) at the first probe time whose coupling Laplacian psd_fault
    flags, or None: the start of the first such piece of a table."""
    for t, a in probe(coupling, PROBE_POINTS):
        fault, low = psd_fault(graph.laplacian_from_adjacency(a))
        if fault is not None:
            return t, fault, low
    return None


def _repeat(coupling: TimeSignal, h: float) -> tuple:
    """(k0, q) with alpha_{k+q} = alpha_k for every k >= k0, window k being [k h, (k+1) h]:
    (floor(s/h) + 1, 1) for an aperiodic coupling, whose windows from k0 on start past its
    last switch s and average its last value; (0, common_period(P, h) / h) for a periodic
    one. PeriodError when h and P have no common multiple."""
    if coupling.period is None:
        return math.floor(coupling.breakpoints()[-1] / h) + 1, 1
    return 0, round(common_period([coupling, h]) / h)


def thm3_series_check(coupling: TimeSignal, r: float, h: float, num_windows: int = 1,
                      alpha_hat: float = 1e-6) -> CertificateReport:
    """Symmetric-PSD criterion: window-averaged tilde-Laplacian connectivity.

    Validates that every sampled Laplacian is symmetric and positive semidefinite,
    then reads alpha_k = lambda2 of the tilde of window k's averaged Laplacian for
    the k0 + q windows of _repeat. The series diverges iff its cycle alpha_k0..
    alpha_{k0+q-1} has a positive sum; the corollary's verdict, every alpha >
    alpha_hat, reads the least of the k0 + q. Without a repeat both are
    inconclusive. num_windows only sets how many alphas the witnesses list.
    """
    graph.check_coupling(coupling)
    check_r(r)
    _numbers("h", h, 0, ">0")
    _numbers("alpha_hat", alpha_hat, 0, ">0")
    num_windows = _positive_int("num_windows", num_windows)
    params = {"r": r, "h": h, "num_windows": num_windows, "alpha_hat": alpha_hat}
    fault = first_psd_fault(coupling)
    if fault is not None:
        t, _, low = fault
        wit = {"asymmetric_at": t} if low is None else {"not_psd_at": t, "min_eigenvalue": low}
        return CertificateReport("thm3-lambda2-series", INCONCLUSIVE,
                                 witnesses=wit, parameters=params)

    try:
        (k0, q), repeats = _repeat(coupling, h), True
    except PeriodError:  # the listed windows alone, which decide nothing
        (k0, q), repeats = (0, num_windows), False
    alphas = np.array([lambda2(tilde_laplacian(graph.laplacian_from_adjacency(
        coupling.window_average(k * h, (k + 1) * h)), r)) for k in range(k0 + q)])
    k = np.arange(num_windows)
    listed = alphas[np.where(k < k0, k, k0 + (k - k0) % q)]
    repeat = {"from_window": k0, "windows": q, "sum": float(alphas[k0:].sum()),
              "min": float(alphas.min())} if repeats else None
    verdict = INCONCLUSIVE if repeat is None else PASS if repeat["sum"] > 0.0 else FAIL

    return CertificateReport(
        "thm3-lambda2-series", verdict,
        witnesses={
            "alpha_series": listed.tolist(),
            "min_alpha": float(listed.min()),
            "partial_sum": float(listed.sum()),
            "repeat": repeat,
            "cor2_uniform_pass": None if repeat is None else repeat["min"] > alpha_hat,
        },
        parameters=params,
    )


def cor2_uniform_check(coupling: TimeSignal, r: float, h: float, num_windows: int = 1,
                       alpha_hat: float = 1e-6) -> CertificateReport:
    """Exponential-rate variant: every alpha_k must exceed alpha_hat."""
    base = thm3_series_check(coupling, r, h, num_windows, alpha_hat)
    verdict = (base.verdict if base.verdict == INCONCLUSIVE
               else PASS if base.witnesses["cor2_uniform_pass"] else FAIL)
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
