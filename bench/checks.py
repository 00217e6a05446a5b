"""Checks of every operation's outputs, computed apart from the program.

Nothing here imports tvkuramoto. Each check rebuilds what it needs from the
config and the documented seeded draws, then compares the program's files
with an independent computation (scipy's DOP853 integrator, numpy.linalg.eigh,
transitive closure, vertex enumeration, piece-by-piece integrals) or with a
property the method must have. A failed check raises CheckError.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp


class CheckError(Exception):
    """An output disagrees with the independent computation."""


def _require(ok, message: str):
    if not ok:
        raise CheckError(message)


def _close(got, want, tol: float, what: str):
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    _require(err <= tol, f"{what}: off by {err:.3g} (tolerance {tol:.0e})")


# ----------------------------------------------------------------------------
# shared helpers


def pairs(m: int) -> list:
    """PD column order of the CSV files: (i, j), i > j, lexicographic, 0-based."""
    return [(i, j) for i in range(1, m) for j in range(i)]


def csv_chunks(path: Path, rows: int = 5000):
    """Yield (header columns, float block) from a CSV the program wrote."""
    with path.open() as fh:
        _require(fh.readline().startswith("# config_hash="), f"{path.name}: no config hash line")
        header = fh.readline().strip().split(",")
        while True:
            lines = list(itertools.islice(fh, rows))
            if not lines:
                return
            yield header, np.loadtxt(lines, delimiter=",", ndmin=2)


def read_csv(path: Path) -> tuple:
    header, blocks = None, []
    for header, block in csv_chunks(path):
        blocks.append(block)
    return header, np.vstack(blocks)


def _summary(outdir: Path) -> dict:
    return json.loads((outdir / "summary.json").read_text())["results"]


def _pieces(signal: dict) -> tuple:
    """(durations, values) of a switching or constant signal config."""
    if signal["kind"] == "constant":
        return [math.inf], [np.asarray(signal["value"], dtype=float)]
    _require(signal["kind"] == "switching", f"unexpected signal kind {signal['kind']}")
    return ([float(p["duration"]) for p in signal["pieces"]],
            [np.asarray(p["value"], dtype=float) for p in signal["pieces"]])


def piecewise_integral(signal: dict, s: float, t: float) -> np.ndarray:
    """Integral over [s, t] of a periodic switching signal, summed piece by piece."""
    durations, values = _pieces(signal)
    if math.isinf(durations[0]):
        return values[0] * (t - s)
    period = sum(durations)
    total = np.zeros_like(values[0])
    start = math.floor(s / period) * period
    while start < t:
        for d, v in zip(durations, values):
            lo, hi = max(start, s), min(start + d, t)
            if hi > lo:
                total = total + v * (hi - lo)
            start += d
    return total


def has_spanning_tree(kept: np.ndarray) -> bool:
    """kept[i, j] means j influences i; some root must reach every node.

    Transitive closure by repeated boolean squaring of the reachability
    matrix reach[j, i] (j reaches i).
    """
    m = kept.shape[0]
    reach = kept.T | np.eye(m, dtype=bool)
    for _ in range(max(1, math.ceil(math.log2(m)))):
        reach = reach | ((reach.astype(np.int64) @ reach.astype(np.int64)) > 0)
    return bool(reach.all(axis=1).any())


def xi_separable(a: np.ndarray, r: float) -> float:
    """Largest spread growth rate over the vertices of the PD-hypercube box.

    The rate for the maximum at node i and the minimum at node j is a sum of
    one term in the shared factor c_ij and one term per other node k in
    (x_k, c_ik, c_jk); each term is maximised over its own vertices, which
    enumerates the same vertex set as tests/xi_oracle.py pair by pair.
    """
    a = np.array(a, dtype=float)
    np.fill_diagonal(a, 0.0)
    m = a.shape[0]
    facs = (math.cos(r), 1.0)
    ai = a[:, None, :]   # a_ik at [i, j, k]
    aj = a[None, :, :]   # a_jk at [i, j, k]
    node = np.full((m, m, m), -math.inf)
    for x, ci, cj in itertools.product((0.0, 1.0), facs, facs):
        node = np.maximum(node, ai * ci * (x - 1.0) - aj * cj * x)
    idx = np.arange(m)
    own = (idx[None, None, :] == idx[:, None, None]) | (idx[None, None, :] == idx[None, :, None])
    node = np.where(own, 0.0, node).sum(axis=2)
    direct = np.maximum(*(-(a + a.T) * c for c in facs))
    rate = direct + node
    np.fill_diagonal(rate, -math.inf)
    return float(rate.max())


def load_xi_oracle(root: Path):
    path = root / "tests" / "xi_oracle.py"
    spec = importlib.util.spec_from_file_location("xi_oracle", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.xi_vertex_oracle


def kuramoto(omega_at, coupling_at):
    def rhs(t, theta):
        a = coupling_at(t)
        return omega_at(t) + (a * np.sin(theta[None, :] - theta[:, None])).sum(axis=1)
    return rhs


def dop853(rhs, theta0, t0: float, t1: float) -> np.ndarray:
    sol = solve_ivp(rhs, (t0, t1), theta0, method="DOP853", rtol=1e-12, atol=1e-12)
    _require(sol.success, f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def _row_at(path: Path, index: int) -> np.ndarray:
    for _, block in csv_chunks(path, rows=index + 1):
        return block[index]


# ----------------------------------------------------------------------------
# ap-switching


def check_ap(cfg: dict, outdir: Path):
    p = cfg["parameters"]
    r, dt, t_end = p["r"], p["dt"], p["t_end"]
    om_d, om_v = _pieces(cfg["signals"]["omega"])
    co_d, co_v = _pieces(cfg["signals"]["coupling"])
    m = co_v[0].shape[0]
    period = sum(co_d)
    res = _summary(outdir)
    _require(all(res["invariant"]), "summary: a run left the PD region")
    _require(res["orbit_residual"] < p["orbit_tol"], "summary: orbit residual above tolerance")
    nrows = int(round(t_end / dt)) + 1
    cols = pairs(m)
    tails, finals = [], []

    for k in range(p["num_runs"]):
        _, th = read_csv(outdir / f"trajectory_run{k}.csv")
        _, pd = read_csv(outdir / f"pd_run{k}.csv")
        _require(len(th) == nrows == len(pd), f"run {k}: {len(th)} rows, expected {nrows}")
        _close(pd[:, 0], th[:, 0], 0.0, f"run {k}: pd time column")
        want = np.column_stack([th[:, 1 + i] - th[:, 1 + j] for i, j in cols])
        _close(pd[:, 1:], want, 1e-9, f"run {k}: pd columns vs trajectory differences")
        spread = th[:, 1:].max(axis=1) - th[:, 1:].min(axis=1)
        _require(spread.max() <= r + 1e-9, f"run {k}: phase spread {spread.max():.4g} > r")
        for i in range(m - 1):
            _, adj = read_csv(outdir / "plotdata" / f"run{k}_pd_{i + 1}_{i + 2}.csv")
            _close(adj[:, 1], th[:, 1 + i] - th[:, 2 + i], 1e-9, f"run {k}: plot PD {i + 1}-{i + 2}")
        tails.append(th[int(round(p["divergence_from"] / dt)):, 1:])
        finals.append(pd[-1, 1:])

    # worst PD divergence between any two runs after divergence_from
    worst = max(float((d.max(axis=1) - d.min(axis=1)).max())
                for d in (a - b for a, b in itertools.combinations(tails, 2)))
    _close(res["max_pairwise_divergence_after_t"]["value"], worst, 1e-9,
           "largest PD divergence between runs")

    # run 0 re-integrated piece by piece from the documented initial draw
    theta0 = np.random.default_rng([int(p["seed"]), 0]).uniform(p["ic_low"], p["ic_high"], m)
    _close(_row_at(outdir / "trajectory_run0.csv", 0)[1:], theta0, 1e-11, "run 0: initial phases")

    def piece_at(durations, values, t):
        tau = t % sum(durations)
        for d, v in zip(durations, values):
            if tau < d:
                return v
            tau -= d
        return values[-1]

    def switches(durations, t1):
        period, out = sum(durations), []
        for start in np.arange(0.0, t1, period):
            out.extend(start + np.cumsum([0.0] + durations[:-1]))
        return out

    def integrate(theta, t0, t1):
        inner = {round(b, 12) for b in switches(om_d, t1) + switches(co_d, t1) if t0 < b < t1}
        bounds = [t0] + sorted(inner) + [t1]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            w, a = piece_at(om_d, om_v, lo + 1e-9), piece_at(co_d, co_v, lo + 1e-9)
            theta = dop853(kuramoto(lambda t: w, lambda t: a), theta, lo, hi)
        return theta

    t_cmp = 6.0  # before the runs converge onto the orbit
    ref = integrate(theta0, 0.0, t_cmp)
    row = _row_at(outdir / "pd_run0.csv", int(round(t_cmp / dt)))
    _close(row[1:], [ref[i] - ref[j] for i, j in cols], 1e-8, "run 0: PDs at t = 6 s vs DOP853")

    _, orbit = read_csv(outdir / "orbit.csv")
    _require(len(orbit) == int(round(period / dt)) + 1, "orbit: wrong number of samples")
    _close(orbit[-1, 1:], orbit[0, 1:], 1e-8, "orbit: does not wrap")
    if abs(t_end / period - round(t_end / period)) < 1e-9:
        _close(res["max_distance_to_orbit_at_end"],
               max(float(np.abs(f - orbit[0, 1:]).max()) for f in finals), 1e-9,
               "largest distance of the runs' final PDs to the orbit")
    lift = np.zeros(m)
    for i in range(1, m):
        lift[i] = orbit[0, 1 + cols.index((i, 0))]
    end = integrate(lift, 0.0, period)
    _close([end[i] - end[j] for i, j in cols], orbit[0, 1:], 1e-8,
           "orbit: one period of DOP853 does not return to the fixed point")


# ----------------------------------------------------------------------------
# perturb-sinusoid


def rebuild_perturb(p: dict) -> tuple:
    """Network, frequencies and modulation phases from the documented seeded draws.

    The graph is the first connected draw of upper-triangle links with
    probability p from default_rng([seed, attempt]); frequencies, then alpha,
    then the upper triangle of beta come from default_rng([seed, 90001]).
    """
    m, seed = p["m"], int(p["seed"])
    for attempt in itertools.count():
        rng = np.random.default_rng([seed, attempt])
        upper = np.triu(rng.random((m, m)) < p["p"], k=1)
        adj = (upper | upper.T).astype(float)
        if has_spanning_tree(adj > 0):
            break
    rng = np.random.default_rng([seed, 90001])
    omega = rng.uniform(p["omega_low"], p["omega_high"], m)
    alpha = rng.uniform(-p["r"] / 2, p["r"] / 2, m)
    beta = np.triu(rng.uniform(-p["r"] / 2, p["r"] / 2, (m, m)), k=1)
    return adj, omega, alpha, beta + beta.T


def check_perturb(cfg: dict, outdir: Path):
    p = cfg["parameters"]
    m, r, eps, dt = p["m"], p["r"], p["epsilon"], p["dt"]
    adj, omega, alpha, beta = rebuild_perturb(p)
    res = _summary(outdir)
    cols = pairs(m)
    t_cmp = 5.0
    k_cmp = int(round(t_cmp / dt))

    first = at_cmp = None
    max_dev = 0.0
    theta1 = []
    n = 0
    for (_, th), (_, pd) in itertools.zip_longest(csv_chunks(outdir / "trajectory.csv"),
                                                  csv_chunks(outdir / "pd.csv"),
                                                  fillvalue=(None, np.empty((0, 1)))):
        _require(len(th) == len(pd), "pd.csv and trajectory.csv differ in length")
        if first is None:
            first = th[0, 1:].copy()
        if n <= k_cmp < n + len(th):
            at_cmp = th[k_cmp - n, 1:].copy()
        _close(pd[:, 0], th[:, 0], 0.0, "pd time column")
        want = np.column_stack([th[:, 1 + i] - th[:, 1 + j] for i, j in cols])
        _close(pd[:, 1:], want, 1e-9, "pd columns vs trajectory differences")
        spread = th[:, 1:].max(axis=1) - th[:, 1:].min(axis=1)
        _require(spread.max() <= r + 1e-9, f"phase spread {spread.max():.4g} > r")
        delta = th[:, 1:] - first[None, :]
        max_dev = max(max_dev, float((delta.max(axis=1) - delta.min(axis=1)).max()))
        theta1.append(th[:, 1])
        n += len(th)
    _require(n == int(round(p["t_end"] / dt)) + 1, f"trajectory has {n} rows")
    _close(res["max_pd_deviation_from_lock"], max_dev, 1e-9, "max PD deviation from the lock")

    # the run starts at the static lock: every node turns at the same rate there
    static = omega + (adj * np.sin(first[None, :] - first[:, None])).sum(axis=1)
    _require(static.max() - static.min() < 1e-8,
             f"initial phases are not a lock (rate spread {static.max() - static.min():.3g})")
    _close(res["collective_rate"], static.mean(), 1e-8, "collective rate")

    def omega_at(t):
        return omega + eps * np.sin(t + alpha)

    def coupling_at(t):
        return adj + eps * adj * np.cos(t + beta)

    ref = dop853(kuramoto(omega_at, coupling_at), first, 0.0, t_cmp)
    _close(at_cmp, ref, 1e-8, "phases at t = 5 s vs DOP853")

    theta1 = np.concatenate(theta1)
    _, plot = read_csv(outdir / "plotdata" / "theta_1.csv")
    _close(plot[:, 1], theta1, 0.0, "plotted theta_1 vs the trajectory")
    for i, j in ((0, 3), (2, 6), (16, 10)):
        _, moving = read_csv(outdir / "plotdata" / f"pd_{i + 1}_{j + 1}.csv")
        _, static = read_csv(outdir / "plotdata" / f"pd_{i + 1}_{j + 1}_static.csv")
        _require(len(moving) == n, f"plotted PD {i + 1}-{j + 1}: {len(moving)} rows")
        _close(moving[k_cmp, 1], at_cmp[i] - at_cmp[j], 1e-9, f"plotted PD {i + 1}-{j + 1}")
        _close(static[:, 1], first[i] - first[j], 1e-9, f"static PD {i + 1}-{j + 1}")
    _, approx = read_csv(outdir / "plotdata" / "theta_1_approx.csv")
    _close(res["approx_error"], np.abs(theta1 - approx[:, 1]).max(), 1e-9,
           "first-order approximation error")
    ratio = res["error_ratio"]
    _require(3.0 <= ratio <= 5.0, f"error ratio {ratio:.3g} between eps and eps/2 is not O(eps^2)")


# ----------------------------------------------------------------------------
# certify-sweep


def _lhs_pointwise(w: np.ndarray, a: np.ndarray, r: float) -> np.ndarray:
    m = a.shape[0]
    lhs = np.full((m, m), -math.inf)
    for i, j in itertools.permutations(range(m), 2):
        total = a[i, j] + a[j, i]
        for k in range(m):
            if k in (i, j):
                continue
            if a[i, k] > 0 and a[j, k] > 0:
                total += min(a[i, k], a[j, k])
            else:
                total += min(a[i, k], 0.0) + min(a[j, k], 0.0)
        lhs[i, j] = w[i] - w[j] - total * math.sin(r)
    return lhs


def _mixing(a: np.ndarray) -> tuple:
    m = a.shape[0]
    mu0, mu1, mu2 = math.inf, -math.inf, math.inf
    for i, j in itertools.permutations(range(m), 2):
        pos = (a[i] > 0) & (a[j] > 0)
        others = np.ones(m, dtype=bool)
        others[[i, j]] = False
        mu0 = min(mu0, float(np.minimum(a[i], a[j])[pos].sum()))
        neg = others & ~pos
        mu1 = max(mu1, float(-(np.minimum(a[i], 0.0) + np.minimum(a[j], 0.0))[neg].sum()))
        mu2 = min(mu2, float(a[i, j] + a[j, i]))
    return mu0, mu1, mu2


def _co_pieces(cfg: dict):
    """(omega value, coupling value) pairs over one period of the schedule."""
    om_d, om_v = _pieces(cfg["signals"]["omega"])
    co_d, co_v = _pieces(cfg["signals"]["coupling"])
    m = co_v[0].shape[0]
    if len(om_v) == 1:
        om_v = om_v * len(co_v)
    _require(len(om_v) == len(co_v), "omega and coupling schedules do not share pieces")
    return [(np.broadcast_to(w, (m,)), a) for w, a in zip(om_v, co_v)]


def _kept(integral: np.ndarray, eta: float) -> np.ndarray:
    kept = integral > eta
    np.fill_diagonal(kept, False)
    return kept


def _tilde_lambda2(avg: np.ndarray, r: float) -> float:
    lap = -avg.copy()
    np.fill_diagonal(lap, 0.0)
    lap = np.where(lap <= 0, lap * math.cos(r), lap)
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return float(np.linalg.eigh(lap)[0][1])


def check_certify(cfg: dict, report: dict, xi_oracle):
    """Recompute the criterion's verdict and witnesses apart from the program."""
    crit, p = cfg["criterion"], cfg["parameters"]
    co = cfg["signals"]["coupling"]
    wit = report["witnesses"]
    verdict = report["verdict"]

    if crit == "invariance-pointwise":
        worst = max(float(_lhs_pointwise(w, a, p["r"]).max()) for w, a in _co_pieces(cfg))
        _close(wit["max_lhs"], worst, 1e-9, "largest drift margin")
        want = "pass" if worst < 0 else "fail"
    elif crit == "invariance-robust":
        pieces = _co_pieces(cfg)
        spread = max(float(w.max() - w.min()) for w, _ in pieces)
        mus = np.max([_mixing(a) for _, a in pieces], axis=0)
        _close([wit["delta_omega"], wit["mu0"], wit["mu1"], wit["mu2"]],
               [spread, *mus], 1e-9, "frequency spread and mixing quantities")
        want = "pass" if spread / math.sin(p["r"]) <= mus[0] + mus[2] - mus[1] else "fail"
    elif crit == "thm1-spanning-tree":
        part = p["partition"]
        m = len(co["pieces"][0]["value"])
        bins = p.get("bins") or m - 1
        failing = None
        count = 0
        for n in range(len(part) - 1):
            edges = np.linspace(part[n], part[n + 1], bins + 1)
            for k in range(bins):
                count += 1
                integral = piecewise_integral(co, float(edges[k]), float(edges[k + 1]))
                if failing is None and not has_spanning_tree(_kept(integral, p["eta"])):
                    failing = {"interval": n + 1, "bin": k + 1}
        _require(wit["windows_checked"] == count, "number of windows checked")
        if failing is not None:
            got = wit.get("first_failing_window", {})
            _require([got.get("interval"), got.get("bin")] == [failing["interval"], failing["bin"]],
                     "first failing window")
        want = "pass" if failing is None else "fail"
    elif crit == "cor1-sliding-window":
        failing = None
        for t in p["starts"]:
            integral = piecewise_integral(co, t, t + p["T"])
            if not has_spanning_tree(_kept(integral, p["eta"])):
                failing = t
                break
        if failing is not None:
            _close(wit["first_failing_start"], failing, 0.0, "first failing window start")
        want = "pass" if failing is None else "fail"
    elif crit == "thm2-xi-window":
        durations, values = _pieces(co)
        xis = [xi_separable(a, p["r"]) for a in values]
        for a, xi in zip(values, xis):   # the separable sum against the full enumeration
            _close(xi_separable(a[:5, :5], p["r"]), xi_oracle(a[:5, :5], p["r"]), 1e-12,
                   "separable xi vs the vertex oracle on a 5-node block")
        xi_signal = {"kind": "switching",
                     "pieces": [{"duration": d, "value": x} for d, x in zip(durations, xis)]}
        averages = [float(piecewise_integral(xi_signal, t, t + p["T"])) / p["T"]
                    for t in p["starts"]]
        _close(wit["window_averages"], averages, 1e-9, "window averages of xi")
        want = "pass" if max(averages) <= -p["eta"] else "fail"
    elif crit in ("thm3-lambda2-series", "cor2-lambda2-uniform"):
        h, n = p["h"], p["num_windows"]
        alphas = [_tilde_lambda2(piecewise_integral(co, k * h, (k + 1) * h) / h, p["r"])
                  for k in range(n)]
        _close(wit["alpha_series"], alphas, 1e-9, "alpha series vs numpy.linalg.eigh")
        period = sum(_pieces(co)[0])
        per_period = sum(alphas[:int(round(period / h))])
        if crit == "thm3-lambda2-series":
            want = "pass" if per_period > 0 else "fail"
        else:
            want = "pass" if min(alphas) > p.get("alpha_hat", 1e-6) else "fail"
    else:
        raise CheckError(f"no check for criterion {crit}")
    _require(verdict == want, f"verdict {verdict}, independent recomputation gives {want}")
