"""Command-line entry point.

Subcommands:
    simulate             -- integrate a configured network, write trajectory/PD CSVs
    certify              -- run one stability criterion, write a certificate report
    experiment ap        -- periodic-switching experiment (multi-start + PD orbit)
    experiment perturb   -- small-perturbation experiment on a seeded random graph
    experiment fast      -- fast-switching sweep against the averaged lock
    verify-paper-values  -- recompute the published reference values for the
                            bundled switching examples and compare

Exit codes: 0 success (certify: pass), 1 certify fail, 2 config/schema errors
(certify: also inconclusive), 3 runtime failures (blow-up, no lock).

All outputs are deterministic for a fixed config; the only volatile field is
wall_time_s in summary.json. CSV headers carry units and the config hash.
Node indices in file headers are 1-based.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from tvkuramoto import __version__, certificates, dynamics, scenarios
from tvkuramoto.dynamics import pd_pairs
from tvkuramoto.signals import ConstantSignal, SinusoidSignal, signal_from_json

# Published reference values for the bundled switching examples, as printed in
# the source of these matrices; see README for the reproduction status.
REFERENCE_XI_FIRST = 0.0858
REFERENCE_XI_SECOND = -0.1249
REFERENCE_XI_SUM = -0.0391
REFERENCE_LAMBDA2_MAGNITUDE = 2.5004
XI_TOL = 1e-3
XI_SUM_TOL = 2e-3
LAMBDA2_TOL = 1e-3


class ConfigError(Exception):
    """Schema violation with a field path for the diagnostic."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


def bundled_config_path(name: str) -> Path:
    """Path of a bundled config (ap, perturb, fast)."""
    return Path(str(resources.files("tvkuramoto") / "configs" / f"{name}.json"))


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("<path>", f"cannot read {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<json>", f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _get(cfg: dict, field: str, kind, required: bool = True, default=None):
    parts = field.split(".")
    node = cfg
    for p in parts[:-1]:
        node = node.get(p, {}) if isinstance(node, dict) else {}
    if not isinstance(node, dict) or parts[-1] not in node:
        if required:
            raise ConfigError(field, "missing")
        return default
    value = node[parts[-1]]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(field, f"expected {getattr(kind, '__name__', kind)}, "
                                 f"got {type(value).__name__}")
    return value


def _get_r(cfg: dict, required: bool = True) -> "float | None":
    r = _get(cfg, "parameters.r", float, required)
    try:
        return r if r is None else dynamics.check_r(r)
    except ValueError as exc:
        raise ConfigError("parameters.r", str(exc)) from exc


def _keywords(cfg: dict, fn, *fields: str, **renamed: str) -> dict:
    """Keyword arguments of fn read from parameters.<field>, defaulting to fn's own defaults.

    Each field feeds the keyword of the same name; renamed maps a keyword to
    the field that feeds it.
    """
    params = inspect.signature(fn).parameters
    return {kw: _get(cfg, f"parameters.{field}", type(params[kw].default), False,
                     params[kw].default)
            for kw, field in dict(zip(fields, fields), **renamed).items()}


def _coupling_values(sig) -> list:
    """The matrices a coupling signal is built from; a sinusoid's base and amplitude."""
    if isinstance(sig, ConstantSignal):
        return [sig.value]
    if isinstance(sig, SinusoidSignal):
        return [sig.base, sig.amplitude]
    return sig.values


def _signals(cfg: dict):
    sigs = _get(cfg, "signals", dict)
    loaded = []
    for key in ("omega", "coupling"):
        if key not in sigs:
            raise ConfigError(f"signals.{key}", "missing")
        try:
            loaded.append(signal_from_json(sigs[key]))
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"signals.{key}", str(exc)) from exc
    shape = loaded[1].shape
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2:
        raise ConfigError("signals.coupling",
                          f"must be an m x m matrix with m >= 2, got shape {shape}")
    if any(np.diagonal(np.broadcast_to(v, shape)).any() for v in _coupling_values(loaded[1])):
        raise ConfigError("signals.coupling", "diagonal must be zero (no self-links)")
    return tuple(loaded)


# values per % operation; one % over the whole array is no faster and holds
# some 70 bytes of Python floats and text per value at once
_CSV_BLOCK_VALUES = 4096


def _write_csv(path: Path, header_cols, rows, config_hash: str, units: str):
    rows = np.asarray(rows)
    line = ",".join(["%.12g"] * rows.shape[1]) + "\n"
    step = max(1, _CSV_BLOCK_VALUES // rows.shape[1])
    with path.open("w", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash} units: {units}\n")
        fh.write(",".join(header_cols) + "\n")
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_trajectory_csv(path, traj, config_hash):
    cols = ["t"] + [f"theta_{i + 1}" for i in range(traj.m)]
    rows = np.column_stack([traj.times, traj.phases])
    _write_csv(path, cols, rows, config_hash, "t=s theta=rad")


def _pd_header(m):
    return ["t"] + [f"pd_{i + 1}_{j + 1}" for i, j in pd_pairs(m)]


def _write_pd_csv(path, times, pd_array, m, config_hash):
    rows = np.column_stack([times, pd_array])
    _write_csv(path, _pd_header(m), rows, config_hash, "t=s pd=rad")


def _write_two_column(path, times, values, name, config_hash):
    _write_csv(path, ["t", name], np.column_stack([times, values]), config_hash,
               "t=s value=rad")


def _write_summary(outdir: Path, cfg: dict, config_hash: str, results: dict,
                   started: float):
    summary = {
        "version": __version__,
        "config_hash": config_hash,
        "config": cfg,
        "results": results,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _apply_overrides(cfg: dict, args) -> dict:
    if getattr(args, "seed", None) is not None:
        cfg.setdefault("parameters", {})["seed"] = args.seed
    if getattr(args, "dt", None) is not None:
        cfg.setdefault("parameters", {})["dt"] = args.dt
    return cfg


# ----------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    started = time.monotonic()
    cfg = _apply_overrides(_load_config(args.config), args)
    omega, coupling = _signals(cfg)
    theta0 = np.asarray(_get(cfg, "parameters.theta0", list), dtype=float)
    t_end = _get(cfg, "parameters.t_end", float)
    dt = _get(cfg, "parameters.dt", float)
    r = _get_r(cfg, required=False)
    chash = _config_hash(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    traj = dynamics.simulate(theta0, omega, coupling, t_end, dt)
    _write_trajectory_csv(outdir / "trajectory.csv", traj, chash)
    _write_pd_csv(outdir / "pd.csv", traj.times, traj.phase_differences(), traj.m, chash)
    results = {"steps": len(traj.times) - 1, "final_phases": traj.final().tolist()}
    if r is not None:
        exit_time = dynamics.invariance_monitor(traj, r)
        results["invariance"] = "invariant" if exit_time is None else {"exit_time": exit_time}
    _write_summary(outdir, cfg, chash, results, started)
    return 0


def _cmd_certify(args) -> int:
    started = time.monotonic()
    cfg = _apply_overrides(_load_config(args.config), args)
    criterion = _get(cfg, "criterion", str)
    if criterion not in certificates.CRITERIA:
        raise ConfigError("criterion", f"unknown {criterion!r}; "
                          f"known: {', '.join(certificates.CRITERIA)}")
    omega, coupling = _signals(cfg)
    params = _get(cfg, "parameters", dict)
    chash = _config_hash(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        report = certificates.run_check(criterion, omega, coupling, params)
    except ValueError as exc:
        raise ConfigError("parameters", str(exc)) from exc
    payload = report.to_json()
    payload["config_hash"] = chash
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    (outdir / "certificate.json").write_text(text + "\n")
    _write_summary(outdir, cfg, chash, {"verdict": report.verdict}, started)
    return {"pass": 0, "fail": 1, "inconclusive": 2}[report.verdict]


def _cmd_experiment_ap(args) -> int:
    started = time.monotonic()
    cfg = _apply_overrides(_load_config(args.config), args)
    omega, coupling = _signals(cfg)
    r = _get_r(cfg)
    result = scenarios.ap_experiment(omega, coupling, r, **_keywords(
        cfg, scenarios.ap_experiment, "num_runs", "ic_low", "ic_high", "seed", "t_end", "dt",
        "divergence_from", "eta", "orbit_tol", "orbit_max_iter"))
    chash = _config_hash(cfg)
    outdir = Path(args.out)
    (outdir / "plotdata").mkdir(parents=True, exist_ok=True)
    m = result.runs[0].m
    for k, traj in enumerate(result.runs):
        _write_trajectory_csv(outdir / f"trajectory_run{k}.csv", traj, chash)
        _write_pd_csv(outdir / f"pd_run{k}.csv", traj.times, traj.phase_differences(),
                      m, chash)
        adjacent = traj.phases[:, :-1] - traj.phases[:, 1:]
        for i in range(m - 1):
            _write_two_column(outdir / "plotdata" / f"run{k}_pd_{i + 1}_{i + 2}.csv",
                              traj.times, adjacent[:, i], f"pd_{i + 1}_{i + 2}", chash)
    _write_pd_csv(outdir / "orbit.csv", result.orbit.times, result.orbit.pd_samples,
                  m, chash)
    results = {
        "invariant": [e is None for e in result.exit_times],
        "max_pairwise_divergence_after_t": {
            "t": result.divergence_from, "value": result.max_divergence_after},
        "orbit_residual": result.orbit.residual,
        "orbit_iterations": result.orbit.iterations,
        "max_distance_to_orbit_at_end": result.max_distance_to_orbit_end,
        "certificate": result.certificate.to_json(),
    }
    _write_summary(outdir, cfg, chash, results, started)
    return 0


def _cmd_experiment_perturb(args) -> int:
    started = time.monotonic()
    cfg = _apply_overrides(_load_config(args.config), args)
    r = _get_r(cfg)
    result = scenarios.perturbation_experiment(r=r, **_keywords(
        cfg, scenarios.perturbation_experiment, "m", "p", "seed", "epsilon", "omega_low",
        "omega_high", "t_end", "dt"))
    chash = _config_hash(cfg)
    outdir = Path(args.out)
    (outdir / "plotdata").mkdir(parents=True, exist_ok=True)
    full = result.full_run
    _write_trajectory_csv(outdir / "trajectory.csv", full, chash)
    _write_pd_csv(outdir / "pd.csv", full.times, full.phase_differences(), full.m, chash)
    approx = result.expansion.approx_phases()
    _write_two_column(outdir / "plotdata" / "theta_1.csv", full.times,
                      full.phases[:, 0], "theta_1", chash)
    _write_two_column(outdir / "plotdata" / "theta_1_approx.csv",
                      result.expansion.times, approx[:, 0], "theta_1_approx", chash)
    for i, j in ((0, 3), (2, 6), (16, 10)):
        if max(i, j) < full.m:
            _write_two_column(outdir / "plotdata" / f"pd_{i + 1}_{j + 1}.csv", full.times,
                              full.phases[:, i] - full.phases[:, j],
                              f"pd_{i + 1}_{j + 1}", chash)
            static = result.base.rep_phases[i] - result.base.rep_phases[j]
            _write_two_column(outdir / "plotdata" / f"pd_{i + 1}_{j + 1}_static.csv",
                              full.times, np.full(len(full.times), static),
                              f"pd_{i + 1}_{j + 1}_static", chash)
    results = {
        "approx_error": result.approx_error,
        "approx_error_half_eps": result.approx_error_half,
        "error_ratio": result.error_ratio,
        "invariant": result.exit_time is None,
        "max_pd_deviation_from_lock": result.max_pd_deviation,
        "collective_rate": result.base.collective_rate,
        "lock_time": result.base.lock_time,
        "expansion_bound": result.expansion.bound,
        "certificate": result.certificate.to_json(),
    }
    _write_summary(outdir, cfg, chash, results, started)
    return 0


def _cmd_experiment_fast(args) -> int:
    started = time.monotonic()
    cfg = _apply_overrides(_load_config(args.config), args)
    omega, coupling = _signals(cfg)
    r = _get_r(cfg)
    freqs = _get(cfg, "parameters.frequencies", list)
    report = scenarios.fast_switching_sweep(
        omega, coupling, [float(f) for f in freqs], r, **_keywords(
            cfg, scenarios.fast_switching_sweep, "t_end", "tail_fraction", dt_target="dt"))
    chash = _config_hash(cfg)
    outdir = Path(args.out)
    (outdir / "plotdata").mkdir(parents=True, exist_ok=True)
    for h, (times, dev), (_, adj_pd) in zip(report.frequencies, report.deviation_series,
                                            report.adjacent_pd_series):
        tag = f"{h:g}Hz"
        _write_two_column(outdir / f"deviation_{tag}.csv", times, dev, "pd_deviation", chash)
        for i in range(adj_pd.shape[1]):
            _write_two_column(outdir / "plotdata" / f"{tag}_pd_{i + 1}_{i + 2}.csv",
                              times, adj_pd[:, i], f"pd_{i + 1}_{i + 2}", chash)
    results = {
        "frequencies_hz": report.frequencies.tolist(),
        "epsilons": report.epsilons.tolist(),
        "tail_deviations": report.tails.tolist(),
        "tail_times_frequency": (report.tails * report.frequencies).tolist(),
        "invariant": report.invariant.tolist(),
        "schedule_certified": report.schedule_certified,
        "certification_notes": report.certification_notes,
        "averaged_lock": {
            "collective_rate": report.base.collective_rate,
            "pd": report.base.pd.tolist(),
            "verified": report.base.verified,
            "certificate": report.base.certificate,
        },
    }
    _write_summary(outdir, cfg, chash, results, started)
    return 0


def verify_reference_values(quiet: bool = False) -> dict:
    """Recompute the reference xi and lambda2 values from the bundled examples.

    Returns the comparison table; see README for why the xi values do not
    reproduce from the printed matrices while lambda2 does.
    """
    ap_cfg = json.loads(bundled_config_path("ap").read_text())
    fast_cfg = json.loads(bundled_config_path("fast").read_text())
    r = math.pi / 3
    ap_pieces = [np.asarray(p["value"], dtype=float)
                 for p in ap_cfg["signals"]["coupling"]["pieces"]]
    xi1 = certificates.xi_index(ap_pieces[0], r)
    xi2 = certificates.xi_index(ap_pieces[1], r)
    fast_pieces = [np.asarray(p["value"], dtype=float)
                   for p in fast_cfg["signals"]["coupling"]["pieces"]]
    from tvkuramoto.graph import laplacian_from_adjacency
    from tvkuramoto.linalg import lambda2
    lam2 = lambda2(laplacian_from_adjacency(0.5 * (fast_pieces[0] + fast_pieces[1])))

    rows = [
        ("xi(first coupling matrix, pi/3)", xi1, REFERENCE_XI_FIRST, XI_TOL),
        ("xi(second coupling matrix, pi/3)", xi2, REFERENCE_XI_SECOND, XI_TOL),
        ("xi sum over both pieces", xi1 + xi2, REFERENCE_XI_SUM, XI_SUM_TOL),
        ("|lambda2| of averaged Laplacian", abs(lam2), REFERENCE_LAMBDA2_MAGNITUDE, LAMBDA2_TOL),
    ]
    table = {}
    if not quiet:
        print(f"{'quantity':<36} {'recomputed':>12} {'published':>12} {'tol':>8}  match")
    for name, got, ref, tol in rows:
        ok = abs(got - ref) <= tol
        table[name] = {"recomputed": got, "published": ref, "tolerance": tol, "match": ok}
        if not quiet:
            print(f"{name:<36} {got:>12.4f} {ref:>12.4f} {tol:>8.0e}  {'yes' if ok else 'NO'}")
    table["all_match"] = all(v["match"] for v in table.values() if isinstance(v, dict))
    if not quiet and not table["all_match"]:
        print("\nNot all values reproduce; see README (reference-value status) for the analysis.")
    return table


def _cmd_verify(args) -> int:
    table = verify_reference_values()
    return 0 if table["all_match"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tvkuramoto",
        description="Simulate and certify Kuramoto networks with time-varying signed couplings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override parameters.seed")
        p.add_argument("--dt", type=float, default=None, help="override parameters.dt (s)")

    add_common(sub.add_parser("simulate", help="integrate a configured network"))
    add_common(sub.add_parser("certify", help="run one stability criterion"))
    exp = sub.add_parser("experiment", help="run a bundled experiment scenario")
    exp.add_argument("scenario", choices=["ap", "perturb", "fast"])
    add_common(exp)
    sub.add_parser("verify-paper-values",
                   help="recompute published reference values for the bundled examples")

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "experiment":
            return {"ap": _cmd_experiment_ap, "perturb": _cmd_experiment_perturb,
                    "fast": _cmd_experiment_fast}[args.scenario](args)
        if args.command == "verify-paper-values":
            return _cmd_verify(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (scenarios.NoLockError, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
