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
and parameter values a criterion or scenario rejects (certify: also
inconclusive), 3 runtime failures (blow-up, no lock).

All outputs are deterministic for a fixed config; the only volatile field is
wall_time_s in summary.json. JSON output is strict (RFC 8259): a non-finite
number, such as an infinite witness or error ratio, is written as null.
config_hash is the sha256 of the config as json.dumps(cfg, sort_keys=True) writes
it; one pass over the config (_json_texts) writes that text and the config's echo
in summary.json, each float turned into text once for both. CSV
headers carry units and the config hash. A CSV value is C's %.12g of the float,
the bytes Python's % writes; _csv_bytes builds them for a block of rows at once
from lookup tables, and hands % only the values it cannot round exactly. Node
indices in file headers are 1-based.
"""

from __future__ import annotations

import argparse
import functools
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
from tvkuramoto.graph import check_coupling, laplacian_from_adjacency
from tvkuramoto.linalg import lambda2
from tvkuramoto.signals import PeriodError, _numbers, signal_from_json

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
    # an int is a float too; JSON's true and false are ints to Python, but no numbers
    if isinstance(value, bool) or not isinstance(value, (float, int) if kind is float else kind):
        raise ConfigError(field, f"expected {getattr(kind, '__name__', kind)}, "
                                 f"got {type(value).__name__}")
    return float(value) if kind is float else value


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


def _signals(cfg: dict):
    """(omega, coupling) of the config; omega a scalar or one frequency per oscillator."""
    sigs = _get(cfg, "signals", dict)
    loaded = []
    for key in ("omega", "coupling"):
        if key not in sigs:
            raise ConfigError(f"signals.{key}", "missing")
        try:
            loaded.append(signal_from_json(sigs[key]))
            m = check_coupling(loaded[-1]) if key == "coupling" else None
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"signals.{key}", str(exc)) from exc
    if loaded[0].shape not in ((), (m,)):
        raise ConfigError("signals.omega", f"shape {loaded[0].shape} does not match m={m}")
    return tuple(loaded)


def _run_scenario(fn, *args, **kwargs):
    """fn(*args, **kwargs), each value or type it rejects a config error: of signals
    for a PeriodError, of parameters otherwise."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError("signals" if isinstance(exc, PeriodError) else "parameters",
                          str(exc)) from exc


# values per formatted block: _csv_bytes holds some 220 bytes of arrays per value
# at once (0.9 MB a block), and a larger block buys little speed for more memory
_CSV_BLOCK_VALUES = 4096
_CSV_E0 = 13  # the tables' row of a decimal exponent e is e + _CSV_E0, for e in [-13, 19]


@functools.cache
def _csv_tables():
    """The lookup tables of _csv_bytes, built on its first call.

    digits: 8 modes x 1,000 3-digit chunks, each as 4 bytes padded with zero bytes.
    Mode 0 is the chunk as it is, mode 1 drops its trailing zeros, modes 2-4 put the
    point after its first 1-3 digits, and modes 5-7 do so and drop the trailing zeros
    (the point too, when no digit follows it). head: sign and "0.000" prefix, and
    tail: exponent and separator, 8 bytes per (exponent, sign or last column).
    point: the number of digits before the point per exponent, 0 when the prefix holds
    it. modes: 1,000 x the mode of each chunk per (point, pattern of nonzero chunks
    1-3). mul and div: the exact power of ten that scales |x| to 12 digits.
    """
    def packed(texts, dtype):
        buf = np.zeros((len(texts), np.dtype(dtype).itemsize), np.uint8)
        for row, text in zip(buf, texts):
            row[:len(text)] = list(text)
        return buf.view(dtype).ravel()

    chunks = [b"%03d" % c for c in range(1000)]
    digits = packed(chunks + [d.rstrip(b"0") for d in chunks]
                    + [d[:q] + b"." + d[q:] for q in (1, 2, 3) for d in chunks]
                    + [d[:q] + (b"." + d[q:]).rstrip(b"0").rstrip(b".")
                       for q in (1, 2, 3) for d in chunks], np.uint32)
    exps = range(-_CSV_E0, 20)
    head = packed([sign + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"")
                   for e in exps for sign in (b"", b"-")], np.uint64)
    tail = packed([(b"" if -4 <= e < 12 else b"e%+03d" % e) + sep
                   for e in exps for sep in (b",", b"\n")], np.uint64)
    point = np.array([e + 1 if 0 <= e < 12 else 0 if -4 <= e < 0 else 1 for e in exps])
    modes = np.zeros((4, 13, 8), np.intp)  # (chunk, point, nonzero bits of chunks 1-3)
    for k, bits, i in np.ndindex(13, 8, 4):
        later = bits >> i != 0  # a nonzero chunk after chunk i
        holder, q = divmod(k - 1, 3)  # the chunk with the point after its q + 1 digits
        if k and i < holder:
            mode = 0
        elif k and i == holder:
            mode = 2 + q if later else 5 + q
        else:
            mode = 0 if later else 1
        modes[i, k, bits] = 1000 * mode
    scale = 11 - np.arange(-_CSV_E0, 20)
    return (digits, head, tail, point, modes.reshape(4, -1), 10.0 ** np.maximum(scale, 0),
            10.0 ** np.maximum(-scale, 0))


def _csv_bytes(block: np.ndarray) -> bytes:
    """The rows of a float block as "%.12g" formats each value, with "," between
    columns and "\\n" after each row: the bytes that % writes.

    A value is 12 digits N = rint(|x| 10^(11-E)), correctly rounded, split into four
    3-digit chunks. Its 32 bytes (sign and prefix, the chunks with the point, exponent
    and separator) are read from the tables of _csv_tables and padded with zero bytes,
    dropped at the end. |x| 10^(11-E) < 2^40 is one correctly rounded product or
    quotient, so within 2^-14 of the exact one; a value whose scaled |x| lies within
    2^-12 of a half-integer, and NaN, inf and a nonzero |x| outside [1e-11, 1e17), is
    formatted by % itself, in one call for all such values of the block.
    """
    digits, head, tail, point, modes, mul, div = _csv_tables()
    rows, cols = block.shape
    v = np.asarray(block, dtype=float).ravel()
    a = np.abs(v)
    zero = a == 0  # read as 1, then written "0" (or "-0") by chunk 0 of digits 000
    ok = (a >= 1e-11) & (a < 1e17)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    e += _CSV_E0
    y = a * mul[e] / div[e]
    off = (y >= 1e12).astype(np.intp) - (y < 1e11)  # log10 may miss a power of ten by one
    fix = np.flatnonzero(off)
    e[fix] += off[fix]
    y[fix] = a[fix] * mul[e[fix]] / div[e[fix]]
    n = np.rint(y)
    ok &= np.abs(y - n) < 0.5 - 2.0 ** -12
    top = n >= 1e12  # rounded up to 13 digits
    e += top
    n[top] = 1e11
    c = np.empty((4, v.size))  # the 3-digit chunks, exact in float
    c[0] = np.floor(n / 1e9)
    n -= c[0] * 1e9
    c[1] = np.floor(n / 1e6)
    n -= c[1] * 1e6
    c[2] = np.floor(n / 1e3)
    c[3] = n - c[2] * 1e3
    c[0, zero] = 0
    ok |= zero
    nonzero = c[1:] != 0
    key = point[e] * 8
    key += nonzero[0]
    key += nonzero[1] * 2
    key += nonzero[2] * 4
    index = c.astype(np.intp)
    for i in range(4):
        index[i] += modes[i][key]
    out = np.empty((v.size, 4), np.uint64)
    out[:, 0] = head[e * 2 + np.signbit(v)]
    out.view(np.uint32)[:, 2:6] = np.take(digits, index).T
    last = np.zeros(cols, np.intp)
    last[-1] = 1
    out[:, 3] = tail[(e * 2).reshape(rows, cols) + last].ravel()
    rest = np.flatnonzero(~ok)  # by % in one call, space-padded to 24 bytes, and a separator
    if rest.size:
        text = (b"%-24.12g" * rest.size % tuple(v[rest].tolist())).translate(
            bytes.maketrans(b" ", b"\0"))
        out[rest, :3] = np.frombuffer(text, np.uint64).reshape(-1, 3)
        out[rest, 3] = tail[2 * _CSV_E0 + (rest % cols == cols - 1)]
    return out.tobytes().translate(None, b"\0")


def _write_csv(path: Path, header_cols, rows, config_hash: str, units: str, form=None):
    """One %.12g line per row, formatted by _csv_bytes and written in blocks; form, if
    given, maps a block of rows to the lines' values, so a derived array never exists
    whole."""
    step = max(1, _CSV_BLOCK_VALUES // len(header_cols))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(f"# config_hash={config_hash} units: {units}\n{','.join(header_cols)}\n"
                 .encode())
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            fh.write(_csv_bytes(block if form is None else form(block)))


def _pd_header(m):
    return ["t"] + [f"pd_{i + 1}_{j + 1}" for i, j in pd_pairs(m)]


def _write_run_csvs(outdir: Path, traj, config_hash, tag=""):
    """trajectory<tag>.csv and pd<tag>.csv of one run, both from its (t, theta) rows."""
    rows = np.column_stack([traj.times, traj.phases])
    _write_csv(outdir / f"trajectory{tag}.csv", ["t"] + [f"theta_{i + 1}" for i in range(traj.m)],
               rows, config_hash, "t=s theta=rad")
    ii, jj = dynamics.pd_index(traj.m)
    _write_csv(outdir / f"pd{tag}.csv", _pd_header(traj.m), rows, config_hash, "t=s pd=rad",
               form=lambda b: np.column_stack([b[:, 0], b[:, 1 + ii] - b[:, 1 + jj]]))


def _write_two_column(path, times, values, name, config_hash):
    _write_csv(path, ["t", name], np.column_stack([times, values]), config_hash,
               "t=s value=rad")


def _write_adjacent_pds(outdir: Path, traj, config_hash, tag):
    """plotdata/<tag>_pd_<i>_<i+1>.csv of each adjacent pair theta_i - theta_{i+1}."""
    adjacent = traj.phases[:, :-1] - traj.phases[:, 1:]
    for i in range(traj.m - 1):
        _write_two_column(outdir / "plotdata" / f"{tag}_pd_{i + 1}_{i + 2}.csv",
                          traj.times, adjacent[:, i], f"pd_{i + 1}_{i + 2}", config_hash)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json.dumps names them


class _Rendered(tuple):
    """The (hash text, file text) pair _json_texts returned for a value, which it writes
    back as it is; the file text holds the indent it was rendered at."""


def _json_texts(obj, indent: str = "\n") -> "tuple[str, str]":
    """obj as json.dumps(obj, sort_keys=True) writes it, the text config_hash hashes, and
    as json.dumps(certificates._jsonable(obj), indent=2, sort_keys=True) writes it, the
    file text; indent is the line break before obj's closing bracket. Each float is
    turned into text once, by float.__repr__, for both."""
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [(name + h, name + f) for name, (h, f) in (
            (json.encoder.encode_basestring_ascii(k) + ": ", _json_texts(v, inner))
            for k, v in sorted(obj.items()))]
        ends = "{}"
    elif isinstance(obj, _Rendered):
        return obj
    elif isinstance(obj, (list, tuple)):
        try:  # a row of an echoed matrix, in one pass; a value that is no float raises
            reprs = list(map(float.__repr__, obj))
        except TypeError:
            items, ends = [_json_texts(v, inner) for v in obj], "[]"
        else:
            if not reprs:
                return "[]", "[]"
            hashed = ", ".join(reprs)
            if "n" in hashed:  # of the float reprs, only nan and inf hold an n
                hashed = ", ".join([_NON_FINITE.get(r, r) for r in reprs])
                reprs = ["null" if r in _NON_FINITE else r for r in reprs]
            return f"[{hashed}]", f"[{inner}{(',' + inner).join(reprs)}{indent}]"
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        return (_NON_FINITE[text], "null") if text in _NON_FINITE else (text, text)
    elif isinstance(obj, (np.ndarray, np.generic)):  # as the lists and numbers it holds
        return _json_texts(obj.tolist(), indent)
    else:  # a string, int, bool or None, written alike in both
        text = json.dumps(obj)
        return text, text
    if not items:
        return ends, ends
    return (ends[0] + ", ".join(h for h, _ in items) + ends[1],
            ends[0] + inner + ("," + inner).join(f for _, f in items) + indent + ends[1])


def _write_json(path: Path, obj) -> str:
    text = _json_texts(obj)[1]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    return text


def _run(args, command) -> int:
    """Load the config, apply --seed and --dt, run command(cfg, config_hash, outdir)
    for its (results, exit code) and write summary.json."""
    started = time.monotonic()
    cfg = _load_config(args.config)
    for key in ("seed", "dt"):
        if getattr(args, key) is not None:
            cfg["parameters"] = {**_get(cfg, "parameters", dict, False, {}),
                                 key: getattr(args, key)}
    config = _Rendered(_json_texts(cfg, "\n  "))  # at its indent in summary.json
    config_hash = hashlib.sha256(config[0].encode()).hexdigest()[:16]
    outdir = Path(args.out)
    results, code = command(cfg, config_hash, outdir)
    _write_json(outdir / "summary.json", {
        "version": __version__,
        "config_hash": config_hash,
        "config": config,
        "results": results,
        "wall_time_s": round(time.monotonic() - started, 3),
    })
    return code


# ----------------------------------------------------------------------------
# subcommands: each maps (cfg, config_hash, outdir) to (results, exit code)


def _simulate(cfg: dict, config_hash: str, outdir: Path):
    omega, coupling = _signals(cfg)
    try:  # one start: a batch of starts, (R, m), is for library calls
        theta0 = _numbers("theta0", _get(cfg, "parameters.theta0", list), 1)
    except ValueError as exc:
        raise ConfigError("parameters.theta0", str(exc)) from exc
    if theta0.shape != coupling.shape[:1]:
        raise ConfigError("parameters.theta0", f"expected one start of {coupling.shape[0]} "
                                               f"phases; got shape {theta0.shape}")
    t_end = _get(cfg, "parameters.t_end", float)
    dt = _get(cfg, "parameters.dt", float)
    r = _get_r(cfg, required=False)
    traj = _run_scenario(dynamics.simulate, theta0, omega, coupling, t_end, dt)
    _write_run_csvs(outdir, traj, config_hash)
    results = {"steps": len(traj.times) - 1, "final_phases": traj.final().tolist()}
    if r is not None:
        exit_time = dynamics.invariance_monitor(traj, r)
        results["invariance"] = "invariant" if exit_time is None else {"exit_time": exit_time}
    return results, 0


def _certify(cfg: dict, config_hash: str, outdir: Path):
    criterion = _get(cfg, "criterion", str)
    if criterion not in certificates.CRITERIA:
        raise ConfigError("criterion", f"unknown {criterion!r}; "
                          f"known: {', '.join(certificates.CRITERIA)}")
    omega, coupling = _signals(cfg)
    report = _run_scenario(certificates.run_check, criterion, omega, coupling,
                           _get(cfg, "parameters", dict))
    print(_write_json(outdir / "certificate.json",
                      dict(report.to_json(), config_hash=config_hash)))
    return {"verdict": report.verdict}, {"pass": 0, "fail": 1, "inconclusive": 2}[report.verdict]


def _experiment_ap(cfg: dict, config_hash: str, outdir: Path):
    omega, coupling = _signals(cfg)
    result = _run_scenario(scenarios.ap_experiment, omega, coupling, _get_r(cfg), **_keywords(
        cfg, scenarios.ap_experiment, "num_runs", "ic_low", "ic_high", "seed", "t_end", "dt",
        "divergence_from", "eta", "orbit_tol", "orbit_max_iter"))
    for k, traj in enumerate(result.runs):
        _write_run_csvs(outdir, traj, config_hash, f"_run{k}")
        _write_adjacent_pds(outdir, traj, config_hash, f"run{k}")
    _write_csv(outdir / "orbit.csv", _pd_header(result.runs[0].m),
               np.column_stack([result.orbit.times, result.orbit.pd_samples]), config_hash,
               "t=s pd=rad")
    return {
        "invariant": [e is None for e in result.exit_times],
        "max_pairwise_divergence_after_t": {
            "t": result.divergence_from, "value": result.max_divergence_after},
        "orbit_residual": result.orbit.residual,
        "orbit_iterations": result.orbit.iterations,
        "max_distance_to_orbit_at_end": result.max_distance_to_orbit_end,
        "certificate": result.certificate.to_json(),
    }, 0


def _experiment_perturb(cfg: dict, config_hash: str, outdir: Path):
    result = _run_scenario(scenarios.perturbation_experiment, r=_get_r(cfg), **_keywords(
        cfg, scenarios.perturbation_experiment, "m", "p", "seed", "epsilon", "omega_low",
        "omega_high", "t_end", "dt"))
    full = result.full_run
    _write_run_csvs(outdir, full, config_hash)
    approx = result.expansion.approx_phases()
    _write_two_column(outdir / "plotdata" / "theta_1.csv", full.times,
                      full.phases[:, 0], "theta_1", config_hash)
    _write_two_column(outdir / "plotdata" / "theta_1_approx.csv",
                      result.expansion.times, approx[:, 0], "theta_1_approx", config_hash)
    for i, j in ((0, 3), (2, 6), (16, 10)):
        if max(i, j) < full.m:
            _write_two_column(outdir / "plotdata" / f"pd_{i + 1}_{j + 1}.csv", full.times,
                              full.phases[:, i] - full.phases[:, j],
                              f"pd_{i + 1}_{j + 1}", config_hash)
            static = result.base.rep_phases[i] - result.base.rep_phases[j]
            _write_two_column(outdir / "plotdata" / f"pd_{i + 1}_{j + 1}_static.csv",
                              full.times, np.full(len(full.times), static),
                              f"pd_{i + 1}_{j + 1}_static", config_hash)
    return {
        "approx_error": result.approx_error,
        "approx_error_half_eps": result.approx_error_half,
        "error_ratio": result.error_ratio,
        "invariant": result.exit_time is None,
        "max_pd_deviation_from_lock": result.max_pd_deviation,
        "collective_rate": result.base.collective_rate,
        "lock_time": result.base.lock_time,
        "lock_newton_iterations": result.base.newton_iterations,
        "lock_residual": result.base.residual,
        "expansion_bound": result.expansion.bound,
        "certificate": result.certificate.to_json(),
    }, 0


def _experiment_fast(cfg: dict, config_hash: str, outdir: Path):
    omega, coupling = _signals(cfg)
    r = _get_r(cfg)
    report = _run_scenario(scenarios.fast_switching_sweep, omega, coupling,
                           _get(cfg, "parameters.frequencies", list), r, **_keywords(
                               cfg, scenarios.fast_switching_sweep, "t_end", "tail_fraction",
                               dt_target="dt"))
    for h, traj, (times, dev) in zip(report.frequencies, report.runs, report.deviation_series):
        _write_two_column(outdir / f"deviation_{h:g}Hz.csv", times, dev, "pd_deviation",
                          config_hash)
        _write_adjacent_pds(outdir, traj, config_hash, f"{h:g}Hz")
    return {
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
            "lock_newton_iterations": report.base.newton_iterations,
            "lock_residual": report.base.residual,
            "verified": report.base.verified,
            "certificate": report.base.certificate,
        },
    }, 0


_COMMANDS = {"simulate": _simulate, "certify": _certify, "ap": _experiment_ap,
             "perturb": _experiment_perturb, "fast": _experiment_fast}


def verify_reference_values() -> dict:
    """Recompute the reference xi and lambda2 values from the bundled examples.

    Returns the comparison table; see README for why the xi values do not
    reproduce from the printed matrices while lambda2 does.
    """
    ap, fast = (signal_from_json(json.loads(bundled_config_path(name).read_text())
                                 ["signals"]["coupling"]).values for name in ("ap", "fast"))
    r = math.pi / 3
    xi1, xi2 = certificates.xi_index(ap[0], r), certificates.xi_index(ap[1], r)
    lam2 = lambda2(laplacian_from_adjacency(0.5 * (fast[0] + fast[1])))
    rows = [
        ("xi(first coupling matrix, pi/3)", xi1, REFERENCE_XI_FIRST, XI_TOL),
        ("xi(second coupling matrix, pi/3)", xi2, REFERENCE_XI_SECOND, XI_TOL),
        ("xi sum over both pieces", xi1 + xi2, REFERENCE_XI_SUM, XI_SUM_TOL),
        ("|lambda2| of averaged Laplacian", abs(lam2), REFERENCE_LAMBDA2_MAGNITUDE, LAMBDA2_TOL),
    ]
    table = {name: {"recomputed": got, "published": ref, "tolerance": tol,
                    "match": abs(got - ref) <= tol} for name, got, ref, tol in rows}
    table["all_match"] = all(v["match"] for v in table.values())
    return table


def _print_reference_values(table: dict) -> None:
    """The table of verify_reference_values, one row per quantity, as the command prints it."""
    print(f"{'quantity':<36} {'recomputed':>12} {'published':>12} {'tol':>8}  match")
    for name, row in table.items():
        if name != "all_match":
            print(f"{name:<36} {row['recomputed']:>12.4f} {row['published']:>12.4f} "
                  f"{row['tolerance']:>8.0e}  {'yes' if row['match'] else 'NO'}")
    if not table["all_match"]:
        print("\nNot all values reproduce; see README (reference-value status) for the analysis.")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call in a process and reused by
    every later main call (help text reads the terminal width when it is printed)."""
    parser = argparse.ArgumentParser(
        prog="tvkuramoto",
        description="Simulate and certify Kuramoto networks with time-varying signed couplings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config path")
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "verify-paper-values":
        table = verify_reference_values()
        _print_reference_values(table)
        return 0 if table["all_match"] else 1
    try:
        return _run(args, _COMMANDS[getattr(args, "scenario", args.command)])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (scenarios.NoLockError, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
