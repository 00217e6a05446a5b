"""Inputs of the three benchmark workloads, generated from the workload seed.

A workload is a list of operations. An operation is one call of the
`tvkuramoto` command line on a config file written here, plus what its check
needs: the config itself, a verdict known from how the input was built, and,
for the invalid-input operations, the field the error must name.

The seed reaches the program only through the configs:

- `ap-switching`: the bundled `ap` signals and parameters with
  `parameters.seed` = seed, which draws the initial phase vectors, and a
  shorter run: 3 starts of 12 s (three periods) instead of 10 of 60 s, PD
  divergence measured from 8 s. One operation then takes seconds, not a
  minute, so a run holds several and reports their median.
- `perturb-sinusoid`: the bundled `perturb` config, with `parameters.epsilon`
  drawn uniformly from [0.08, 0.12] and a horizon of 6 s instead of 50 s,
  for the same reason. The graph seed stays the bundled one: it sets how long
  the lock search runs (11 s to 66 s of model time over seeds 0 to 15), and a
  seed that changed the amount of work would spread `wall_s` by more than the
  bound. The perturbation size changes every trajectory and file but not the
  number of steps.
- `certify-sweep`: every coupling and frequency value is drawn from
  `numpy.random.default_rng([seed, tag])`, one tag per schedule. Sizes, piece
  durations, windows and window starts do not depend on the seed, so every
  seed asks for the same amount of work. The three invalid-input configs do
  not depend on the seed at all.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("ap-switching", "perturb-sinusoid", "certify-sweep")

M = 20                      # network size of every certify schedule
R = math.pi / 3             # PD half-width used by the certify configs
PIECE = 0.5                 # piece duration of the slow schedules (s)
PIECES = 4                  # pieces per period
PERIOD = PIECE * PIECES     # 2 s
FAST_PIECE = 0.0125         # piece duration of the fast signed schedule (s)
LONG_WINDOW = 2.0           # thm2 window over the fast schedule: 40 periods
INVALID_SEED = 20180522     # fixed draws for the invalid-input configs
AP_SHORT = {"num_runs": 3, "t_end": 12.0, "divergence_from": 8.0}
PERTURB_SHORT = {"t_end": 6.0}


@dataclass
class Operation:
    """One CLI call of a workload and what its check needs."""

    name: str
    argv: list                      # CLI arguments without --out
    config: dict = field(default_factory=dict)
    known_verdict: "str | None" = None
    bad_field: "str | None" = None  # set for invalid-input operations

    @property
    def invalid_input(self) -> bool:
        return self.bad_field is not None


def _write(workdir: Path, name: str, cfg: dict) -> str:
    path = workdir / f"{name}.json"
    # allow_nan writes the NaN / Infinity literals the invalid configs need
    path.write_text(json.dumps(cfg, indent=1, allow_nan=True))
    return str(path)


def _bundled(root: Path, name: str) -> dict:
    return json.loads((root / "src" / "tvkuramoto" / "configs" / f"{name}.json").read_text())


def _switching(values, duration: float) -> dict:
    return {"kind": "switching",
            "pieces": [{"duration": duration, "value": np.asarray(v).tolist()} for v in values]}


def _constant(value) -> dict:
    return {"kind": "constant", "value": np.asarray(value).tolist()}


# ----------------------------------------------------------------------------
# certify schedules (coupling a[i, j] is the weight of the link j -> i)


def _ring(rng, blocks: int = 1) -> np.ndarray:
    """Directed ring inside each of `blocks` equal node blocks, weights in [0.5, 1.5]."""
    a = np.zeros((M, M))
    size = M // blocks
    for b in range(blocks):
        nodes = range(b * size, (b + 1) * size)
        for i in nodes:
            nxt = b * size + (i - b * size + 1) % size
            a[nxt, i] = rng.uniform(0.5, 1.5)
    return a


def _block_mask(blocks: int) -> np.ndarray:
    size = M // blocks
    labels = np.arange(M) // size
    return labels[:, None] == labels[None, :]


def nonnegative_schedule(rng, blocks: int = 1) -> list:
    """Sparse nonnegative pieces that each hold a directed ring per block.

    With one block every piece is strongly connected through ring edges of
    weight at least 0.5, so every window of length L integrates them above
    0.5 L; with two blocks no link ever joins the blocks.
    """
    pieces = []
    for _ in range(PIECES):
        extra = rng.uniform(0.5, 1.5, (M, M)) * (rng.random((M, M)) < 0.15)
        a = np.maximum(_ring(rng, blocks), extra * _block_mask(blocks))
        np.fill_diagonal(a, 0.0)
        pieces.append(a)
    return pieces


def signed_pieces(rng, count: int, positive_only: bool = False) -> list:
    """Dense positive couplings in [0.2, 1.0] with about 5% entries in [-0.1, 0]."""
    pieces = []
    for _ in range(count):
        a = rng.uniform(0.2, 1.0, (M, M)) * (rng.random((M, M)) < 0.7)
        if not positive_only:
            neg = rng.random((M, M)) < 0.05
            a = np.where(neg, -rng.uniform(0.0, 0.1, (M, M)), a)
        np.fill_diagonal(a, 0.0)
        pieces.append(a)
    return pieces


def symmetric_schedule(rng, blocks: int = 1) -> list:
    """Symmetric nonnegative pieces, each holding an undirected ring per block."""
    pieces = []
    for a in nonnegative_schedule(rng, blocks):
        pieces.append(np.maximum(a, a.T))
    return pieces


def frequency_pieces(rng, spread: float) -> list:
    return [rng.uniform(1.0 - spread / 2, 1.0 + spread / 2, M) for _ in range(PIECES)]


def _certify_config(criterion, coupling: dict, parameters: dict, omega=None) -> dict:
    signals = {"omega": omega if omega is not None else _constant(0.0), "coupling": coupling}
    return {"criterion": criterion, "signals": signals, "parameters": parameters}


def certify_operations(seed: int) -> list:
    """The certify sweep: every criterion on m = 20 schedules, plus invalid inputs."""

    def rng(tag):
        return np.random.default_rng([int(seed), tag])

    nonneg = nonnegative_schedule(rng(1))
    split = nonnegative_schedule(rng(2), blocks=2)
    signed = signed_pieces(rng(3), PIECES)
    fast = signed_pieces(rng(4), PIECES, positive_only=True)
    sym = symmetric_schedule(rng(5))
    sym_split = symmetric_schedule(rng(6), blocks=2)
    omega_narrow = _switching(frequency_pieces(rng(7), 0.2), PIECE)
    wide = rng(8).uniform(-1.0, 1.0, M)
    wide[0], wide[1] = 50.0, -50.0   # a spread no coupling here can hold
    window_starts = np.linspace(0.0, PERIOD, 256, endpoint=False).tolist()
    partition = [k * PERIOD for k in range(41)]

    ops = [
        ("invariance-pointwise", _certify_config(
            "invariance-pointwise", _switching(signed, PIECE), {"r": R}, omega_narrow), None),
        ("invariance-pointwise-wide", _certify_config(
            "invariance-pointwise", _switching(signed, PIECE), {"r": R}, _constant(wide)), "fail"),
        ("invariance-robust", _certify_config(
            "invariance-robust", _switching(signed, PIECE), {"r": R}, omega_narrow), None),
        ("thm1-ring", _certify_config(
            "thm1-spanning-tree", _switching(nonneg, PIECE),
            {"partition": partition, "eta": 0.02}), "pass"),
        ("thm1-split", _certify_config(
            "thm1-spanning-tree", _switching(split, PIECE),
            {"partition": partition, "eta": 0.02}), "fail"),
        ("cor1-ring", _certify_config(
            "cor1-sliding-window", _switching(nonneg, PIECE),
            {"T": PIECE, "eta": 0.1, "starts": window_starts}), "pass"),
        ("cor1-split", _certify_config(
            "cor1-sliding-window", _switching(split, PIECE),
            {"T": PERIOD, "eta": 0.1, "starts": window_starts}), "fail"),
        ("thm2-short-window", _certify_config(
            "thm2-xi-window", _switching(signed, PIECE),
            {"r": R, "T": PERIOD, "eta": 0.1,
             "starts": np.linspace(0.0, PERIOD, 128, endpoint=False).tolist()}), None),
        ("thm2-long-window", _certify_config(
            "thm2-xi-window", _switching(fast, FAST_PIECE),
            {"r": R, "T": LONG_WINDOW, "eta": 0.1,
             "starts": np.linspace(0.0, PIECES * FAST_PIECE, 64, endpoint=False).tolist()}),
         "pass"),
        ("thm3-ring", _certify_config(
            "thm3-lambda2-series", _switching(sym, PIECE),
            {"r": R, "h": PIECE, "num_windows": PIECES}), "pass"),
        ("cor2-ring", _certify_config(
            "cor2-lambda2-uniform", _switching(sym, PIECE),
            {"r": R, "h": PIECE, "num_windows": PIECES, "alpha_hat": 1e-3}), "pass"),
        ("cor2-split", _certify_config(
            "cor2-lambda2-uniform", _switching(sym_split, PIECE),
            {"r": R, "h": PIECE, "num_windows": PIECES, "alpha_hat": 1e-6}), "fail"),
    ]
    out = [Operation(name, [], cfg, known) for name, cfg, known in ops]
    out.extend(invalid_operations())
    return out


def invalid_operations() -> list:
    """Configs whose coupling holds NaN or inf; `certify` must reject them (exit 2)."""
    fixed = np.random.default_rng(INVALID_SEED)
    one_nan = nonnegative_schedule(fixed)
    one_nan[1][3, 7] = math.nan
    inf_links = signed_pieces(fixed, 1, positive_only=True)[0]
    inf_links[0, 1] = inf_links[1, 0] = math.inf
    all_nan = np.full((M, M), math.nan)
    return [
        Operation("invalid-thm1-nan-entry", [], _certify_config(
            "thm1-spanning-tree", _switching(one_nan, PIECE),
            {"partition": [0.0, PERIOD], "eta": 0.02}), bad_field="coupling"),
        Operation("invalid-thm2-inf-links", [], _certify_config(
            "thm2-xi-window", _constant(inf_links), {"r": R, "T": 1.0, "eta": 0.1}),
            bad_field="coupling"),
        Operation("invalid-pointwise-all-nan", [], _certify_config(
            "invariance-pointwise", _constant(all_nan), {"r": R}, _constant(1.0)),
            bad_field="coupling"),
    ]


# ----------------------------------------------------------------------------


def prepare(workload: str, seed: int, root: Path, workdir: Path) -> list:
    """Write the workload's configs under workdir and return its operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload in ("ap-switching", "perturb-sinusoid"):
        scenario = "ap" if workload == "ap-switching" else "perturb"
        cfg = _bundled(root, scenario)
        if scenario == "ap":
            cfg["parameters"].update(AP_SHORT, seed=int(seed))
        else:
            cfg["parameters"].update(PERTURB_SHORT, epsilon=float(
                np.random.default_rng([int(seed), 7]).uniform(0.08, 0.12)))
        path = _write(workdir, scenario, cfg)
        return [Operation(scenario, ["experiment", scenario, "--config", path], cfg)]
    ops = certify_operations(seed)
    for op in ops:
        op.argv = ["certify", "--config", _write(workdir, op.name, op.config)]
    return ops
