"""Which experiment outputs and certificates two source trees write differently.

    python3 .github/scripts/output_diff.py <base tree> <head tree> <work dir>

Each tree runs `tvkuramoto experiment ap|perturb|fast` on shortened copies of
its own bundled configs (the sizes below), and `tvkuramoto certify` on the
criteria in CERTIFY below over the bundled `ap` coupling with its two small
negative entries set to 0, since a negative coupling makes the spanning-tree
criteria stop before any window is closed. The symmetric-PSD criteria (SYMMETRIC)
read each piece A as max(A, A^T), since an asymmetric coupling makes them
inconclusive before any window is read. Each tree runs with its own `src/` on
PYTHONPATH.
The script prints a Markdown report: every output file whose sha256 differs
between the trees, or that only one of them wrote, and any exit code that
differs. `summary.json` is compared as bytes with its `wall_time_s` line masked,
the one field that varies from run to run, so a change in its layout shows too;
where it differs, the report also names the dotted paths of its first
LEAF_PATHS differing leaves. It exits 0 whatever it finds: the report gates
nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

SHORT = {  # parameters.<key> overrides: a few seconds of model time per experiment
    "ap": {"num_runs": 3, "t_end": 12.0, "divergence_from": 8.0},
    "perturb": {"t_end": 6.0},
    "fast": {"t_end": 8.0},
}
LEAF_PATHS = 10  # differing summary.json leaves named per experiment
CERTIFY = {  # run label: criterion and parameters, on the bundled ap coupling
    "thm1": ("thm1-spanning-tree",  # default bins; the rising eta fails a later interval
             {"partition": [4.0 * k for k in range(11)], "eta": [0.1 * k for k in range(1, 11)]}),
    "cor1-default-starts": ("cor1-sliding-window", {"T": 1.0, "eta": 0.5}),
    "cor1-starts": ("cor1-sliding-window",
                    {"T": 1.0, "eta": 0.5, "starts": [k / 8 for k in range(64)]}),
    # h = 1.5 against the period 4: 8 windows span 3 periods; h = 4 / sqrt(2) spans none
    "thm3-commensurate": ("thm3-lambda2-series", {"r": 1.0, "h": 1.5, "num_windows": 8}),
    "cor2-commensurate": ("cor2-lambda2-uniform", {"r": 1.0, "h": 1.5, "num_windows": 8}),
    "thm3-incommensurate": ("thm3-lambda2-series",
                            {"r": 1.0, "h": 4 / math.sqrt(2), "num_windows": 8}),
    "cor2-incommensurate": ("cor2-lambda2-uniform",
                            {"r": 1.0, "h": 4 / math.sqrt(2), "num_windows": 8}),
}
SYMMETRIC = {"thm3-lambda2-series", "cor2-lambda2-uniform"}


def summary(path: Path) -> dict:
    """A summary.json without its wall_time_s."""
    data = json.loads(path.read_text())
    data.pop("wall_time_s", None)
    return data


def digest(path: Path) -> str:
    """sha256 of a file's bytes; of a summary.json, with its wall_time_s line masked."""
    data = path.read_bytes()
    if path.name == "summary.json":
        data = re.sub(rb'^  "wall_time_s": .*$', b'  "wall_time_s": null', data, flags=re.M)
    return hashlib.sha256(data).hexdigest()


def leaves(value, path: str = "") -> dict:
    """{dotted path: leaf} of a JSON value: objects by key, lists of objects or lists by
    index; a list of plain values is one leaf."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        items = enumerate(value)
    else:
        return {path: value}
    out = {}
    for key, item in items:
        out.update(leaves(item, f"{path}.{key}" if path else str(key)))
    return out


def differing_leaves(base: Path, head: Path) -> list:
    """Sorted dotted paths of the leaves two summary.json files hold differently, or that
    only one of them holds."""
    b, h = leaves(summary(base)), leaves(summary(head))
    return sorted(k for k in b.keys() | h.keys() if k not in b or k not in h or b[k] != h[k])


def command(tree: Path, label: str) -> tuple:
    """(CLI arguments before --config, config) of one run label: an experiment or a
    CERTIFY entry."""
    if label in SHORT:
        cfg = json.loads((tree / "src/tvkuramoto/configs" / f"{label}.json").read_text())
        cfg["parameters"].update(SHORT[label])
        return ["experiment", label], cfg
    criterion, parameters = CERTIFY[label]
    signals = json.loads((tree / "src/tvkuramoto/configs/ap.json").read_text())["signals"]
    for piece in signals["coupling"]["pieces"]:
        piece["value"] = [[max(v, 0.0) for v in row] for row in piece["value"]]
        if criterion in SYMMETRIC:
            piece["value"] = [list(map(max, row, col))
                              for row, col in zip(piece["value"], zip(*piece["value"]))]
    return ["certify"], {"criterion": criterion, "signals": signals, "parameters": parameters}


def run(tree: Path, label: str, work: Path):
    """(exit code, {relative path: sha256}) of one run label from tree."""
    args, cfg = command(tree, label)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str((tree / "src").resolve()))
    code = subprocess.run(
        [sys.executable, "-m", "tvkuramoto.cli", *args,
         "--config", str(work / "config.json"), "--out", str(work / "out")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    out = work / "out"
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    return code, {str(p.relative_to(out)): digest(p) for p in files}


def main(base: str, head: str, work: str) -> int:
    lines = ["### Experiment outputs and certificates, base against head",
             "", "| run | file | base | head |", "|---|---|---|---|"]
    same, leaf_notes = 0, []
    for label in [*SHORT, *CERTIFY]:
        (b_code, b_files), (h_code, h_files) = (
            run(Path(tree), label, Path(work) / side / label)
            for side, tree in (("base", base), ("head", head)))
        if b_code != h_code:
            lines.append(f"| {label} | exit code | {b_code} | {h_code} |")
        for name in sorted(b_files.keys() | h_files.keys()):
            b, h = b_files.get(name, "missing"), h_files.get(name, "missing")
            if b == h:
                same += 1
            else:
                lines.append(f"| {label} | `{name}` | `{b[:12]}` | `{h[:12]}` |")
                if name == "summary.json" and "missing" not in (b, h):
                    leaf_notes.append((label, differing_leaves(
                        *(Path(work) / side / label / "out" / name for side in ("base", "head")))))
    differ = len(lines) - 4
    lines += ["", f"{differ} difference(s); {same} file(s) identical by sha256 "
              "(`summary.json` with its `wall_time_s` line masked)."]
    for label, paths in leaf_notes:
        shown = ", ".join(f"`{p}`" for p in paths[:LEAF_PATHS])
        more = f" and {len(paths) - LEAF_PATHS} more" if len(paths) > LEAF_PATHS else ""
        lines += ["", f"{label} `summary.json` leaves that differ: {shown}{more}."]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
