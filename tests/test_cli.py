import json
import math

import numpy as np
import pytest

from tvkuramoto.cli import _write_csv, bundled_config_path, main, verify_reference_values


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def small_simulate_config():
    return {
        "signals": {
            "omega": {"kind": "constant", "value": [1.2, 1.0]},
            "coupling": {"kind": "constant", "value": [[0.0, 1.0], [1.0, 0.0]]},
        },
        "parameters": {"theta0": [0.0, 0.2], "t_end": 1.0, "dt": 0.001, "r": 1.0},
    }


def test_simulate_writes_outputs(tmp_path):
    cfg_path = write_config(tmp_path, small_simulate_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "pd.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["invariance"] == "invariant"
    assert summary["config"]["parameters"]["t_end"] == 1.0

    header = (out / "trajectory.csv").read_text().splitlines()
    assert header[0].startswith("# config_hash=")
    assert "units:" in header[0]
    assert header[1] == "t,theta_1,theta_2"
    assert len(header) == 2 + 1001

    pd_head = (out / "pd.csv").read_text().splitlines()[1]
    assert pd_head == "t,pd_2_1"


def test_simulate_missing_config_file(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_simulate_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "line" in capsys.readouterr().err


def test_simulate_rejects_r_out_of_range(tmp_path, capsys):
    cfg = small_simulate_config()
    cfg["parameters"]["r"] = 2.0
    cfg_path = write_config(tmp_path, cfg)
    for command in (["simulate"], ["experiment", "ap"]):
        code = main(command + ["--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "parameters.r" in capsys.readouterr().err
    assert not (tmp_path / "o" / "trajectory.csv").exists()


def test_simulate_schema_error_names_field(tmp_path, capsys):
    cfg = small_simulate_config()
    del cfg["parameters"]["dt"]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "parameters.dt" in capsys.readouterr().err


def test_certify_pass_fail_inconclusive(tmp_path):
    base = {
        "signals": {
            "omega": {"kind": "constant", "value": [1.2, 1.0]},
            "coupling": {"kind": "constant", "value": [[0.0, 1.0], [1.0, 0.0]]},
        },
    }
    ok = dict(base, criterion="invariance-robust", parameters={"r": 0.5})
    assert main(["certify", "--config", write_config(tmp_path, ok, "a.json"),
                 "--out", str(tmp_path / "a")]) == 0
    report = json.loads((tmp_path / "a" / "certificate.json").read_text())
    assert report["witnesses"]["delta_omega"] == pytest.approx(0.2)

    bad = {
        "criterion": "invariance-robust",
        "signals": {
            "omega": {"kind": "constant", "value": [2.0, 0.0]},
            "coupling": {"kind": "constant", "value": [[0.0, 0.0], [0.0, 0.0]]},
        },
        "parameters": {"r": 0.5},
    }
    assert main(["certify", "--config", write_config(tmp_path, bad, "b.json"),
                 "--out", str(tmp_path / "b")]) == 1

    inconclusive = {
        "criterion": "thm1-spanning-tree",
        "signals": {
            "omega": {"kind": "constant", "value": [1.0, 1.0]},
            "coupling": {"kind": "constant", "value": [[0.0, -1.0], [1.0, 0.0]]},
        },
        "parameters": {"partition": [0.0, 1.0], "eta": 0.1},
    }
    assert main(["certify", "--config", write_config(tmp_path, inconclusive, "c.json"),
                 "--out", str(tmp_path / "c")]) == 2
    report = json.loads((tmp_path / "c" / "certificate.json").read_text())
    assert report["verdict"] == "inconclusive"

    disconnected = {
        "criterion": "cor1-sliding-window",
        "signals": {
            "omega": {"kind": "constant", "value": [1.0, 1.0, 1.0, 1.0]},
            "coupling": {"kind": "constant",
                         "value": [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]},
        },
        "parameters": {"T": 1.0, "eta": 0.1},
    }
    assert main(["certify", "--config", write_config(tmp_path, disconnected, "d.json"),
                 "--out", str(tmp_path / "d")]) == 1
    report = json.loads((tmp_path / "d" / "certificate.json").read_text())
    assert report["witnesses"]["first_failing_start"] == 0.0


def test_certify_unknown_criterion(tmp_path, capsys):
    cfg = {
        "criterion": "nope",
        "signals": {
            "omega": {"kind": "constant", "value": [1.0]},
            "coupling": {"kind": "constant", "value": [[0.0]]},
        },
        "parameters": {},
    }
    assert main(["certify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "criterion" in capsys.readouterr().err


def _ring_pieces(m, count):
    """Nonnegative switching pieces, each holding a directed ring."""
    rng = np.random.default_rng(3)
    pieces = []
    for _ in range(count):
        a = np.zeros((m, m))
        a[(np.arange(m) + 1) % m, np.arange(m)] = rng.uniform(0.5, 1.5, m)
        pieces.append(a)
    return pieces


def _non_finite_certify_configs():
    """NaN entry in thm1, inf links in thm2, an all-NaN coupling in pointwise."""
    one_nan = _ring_pieces(5, 4)
    one_nan[1][3, 2] = math.nan
    inf_links = np.ones((5, 5)) - np.eye(5)
    inf_links[0, 1] = inf_links[1, 0] = math.inf
    zero = {"kind": "constant", "value": 0.0}
    return {
        "thm1-nan-entry": {
            "criterion": "thm1-spanning-tree",
            "signals": {"omega": zero, "coupling": {"kind": "switching", "pieces": [
                {"duration": 0.5, "value": a.tolist()} for a in one_nan]}},
            "parameters": {"partition": [0.0, 2.0], "eta": 0.02},
        },
        "thm2-inf-links": {
            "criterion": "thm2-xi-window",
            "signals": {"omega": zero,
                        "coupling": {"kind": "constant", "value": inf_links.tolist()}},
            "parameters": {"r": math.pi / 3, "T": 1.0, "eta": 0.1},
        },
        "pointwise-all-nan": {
            "criterion": "invariance-pointwise",
            "signals": {"omega": {"kind": "constant", "value": 1.0},
                        "coupling": {"kind": "constant",
                                     "value": np.full((5, 5), math.nan).tolist()}},
            "parameters": {"r": math.pi / 3},
        },
    }


@pytest.mark.parametrize("name", sorted(_non_finite_certify_configs()))
def test_certify_rejects_non_finite_coupling(tmp_path, capsys, name):
    cfg = _non_finite_certify_configs()[name]
    # json.dumps writes the NaN / Infinity literals that json.loads accepts
    code = main(["certify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "signals.coupling" in capsys.readouterr().err
    assert not (tmp_path / "o" / "certificate.json").exists()


def test_certify_rejects_non_finite_omega(tmp_path, capsys):
    cfg = _non_finite_certify_configs()["pointwise-all-nan"]
    cfg["signals"] = {"omega": {"kind": "constant", "value": [1.0, math.inf]},
                      "coupling": {"kind": "constant", "value": [[0.0, 1.0], [1.0, 0.0]]}}
    assert main(["certify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "signals.omega" in capsys.readouterr().err


@pytest.mark.parametrize("value", [[[0.0]], 1.0, [0.0, 1.0]])
def test_certify_rejects_coupling_without_pairs(tmp_path, capsys, value):
    cfg = {
        "criterion": "invariance-pointwise",
        "signals": {"omega": {"kind": "constant", "value": 1.0},
                    "coupling": {"kind": "constant", "value": value}},
        "parameters": {"r": 0.5},
    }
    assert main(["certify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "signals.coupling" in capsys.readouterr().err


def _diagonal_config(criterion, diagonal):
    a = np.ones((3, 3))
    np.fill_diagonal(a, diagonal)
    return {
        "criterion": criterion,
        "signals": {"omega": {"kind": "constant", "value": [0.0, 1.5, 3.0]},
                    "coupling": {"kind": "constant", "value": a.tolist()}},
        "parameters": {"r": 1.0},
    }


@pytest.mark.parametrize("criterion", ["invariance-pointwise", "invariance-robust"])
def test_certify_rejects_coupling_diagonal(tmp_path, capsys, criterion):
    # self-links leave the dynamics unchanged, so they must not move a verdict
    code = main(["certify", "--config", write_config(tmp_path, _diagonal_config(criterion, 0.0)),
                 "--out", str(tmp_path / "zero")])
    assert code == 1
    report = json.loads((tmp_path / "zero" / "certificate.json").read_text())
    assert report["verdict"] == "fail"
    code = main(["certify", "--config", write_config(tmp_path, _diagonal_config(criterion, 5.0)),
                 "--out", str(tmp_path / "five")])
    assert code == 2
    assert "signals.coupling" in capsys.readouterr().err
    assert not (tmp_path / "five" / "certificate.json").exists()


@pytest.mark.parametrize("coupling", [
    {"kind": "constant", "value": [[0.0, 1.0], [1.0, -0.5]]},
    {"kind": "switching", "pieces": [{"duration": 1.0, "value": [[0.0, 1.0], [1.0, 0.0]]},
                                     {"duration": 1.0, "value": [[2.0, 1.0], [1.0, 0.0]]}]},
    {"kind": "table", "times": [0.0, 1.0],
     "values": [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 3.0]]]},
    {"kind": "sinusoid", "base": [[0.0, 1.0], [1.0, 0.0]], "amplitude": 0.1, "phase": 0.0},
], ids=["constant", "switching", "table", "sinusoid"])
def test_coupling_diagonal_exits_2(tmp_path, capsys, coupling):
    cfg = small_simulate_config()
    cfg["signals"]["coupling"] = coupling
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "signals.coupling" in capsys.readouterr().err


def test_certify_bundled_ap_thm2(tmp_path):
    ap = json.loads(bundled_config_path("ap").read_text())
    cfg = {
        "criterion": "thm2-xi-window",
        "signals": ap["signals"],
        "parameters": {"r": math.pi / 3, "T": 4.0, "eta": 0.01},
    }
    assert main(["certify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "certificate.json").read_text())
    assert report["witnesses"]["worst_window_average"] <= -0.01


def test_runtime_failure_exit_code(tmp_path, capsys):
    # a huge frequency spread drives the lock search out of the PD region
    cfg = {
        "scenario": "perturb",
        "parameters": {"m": 6, "p": 0.9, "seed": 0, "epsilon": 0.1, "r": 0.3,
                       "omega_low": 0.0, "omega_high": 30.0, "t_end": 5.0, "dt": 0.001},
    }
    assert main(["experiment", "perturb", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 3
    assert "runtime failure" in capsys.readouterr().err


def test_seed_and_dt_overrides_land_in_config(tmp_path):
    cfg_path = write_config(tmp_path, small_simulate_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out),
                 "--dt", "0.002", "--seed", "7"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["parameters"]["dt"] == 0.002
    assert summary["config"]["parameters"]["seed"] == 7
    assert summary["results"]["steps"] == 500


def test_simulate_outputs_are_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, small_simulate_config())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "pd.csv").read_bytes() == (out2 / "pd.csv").read_bytes()


def test_verify_reference_values_table():
    table = verify_reference_values(quiet=True)
    lam = table["|lambda2| of averaged Laplacian"]
    assert lam["match"] is True
    assert lam["recomputed"] == pytest.approx(2.5004, abs=1e-3)
    # the xi rows document the known irreproducibility of the printed values
    assert {"recomputed", "published", "tolerance", "match"} <= set(
        table["xi(first coupling matrix, pi/3)"])


def test_bundled_configs_parse():
    for name in ("ap", "perturb", "fast"):
        cfg = json.loads(bundled_config_path(name).read_text())
        assert cfg["scenario"] == name


@pytest.mark.parametrize("field, signal", [
    ("signals.coupling", {"kind": "switching", "pieces": [
        {"duration": math.inf, "value": [[0.0, 1.0], [1.0, 0.0]]},
        {"duration": 1.0, "value": [[0.0, 2.0], [2.0, 0.0]]}]}),
    ("signals.coupling", {"kind": "table", "times": [0.0, math.nan],
                          "values": [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 2.0], [2.0, 0.0]]],
                          "period": 3.0}),
    ("signals.omega", {"kind": "sinusoid", "base": [1.0, 1.0], "amplitude": 0.1,
                       "phase": 0.0, "time_scale": math.nan}),
], ids=["switching", "table", "sinusoid"])
def test_non_finite_signal_timing_exits_2(tmp_path, capsys, field, signal):
    cfg = small_simulate_config()
    cfg["signals"][field.split(".")[1]] = signal
    # json.dumps writes the NaN / Infinity literals that json.loads accepts
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err


def test_csv_rows_match_savetxt_bytes(tmp_path):
    rows = np.array([[-0.0, 1e-300, 1e300, 3.0],
                     [math.nan, -2.0, 0.1, 1.0 / 3.0],
                     [math.inf, 12345678901234.0, -1e-5, 7.0]])
    rows = np.vstack([rows, np.random.default_rng(0).standard_normal((2000, 4)) * 1e3])
    _write_csv(tmp_path / "a.csv", ["a", "b", "c", "d"], rows, "h", "u")
    with (tmp_path / "b.csv").open("w", newline="\n") as fh:
        fh.write("# config_hash=h units: u\na,b,c,d\n")
        np.savetxt(fh, rows, fmt="%.12g", delimiter=",", newline="\n")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
