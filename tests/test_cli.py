import copy
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tvkuramoto import cli, dynamics
from tvkuramoto.certificates import _jsonable
from tvkuramoto.cli import (_json_texts, _pd_header, _Rendered, _write_csv, _write_json,
                            _write_run_csvs, bundled_config_path, main, verify_reference_values)
from tvkuramoto.dynamics import PhaseTrajectory


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


def test_calls_in_one_process_share_no_options(tmp_path, capsys, monkeypatch):
    # one parser serves every main call in a process: the first call's --seed and --dt
    # must not reach the second, a wrong flag still exits 2 through argparse, and help
    # text is wrapped to the terminal width at the time it prints
    cfg_path = write_config(tmp_path, small_simulate_config())
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "a"),
                 "--seed", "7", "--dt", "0.0005"]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
    first, second = (json.loads((tmp_path / d / "summary.json").read_text())["config"]
                     for d in "ab")
    assert first["parameters"] == dict(small_simulate_config()["parameters"], seed=7, dt=0.0005)
    assert second == small_simulate_config()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg_path, "--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    widths = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--help"])
        assert exc.value.code == 0
        widths.append(max(map(len, capsys.readouterr().out.splitlines())))
    assert widths[0] <= 40 < widths[1]


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


def test_simulate_step_that_does_not_divide_the_span_exits_2(tmp_path, capsys):
    cfg = small_simulate_config()
    cfg["parameters"].update(t_end=1.0, dt=0.3)
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: config field 'parameters':" in err and "does not divide" in err
    assert "Traceback" not in err


def test_simulate_rejects_a_batch_of_starts_before_integrating(tmp_path, capsys, monkeypatch):
    cfg = _simulate_with(theta0=[[0.0, 0.2], [0.1, 0.3]])
    monkeypatch.setattr(dynamics, "simulate", lambda *a, **k: pytest.fail("integrated"))
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: config field 'parameters.theta0':" in err and "(2, 2)" in err
    assert not (tmp_path / "o").exists()


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


def test_certify_small_asymmetric_coupling_is_inconclusive(tmp_path):
    # within the max-entry symmetry tolerance, outside the eigensolver's Frobenius one
    cfg = {
        "criterion": "thm3-lambda2-series",
        "signals": {"omega": {"kind": "constant", "value": [0.0, 0.0]},
                    "coupling": {"kind": "constant", "value": [[0.0, 1e-11], [0.0, 0.0]]}},
        "parameters": {"r": 1.0, "h": 1.0},
    }
    assert main(["certify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 2
    report = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert report["verdict"] == "inconclusive"
    assert report["witnesses"] == {"asymmetric_at": 0.0}


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


@pytest.mark.parametrize("criterion", ["cor1-sliding-window", "thm2-xi-window"])
@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_certify_rejects_non_finite_window_starts(tmp_path, capsys, criterion, bad):
    cfg = {
        "criterion": criterion,
        "signals": {"omega": {"kind": "constant", "value": 0.0},
                    "coupling": {"kind": "switching", "pieces": [
                        {"duration": 0.5, "value": a.tolist()} for a in _ring_pieces(3, 2)]}},
        "parameters": {"r": math.pi / 3, "T": 1.0, "eta": 0.1, "starts": [0.0, bad]},
    }
    code = main(["certify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "starts" in capsys.readouterr().err
    assert not (tmp_path / "o" / "certificate.json").exists()


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


def _incommensurate_config(criterion):
    # omega has period 2 pi and the coupling period 4: no common multiple
    j = np.ones((3, 3)) - np.eye(3)
    return {
        "criterion": criterion,
        "signals": {
            "omega": {"kind": "sinusoid", "base": [0.0, 0.1, 0.2],
                      "amplitude": [0.0, 0.0, 0.1], "phase": 0.0},
            "coupling": {"kind": "switching", "pieces": [
                {"duration": 2.0, "value": (5.0 * j).tolist()},
                {"duration": 2.0, "value": (0.1 * j).tolist()}]},
        },
        "parameters": {"r": 1.0, "num_runs": 2, "t_end": 4.0, "divergence_from": 2.0},
    }


@pytest.mark.parametrize("argv, criterion, code", [
    (["certify"], "invariance-robust", 0),
    (["certify"], "invariance-pointwise", 2),
    (["experiment", "ap"], None, 2),
], ids=["robust", "pointwise", "ap"])
def test_incommensurate_periods_fail_only_where_signals_are_read_together(
        tmp_path, capsys, argv, criterion, code):
    cfg_path = write_config(tmp_path, _incommensurate_config(criterion))
    assert main(argv + ["--config", cfg_path, "--out", str(tmp_path / "o")]) == code
    assert ("config field 'signals':" in capsys.readouterr().err) == (code == 2)


def test_certify_thm1_with_zero_bins_exits_2(tmp_path, capsys):
    # zero bins checked no window and passed, even on an all-zero coupling
    cfg = {"criterion": "thm1-spanning-tree",
           "signals": {"omega": {"kind": "constant", "value": 0.0},
                       "coupling": {"kind": "constant", "value": np.zeros((3, 3)).tolist()}},
           "parameters": {"partition": [0.0, 1.0], "eta": 0.1, "bins": 0}}
    assert main(["certify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "bins" in capsys.readouterr().err


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


def _aperiodic_config():
    # a constant omega and a table coupling that switches once, at t = 5
    ones = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    return {"signals": {"omega": {"kind": "constant", "value": [1.0, 1.1, 0.9]},
                        "coupling": {"kind": "table", "times": [0.0, 5.0],
                                     "values": [ones, (2 * np.array(ones)).tolist()]}},
            "parameters": {"r": 1.0, "frequencies": [1.0]}}


def _bundled(name, **parameters):
    cfg = json.loads(bundled_config_path(name).read_text())
    cfg["parameters"].update(parameters)
    return cfg


@pytest.mark.parametrize("scenario, cfg, field, message", [
    ("ap", _aperiodic_config(), "signals", "periodic or constant"),
    ("fast", _aperiodic_config(), "signals", "needs periodic base signals"),
    ("fast", _bundled("fast", frequencies=[-1.0]), "parameters", "must be positive"),
    ("perturb", _bundled("perturb", p=1.5), "parameters", "linking probability"),
], ids=["ap-aperiodic", "fast-aperiodic", "fast-frequency", "perturb-p"])
def test_experiment_input_errors_exit_2(tmp_path, capsys, scenario, cfg, field, message):
    assert main(["experiment", scenario, "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error: config field '{field}':" in err and message in err


def _certify_config(criterion, **parameters):
    ones = (np.ones((3, 3)) - np.eye(3)).tolist()
    return {"criterion": criterion,
            "signals": {"omega": {"kind": "constant", "value": [1.0, 1.1, 0.9]},
                        "coupling": {"kind": "constant", "value": ones}},
            "parameters": parameters}


def _simulate_with(**parameters):
    cfg = small_simulate_config()
    cfg["parameters"].update(parameters)
    return cfg


@pytest.mark.parametrize("argv, cfg", [
    (["certify"], _certify_config("cor1-sliding-window", T="1", eta=0.1)),
    (["certify"], _certify_config("invariance-robust", r="1")),
    (["certify"], _certify_config("thm1-spanning-tree", partition=[0, {"a": 1}], eta=0.1)),
    (["certify"], _certify_config("thm3-lambda2-series", r=1.0, h=1.0, num_windows=2.5)),
    (["experiment", "fast"], _bundled("fast", frequencies=[10, "x"])),
    (["simulate"], _simulate_with(theta0=[0, "a", 0.2])),
], ids=["cor1-T", "robust-r", "thm1-partition", "thm3-num-windows", "fast-frequencies",
        "simulate-theta0"])
def test_parameters_a_command_cannot_read_exit_2(tmp_path, capsys, argv, cfg):
    # each of these used to crash with a traceback and exit 1, read as a `fail`
    assert main(argv + ["--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: config field 'parameters" in err and "Traceback" not in err


def test_lock_numerics_land_in_the_summary(tmp_path):
    perturb = {
        "scenario": "perturb",
        "parameters": {"m": 6, "p": 0.9, "seed": 0, "epsilon": 0.1, "r": 1.0,
                       "omega_low": 0.9, "omega_high": 1.1, "t_end": 1.0, "dt": 0.001},
    }
    fast = json.loads(bundled_config_path("fast").read_text())
    fast["parameters"].update({"frequencies": [1.0], "t_end": 1.0})
    for name, cfg in (("perturb", perturb), ("fast", fast)):
        out = tmp_path / name
        assert main(["experiment", name, "--config", write_config(tmp_path, cfg, f"{name}.json"),
                     "--out", str(out)]) == 0
        results = json.loads((out / "summary.json").read_text())["results"]
        lock = results if name == "perturb" else results["averaged_lock"]
        assert isinstance(lock["lock_newton_iterations"], int)
        assert 1 <= lock["lock_newton_iterations"] <= 5
        assert 0.0 <= lock["lock_residual"] <= 1e-13


def test_seed_and_dt_overrides_land_in_config(tmp_path):
    cfg_path = write_config(tmp_path, small_simulate_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out),
                 "--dt", "0.002", "--seed", "7"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["parameters"]["dt"] == 0.002
    assert summary["config"]["parameters"]["seed"] == 7
    assert summary["results"]["steps"] == 500


def test_override_of_parameters_that_are_not_an_object_exits_2(tmp_path, capsys):
    cfg = dict(small_simulate_config(), parameters=5)
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o"), "--seed", "7"]) == 2
    assert "config field 'parameters': expected dict, got int" in capsys.readouterr().err


def test_simulate_outputs_are_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, small_simulate_config())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "pd.csv").read_bytes() == (out2 / "pd.csv").read_bytes()


def test_verify_reference_values_table():
    table = verify_reference_values()
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


def test_pd_csv_formed_block_by_block_matches_the_whole_pd_array(tmp_path):
    rng = np.random.default_rng(1)
    traj = PhaseTrajectory(np.arange(3001) * 1e-3, np.cumsum(rng.standard_normal((3001, 7)), 0))
    _write_run_csvs(tmp_path, traj, "h", "_run0")
    _write_csv(tmp_path / "whole.csv", _pd_header(7),
               np.column_stack([traj.times, traj.phase_differences()]), "h", "t=s pd=rad")
    assert (tmp_path / "pd_run0.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def _window_config(criterion, coupling, **parameters):
    return {"criterion": criterion,
            "signals": {"omega": {"kind": "constant", "value": 0.0}, "coupling": coupling},
            "parameters": parameters}


_RING3 = (np.ones((3, 3)) - np.eye(3)).tolist()
_TWO_PAIRS = [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]
_SWITCHING3 = {"kind": "switching",
               "pieces": [{"duration": 1.0, "value": _RING3},
                          {"duration": 1.0, "value": (2 * np.array(_RING3)).tolist()}]}


def _constant(value):
    return {"kind": "constant", "value": value}


@pytest.mark.parametrize("cfg, name", [
    # repulsive: every window average of xi is +1.5
    (_window_config("thm2-xi-window", _constant((-0.5 * np.array(_RING3)).tolist()),
                    r=1.0, T=1.0, eta=-2.0), "eta"),
    (_window_config("thm2-xi-window", _constant(np.zeros((3, 3)).tolist()),
                    r=1.0, T=1.0, eta=0.0), "eta"),
    (_window_config("thm2-xi-window", _constant(_RING3), r=1.0, T=math.inf, eta=0.1), "T"),
    (_window_config("cor2-lambda2-uniform", _constant(_TWO_PAIRS), r=1.0, h=1.0,
                    alpha_hat=-1e-6), "alpha_hat"),
    (_window_config("thm3-lambda2-series", _constant(_TWO_PAIRS), r=1.0, h=1.0,
                    alpha_hat=-1e-6), "alpha_hat"),
    (_window_config("thm3-lambda2-series", _SWITCHING3, r=1.0, h=math.inf), "h"),
    (_window_config("cor2-lambda2-uniform", _SWITCHING3, r=1.0, h=math.inf), "h"),
    (_window_config("cor1-sliding-window", _constant(_RING3), T=math.inf, eta=0.1), "T"),
    (_window_config("cor1-sliding-window", _SWITCHING3, T=math.inf, eta=0.1), "T"),
    (_window_config("cor1-sliding-window", _SWITCHING3, T=1.0, eta=math.nan), "eta"),
    (_window_config("thm1-spanning-tree", _constant(_RING3), partition=[0.0, math.nan],
                    eta=0.1), "partition"),
    (_window_config("thm1-spanning-tree", _SWITCHING3, partition=[0.0, 1.0, 2.0],
                    eta=[0.1, math.inf]), "eta"),
    (_window_config("thm1-spanning-tree", _constant(_RING3), partition=[0.0, 1.0], eta=0.1,
                    bins=0), "bins"),
    (_window_config("thm3-lambda2-series", _constant(_RING3), r=1.0, h=1.0, num_windows=0),
     "num_windows"),
    (_window_config("thm3-lambda2-series", _constant(_RING3), r=1.0, h=1.0, num_windows=2.5),
     "num_windows"),
    (_window_config("thm3-lambda2-series", _constant(_RING3), r=1.0, h=1.0, num_windows="3"),
     "num_windows"),
    (_window_config("thm3-lambda2-series", _constant(_RING3), r=1.0, h=1.0, num_windows=True),
     "num_windows"),
    (_window_config("cor2-lambda2-uniform", _constant(_RING3), r=1.0, h=1.0, num_windows=0),
     "num_windows"),
], ids=["thm2-eta-negative", "thm2-eta-zero", "thm2-T-inf", "cor2-alpha-hat-negative",
        "thm3-alpha-hat-negative", "thm3-h-inf", "cor2-h-inf", "cor1-T-inf-constant",
        "cor1-T-inf-switching", "cor1-eta-nan", "thm1-partition-nan", "thm1-eta-inf",
        "thm1-bins-zero", "thm3-num-windows-zero", "thm3-num-windows-float",
        "thm3-num-windows-string", "thm3-num-windows-true", "cor2-num-windows-zero"])
def test_window_parameters_that_are_not_positive_and_finite_exit_2(tmp_path, capsys, cfg, name):
    # each of these used to pass, fail, die with an OverflowError and exit 1, or exit 2
    # with a message that did not name the field
    assert main(["certify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: config field 'parameters':" in err and f"{name} must be" in err
    assert not (tmp_path / "o" / "certificate.json").exists()


def _omega_of_length(cfg, n):
    cfg["signals"]["omega"] = {"kind": "constant", "value": np.linspace(0.9, 1.1, n).tolist()}
    return cfg


@pytest.mark.parametrize("argv, cfg", [
    (["certify"], _omega_of_length(_certify_config("invariance-pointwise", r=1.0), 4)),
    (["certify"], _omega_of_length(_certify_config("invariance-robust", r=1.0), 2)),
    (["simulate"], _omega_of_length(small_simulate_config(), 3)),
    (["experiment", "ap"], _omega_of_length(_bundled("ap", num_runs=1, t_end=4.0), 4)),
    (["experiment", "fast"], _omega_of_length(_bundled("fast", frequencies=[10.0]), 2)),
], ids=["pointwise", "robust", "simulate", "ap", "fast"])
def test_frequencies_that_do_not_match_the_coupling_name_signals_omega(tmp_path, capsys,
                                                                        argv, cfg):
    assert main(argv + ["--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "o")]) == 2
    assert "config field 'signals.omega':" in capsys.readouterr().err


def test_simulate_names_theta0_of_the_wrong_length(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "simulate", lambda *a, **k: pytest.fail("integrated"))
    assert main(["simulate", "--config", write_config(tmp_path, _simulate_with(theta0=[0.0])),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config field 'parameters.theta0':" in err and "(1,)" in err


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_simulate_rejects_a_non_finite_theta0_before_integrating(tmp_path, capsys, monkeypatch,
                                                                 bad):
    monkeypatch.setattr(dynamics, "simulate", lambda *a, **k: pytest.fail("integrated"))
    assert main(["simulate", "--config", write_config(tmp_path, _simulate_with(theta0=[bad, 0.0])),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config field 'parameters.theta0': theta0 must be finite" in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, field, value", [
    ("ap", "divergence_from", -5.0),     # a negative index would read only the last 5 s
    ("ap", "divergence_from", 20.0),     # past t_end = 12: no sample left to read
    ("ap", "divergence_from", math.nan),
    ("fast", "tail_fraction", 0.0),      # would read one sample
    ("fast", "tail_fraction", 1.5),      # would read the whole run
], ids=["ap-negative", "ap-past-end", "ap-nan", "fast-zero", "fast-above-one"])
def test_experiment_rejects_an_array_index_parameter_out_of_range(tmp_path, capsys, scenario,
                                                                   field, value):
    cfg = json.loads(bundled_config_path(scenario).read_text())
    if scenario == "ap":
        cfg["parameters"].update(num_runs=3, t_end=12.0)
    cfg["parameters"][field] = value
    code = main(["experiment", scenario, "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("scenario, field, value", [
    ("ap", "num_runs", 0),
    ("ap", "orbit_tol", -1.0),           # would run every period map, then exit 3
    ("ap", "orbit_max_iter", 0),         # would exit 3 after no iteration
    ("fast", "frequencies", [math.nan, 10.0]),
    ("fast", "frequencies", [math.inf]),  # would compress the schedule by epsilon = 0
    ("fast", "t_end", math.nan),
    ("ap", "dt", math.nan),
    ("perturb", "dt", math.nan),
    ("fast", "dt", math.nan),
    # the draws: numpy's OverflowError (a traceback), or an error naming no field
    ("ap", "ic_low", math.nan),
    ("ap", "ic_high", math.inf),
    ("ap", "ic_low", 1.0),                # above ic_high = pi/6
    ("ap", "seed", -1),
    ("perturb", "omega_low", math.nan),
    ("perturb", "omega_high", -math.inf),
    ("perturb", "omega_low", 1.2),        # above omega_high = 1.1
    ("perturb", "seed", -1),
    ("perturb", "epsilon", math.nan),
], ids=["ap-no-runs", "ap-negative-orbit-tol", "ap-no-orbit-iteration", "fast-nan-frequency",
        "fast-inf-frequency", "fast-nan-t-end", "ap-nan-dt", "perturb-nan-dt", "fast-nan-dt",
        "ap-nan-ic-low", "ap-inf-ic-high", "ap-reversed-ic-range", "ap-negative-seed",
        "perturb-nan-omega-low", "perturb-inf-omega-high", "perturb-reversed-omega-range",
        "perturb-negative-seed", "perturb-nan-epsilon"])
def test_experiment_rejects_a_parameter_that_breaks_the_run(tmp_path, capsys, scenario, field,
                                                            value):
    # each used to run and then fail, or exit 2 naming some other quantity; dt comes
    # through the --dt option
    cfg = json.loads(bundled_config_path(scenario).read_text())
    if scenario == "ap":
        cfg["parameters"].update(num_runs=3, t_end=12.0, divergence_from=8.0)
    option = ["--dt", str(value)] if field == "dt" else []
    if not option:
        cfg["parameters"][field] = value
    code = main(["experiment", scenario, "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")] + option)
    assert code == 2
    assert f"'parameters': {field} must be" in capsys.readouterr().err


def test_certificate_json_is_strict_with_a_non_finite_witness(tmp_path):
    # at r = 0 a nonzero frequency spread makes the robust test's lhs infinite
    out = tmp_path / "o"
    cfg = _certify_config("invariance-robust", r=0.0)
    assert main(["certify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    for name in ("certificate.json", "summary.json"):
        json.loads((out / name).read_text(), parse_constant=reject)
    report = json.loads((out / "certificate.json").read_text())
    assert report["witnesses"]["lhs"] is None and report["witnesses"]["delta_omega"] > 0
    # the perturb summary's error_ratio is inf when the eps/2 error is 0
    _write_json(tmp_path / "ratio.json", {"error_ratio": math.inf, "errors": np.array([np.nan])})
    assert json.loads((tmp_path / "ratio.json").read_text(), parse_constant=reject) == {
        "error_ratio": None, "errors": [None]}


_JSON_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, math.nan, -math.inf])


@st.composite
def _mixed_rows(draw):
    """A row of finite floats with other values in it: each makes the one-pass float row
    fall back, by a TypeError (int, bool, None) or a repr with an n (NaN, +-inf), or
    passes it as a float subclass (np.float64)."""
    row = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6))
    odd = st.sampled_from([0, -3, 2**70, True, False, None, math.nan, math.inf, -math.inf])
    for value in draw(st.lists(odd | _JSON_FLOATS.map(np.float64), min_size=1, max_size=3)):
        row.insert(draw(st.integers(0, len(row))), value)
    return tuple(row) if draw(st.booleans()) else row


_MIXED_ROWS = _mixed_rows()
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**63, -2**64 - 1])
    | _JSON_FLOATS | st.text() | st.sampled_from(['"quoted" \\ é', "\x00\x1f\n\t\u2028", "日本 😀"])
    | _JSON_FLOATS.map(np.float64)
    | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False))  # a row of plain floats
    | _MIXED_ROWS
    | hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4))
)
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda children: (
    st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4)), max_leaves=20)


@settings(max_examples=200)
@given(obj=_JSON_VALUES)
@example(obj={"row": [1.5, math.nan, -math.inf, math.inf, 2, True, np.float64(0.1), -0.0]})
@example(obj=[[math.nan, 1.0], (math.inf,), [-math.inf, np.float64(math.nan)], []])
def test_write_json_writes_the_bytes_of_the_standard_encoder(tmp_path_factory, obj):
    # numpy values as _jsonable converts them, and NaN and inf as null; at the parent
    # an array of finite floats raised TypeError while one holding NaN was written
    path = tmp_path_factory.getbasetemp() / "writer.json"
    expected = json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    assert _write_json(path, obj) == expected
    assert path.read_text() == expected + "\n"
    # the one pass behind it also writes the hash text: what json.dumps writes, NaN and
    # inf as NaN and +-Infinity; json.dumps calls default only for a value it rejects,
    # a numpy array or integer, which the hash text writes as the values it holds
    hashed = json.dumps(obj, sort_keys=True, default=lambda v: v.tolist())
    assert _json_texts(obj) == (hashed, expected)
    # a rendered value is written back as it is, at the indent it was rendered for
    inner = _json_texts(obj, "\n    ")
    assert _json_texts({"a": [_Rendered(inner)]}) == _json_texts({"a": [obj]})


def _stub_command(cfg, config_hash, outdir):
    return {"config_hash_seen": config_hash}, 0


@pytest.mark.parametrize("argv, cfg, options", [
    (["experiment", "ap"], _bundled("ap"), []),
    (["experiment", "perturb"], _bundled("perturb"), []),
    (["experiment", "fast"], _bundled("fast"), []),
    # certify reads no parameters.note, so the NaN and inf in it reach the summary
    (["certify"], _certify_config("thm1-spanning-tree", partition=[0.0, 1.0, 2.0], eta=0.1,
                                  note=[math.nan, math.inf, -math.inf, 1.5, [math.nan, 2]]), []),
    (["simulate"], small_simulate_config(), ["--seed", "7", "--dt", "0.0005"]),
], ids=["ap", "perturb", "fast", "certify-non-finite", "seed-and-dt-overrides"])
def test_config_hash_and_summary_bytes_match_the_standard_encoder(tmp_path, monkeypatch,
                                                                  capsys, argv, cfg, options):
    # the bundled experiments run as a stub, as neither the hash nor the summary's
    # layout depends on what a command computes
    for name in ("ap", "perturb", "fast"):
        monkeypatch.setitem(cli._COMMANDS, name, _stub_command)
    out = tmp_path / "o"
    assert main(argv + ["--config", write_config(tmp_path, cfg), "--out", str(out)]
                + options) == 0
    capsys.readouterr()
    if options:  # --seed and --dt land in parameters before the config is hashed
        cfg = {**cfg, "parameters": {**cfg["parameters"], "seed": 7, "dt": 0.0005}}
    text = (out / "summary.json").read_text()
    summary = json.loads(text)
    assert summary["config_hash"] == hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]
    assert summary["config"] == _jsonable(cfg)
    if "config_hash_seen" in summary["results"]:
        assert summary["results"]["config_hash_seen"] == summary["config_hash"]
    assert text == json.dumps(summary, indent=2, sort_keys=True) + "\n"


def test_verify_paper_values_prints_the_table_the_library_returns(capsys):
    # the library call prints nothing; the command prints the table's four rows, then
    # the line that says not all of them reproduce, and exits 1
    table = verify_reference_values()
    assert capsys.readouterr().out == ""
    assert main(["verify-paper-values"]) == 1
    lines = capsys.readouterr().out.splitlines()
    rows = {name: row for name, row in table.items() if name != "all_match"}
    assert len(rows) == 4 and table["all_match"] is False
    assert lines[0].split() == ["quantity", "recomputed", "published", "tol", "match"]
    for line, (name, row) in zip(lines[1:5], rows.items()):
        assert line.startswith(name)
        assert line[len(name):].split() == [f"{row['recomputed']:.4f}", f"{row['published']:.4f}",
                                            f"{row['tolerance']:.0e}",
                                            "yes" if row["match"] else "NO"]
    assert lines[5:] == ["", "Not all values reproduce; see README (reference-value status) "
                             "for the analysis."]


_NUMERIC_FIELDS = [(name, field) for name in ("ap", "perturb", "fast")
                   for field, value in json.loads(bundled_config_path(name).read_text())
                   ["parameters"].items()
                   if isinstance(value, (int, float)) and not isinstance(value, bool)]


@pytest.mark.parametrize("scenario, field", _NUMERIC_FIELDS,
                         ids=[f"{s}-{f}" for s, f in _NUMERIC_FIELDS])
def test_a_json_boolean_is_no_number_for_an_experiment(tmp_path, capsys, scenario, field):
    # true used to be read as 1 (a float or int field); now it is a config error naming
    # the field, raised before any work
    cfg = json.loads(bundled_config_path(scenario).read_text())
    cfg["parameters"][field] = True
    assert main(["experiment", scenario, "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config field 'parameters.{field}': expected" in err and "got bool" in err
    assert not (tmp_path / "o").exists()


_BOOL_CERTIFY = [
    _window_config("invariance-robust", _constant(_RING3), r=True),
    _window_config("thm2-xi-window", _SWITCHING3, r=True, T=1.0, eta=0.1),
    _window_config("cor1-sliding-window", _SWITCHING3, T=True, eta=0.1),
    _window_config("cor1-sliding-window", _SWITCHING3, T=1.0, eta=True),
    _window_config("thm1-spanning-tree", _SWITCHING3, partition=[0.0, 1.0, 2.0], eta=True),
    _window_config("thm3-lambda2-series", _SWITCHING3, r=1.0, h=True),
    _window_config("cor2-lambda2-uniform", _SWITCHING3, r=1.0, h=1.0, alpha_hat=True),
]


@pytest.mark.parametrize("cfg", _BOOL_CERTIFY, ids=[
    "robust-r", "thm2-r", "cor1-T", "cor1-eta", "thm1-eta", "thm3-h", "cor2-alpha-hat"])
def test_a_json_boolean_is_no_number_for_certify(tmp_path, capsys, cfg):
    # each of these used to return a verdict, with true read as 1
    field = next(k for k, v in cfg["parameters"].items() if v is True)
    assert main(["certify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: config field 'parameters':" in err
    assert f"{field} must" in err and "got True" in err
    assert not (tmp_path / "o" / "certificate.json").exists()


def _number_paths(node, path=()):
    """The key paths of the numbers in a JSON value (a bool is none)."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [p for key, child in items for p in _number_paths(child, path + (key,))]
    return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


_EVERY_KIND = {  # one coupling of each signal kind, with every field it reads
    "constant": _constant(_RING3),
    "switching": dict(_SWITCHING3, period=2.0),
    "sinusoid": {"kind": "sinusoid", "base": _RING3, "phase": 0.0, "time_scale": 1.0,
                 "amplitude": (0.5 * np.array(_RING3)).tolist()},
    "table": {"kind": "table", "times": [0.0, 1.0], "period": 2.0,
              "values": [_RING3, (2 * np.array(_RING3)).tolist()]},
}
_LIST_CONFIGS = [  # id, argv, config; the experiments shortened, for a run that takes the bool
    *((kind, ["certify"], _window_config("invariance-robust", sig, r=1.0))
      for kind, sig in _EVERY_KIND.items()),
    ("thm1", ["certify"], _window_config("thm1-spanning-tree", _constant(_RING3),
                                         partition=[0.0, 1.0, 2.0], eta=[0.1, 0.1])),
    ("cor1", ["certify"], _window_config("cor1-sliding-window", _constant(_RING3), T=1.0,
                                         eta=0.1, starts=[0.0, 0.5])),
    ("thm2", ["certify"], _window_config("thm2-xi-window", _constant(_RING3), r=1.0, T=1.0,
                                         eta=0.1, starts=[0.0, 0.5])),
    ("simulate", ["simulate"], small_simulate_config()),
    ("ap", ["experiment", "ap"], _bundled("ap", num_runs=1, t_end=4.0)),
    ("perturb", ["experiment", "perturb"], _bundled("perturb")),  # no list, no signal: no case
    ("fast", ["experiment", "fast"], _bundled("fast", t_end=4.0)),
]
# every number in a signal or in a list of parameters: a number outside a list is covered
# by the scalar tests above, and the window criteria's coupling by the signal kinds
_LIST_NUMBERS = [(f"{name}-" + "-".join(map(str, path[1:])), argv, cfg, path)
                 for name, argv, cfg in _LIST_CONFIGS for path in _number_paths(cfg)
                 if (path[0] == "signals" and name not in ("thm1", "cor1", "thm2"))
                 or (path[0] == "parameters" and isinstance(path[-1], int))]


@pytest.mark.parametrize("argv, cfg, path", [case[1:] for case in _LIST_NUMBERS],
                         ids=[case[0] for case in _LIST_NUMBERS])
def test_a_json_boolean_in_a_list_or_a_signal_is_no_number(tmp_path, capsys, argv, cfg, path):
    # true inside a list or a signal used to be read as 1: a verdict, a run, or an error
    # that names another fault
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = True
    assert main(argv + ["--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "o")]) == 2
    field = (f"signals.{path[1]}" if path[0] == "signals"
             else "parameters.theta0" if path[1] == "theta0" else "parameters")
    name = next(key for key in reversed(path) if isinstance(key, str))
    err = capsys.readouterr().err
    assert f"config field '{field}': {name}" in err and "must hold numbers, not bool" in err
    assert not (tmp_path / "o").exists()
