"""Every input check that no other test reaches, one case each: the library raises the
named exception with its message, and the command line exits 2 naming the field."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tvkuramoto.certificates import invariance_pointwise, thm1_spanning_tree_check
from tvkuramoto.cli import main
from tvkuramoto.dynamics import simulate
from tvkuramoto.graph import laplacian_from_adjacency, threshold_graph
from tvkuramoto.linalg import contraction_factor, restricted_spectrum, state_transition
from tvkuramoto.scenarios import (
    er_random_network, fast_switching_sweep, find_periodic_pd, first_order_approx,
    linear_correction, phase_locked_equilibrium,
)
from tvkuramoto.signals import (
    ConstantSignal, SinusoidSignal, SwitchingSignal, TableSignal, check_alignment,
    signal_from_json,
)

J2 = np.array([[0.0, 1.0], [1.0, 0.0]])
SWITCHING_J2 = SwitchingSignal([1.0, 1.0], [J2, 2 * J2])


def _lock():
    """The static lock of two identical nodes coupled by J2: Newton finds it at once."""
    return phase_locked_equilibrium(np.zeros(2), J2, 1.0, np.zeros(2))


def _overflowing_correction():
    # a repulsive coupling puts an eigenvalue 200 in Y: e^{200 t} overflows by t = 3.6 s
    base = replace(_lock(), coupling_bar=-100 * J2)
    with np.errstate(over="ignore", invalid="ignore"):
        linear_correction(base, SinusoidSignal(np.zeros(2), np.ones(2), 0.0, trig="sin"),
                          SinusoidSignal(np.zeros((2, 2)), J2, 0.0), 5.0, 0.01)


CASES = {
    # certificates
    "invariance-omega-shape": (
        lambda: invariance_pointwise(ConstantSignal(np.zeros(3)), ConstantSignal(J2), 0.5),
        ValueError, r"frequency signal shape \(3,\) does not match m=2"),
    "thm1-eta-count": (
        lambda: thm1_spanning_tree_check(ConstantSignal(J2), [0.0, 1.0, 2.0], [0.1] * 3),
        ValueError, "need one eta per partition interval"),
    # dynamics
    "simulate-t-end": (
        lambda: simulate(np.zeros(2), ConstantSignal(np.zeros(2)), ConstantSignal(J2), 0.0, 0.1),
        ValueError, "t_end must be positive and finite, got 0.0"),
    "simulate-theta0-shape": (
        lambda: simulate(np.zeros((1, 1, 2)), ConstantSignal(np.zeros(2)), ConstantSignal(J2),
                         1.0, 0.1),
        ValueError, r"theta0 must have ndim \(1, 2\), got shape \(1, 1, 2\)"),
    # graph
    "adjacency-square": (
        lambda: laplacian_from_adjacency(np.zeros((2, 3))),
        ValueError, r"adjacency must be square, got shape \(2, 3\)"),
    "threshold-eta": (
        lambda: threshold_graph(np.zeros((2, 2)), 0.0),
        ValueError, "eta must be positive and finite, got 0.0"),
    # linalg
    "spectrum-square": (
        lambda: restricted_spectrum(np.zeros((2, 3))),
        ValueError, r"need a square matrix, got shape \(2, 3\)"),
    "transition-order": (
        lambda: state_transition(ConstantSignal(J2), 1.0, 0.5, 0.1),
        ValueError, "need t >= s, got s=1.0, t=0.5"),
    "contraction-square": (
        lambda: contraction_factor(np.zeros((2, 3))),
        ValueError, r"need a square matrix, got shape \(2, 3\)"),
    # scenarios
    "lock-dimensions": (
        lambda: phase_locked_equilibrium(np.zeros(3), np.zeros((2, 2)), 1.0, np.zeros(2)),
        ValueError, "omega_bar / a_bar dimensions do not match theta0"),
    "period-map-iterations": (
        lambda: find_periodic_pd(ConstantSignal([0.0, 0.5]), SWITCHING_J2.time_compress(0.5),
                                 1.0, [0.3], tol=0.0, max_iter=1, dt=0.01),
        RuntimeError, "period map did not reach a fixed point in 1 iterations"),
    "correction-overflow": (
        _overflowing_correction,
        RuntimeError, "first-order correction overflows by t = 5.000000 s"),
    "expansion-periodic": (
        lambda: first_order_approx(_lock(), ConstantSignal(np.zeros(2)),
                                   SinusoidSignal(np.zeros((2, 2)), J2, 0.0), 0.1, 1.0, 0.01),
        ValueError, "omega_pert must be periodic"),
    "sweep-frequencies": (
        lambda: fast_switching_sweep(SwitchingSignal([1.0, 1.0], [[0.0, 0.0]] * 2),
                                     SWITCHING_J2, [], 1.0),
        ValueError, "frequencies must be a nonempty list"),
    "sweep-connectivity": (
        lambda: fast_switching_sweep(SwitchingSignal([1.0, 1.0], [[0.0, 0.0]] * 2),
                                     SwitchingSignal([1.0, 1.0], [0 * J2, 0 * J2]), [10.0], 1.0),
        ValueError, "averaged algebraic connectivity 0 is not positive"),
    "sweep-lock": (
        lambda: fast_switching_sweep(SwitchingSignal([1.0, 1.0], [[0.0, 50.0]] * 2),
                                     SwitchingSignal([1.0, 1.0], [0.1 * J2] * 2), [10.0], 1.0),
        RuntimeError, "averaged system failed to lock: phases left the PD region"),
    "random-network-draws": (
        lambda: er_random_network(2, 1e-12, seed=0),
        RuntimeError, r"no connected draw in 10000 attempts \(p too small\?\)"),
    # signals
    "sinusoid-trig": (
        lambda: SinusoidSignal(0.0, 1.0, 0.0, trig="tan"),
        ValueError, "trig must be 'sin' or 'cos', got 'tan'"),
    "sinusoid-compress": (
        lambda: SinusoidSignal(0.0, 1.0, 0.0).time_compress(0.0),
        ValueError, "epsilon must be positive and finite, got 0.0"),
    "table-empty": (
        lambda: TableSignal([], []),
        ValueError, "need one value per time and at least one sample"),
    "table-start": (
        lambda: TableSignal([1.0], [0.0]),
        ValueError, "table must start at time 0"),
    "table-order": (
        lambda: TableSignal([0.0, 0.0], [1.0, 2.0]),
        ValueError, "table times must be strictly increasing"),
    "table-period": (
        lambda: TableSignal([0.0, 1.0], [1.0, 2.0], period=1.0),
        ValueError, "period must exceed the last sample time"),
    "table-shapes": (
        lambda: TableSignal([0.0, 1.0], [1.0, [1.0, 2.0]]),
        ValueError, "values have inconsistent shapes"),
    "switching-empty": (
        lambda: SwitchingSignal([], []),
        ValueError, "need one duration per piece and at least one piece"),
    "json-object": (
        lambda: signal_from_json([]),
        ValueError, "signal description must be an object with a 'kind' field"),
    "json-pieces": (
        lambda: signal_from_json({"kind": "switching", "pieces": []}),
        ValueError, "switching signal needs a non-empty 'pieces' list"),
    "alignment-span": (
        lambda: check_alignment(ConstantSignal(1.0), 0.0, math.inf, 0.1),
        ValueError, r"the span \[0.0, inf\] must be finite"),
    "alignment-step": (
        lambda: check_alignment(ConstantSignal(1.0), 0.0, 0.04, 0.1),
        ValueError, "dt=0.1 exceeds the span 0.04"),
}


@pytest.mark.parametrize("name", CASES)
def test_input_check_raises_its_typed_error(name):
    call, exc, message = CASES[name]
    with pytest.raises(exc, match=message):
        call()


@pytest.mark.parametrize("bad", [True, math.nan], ids=["bool", "nan"])
@pytest.mark.parametrize("call, name", [
    (lambda x: SWITCHING_J2.time_compress(x), "epsilon"),
    (lambda x: SinusoidSignal(0.0, 1.0, 0.0).time_compress(x), "epsilon"),
    (lambda x: threshold_graph(np.zeros((2, 2)), x), "eta"),
    (lambda x: er_random_network(4, x, seed=0), "linking probability p"),
    (lambda x: fast_switching_sweep(SwitchingSignal([1.0, 1.0], [[0.0, 0.0]] * 2),
                                    SWITCHING_J2, [10.0], 1.0, tail_fraction=x), "tail_fraction"),
], ids=["table-compress", "sinusoid-compress", "threshold-eta", "random-network-p",
        "sweep-tail-fraction"])
def test_a_bounded_scalar_is_read_as_a_number(call, name, bad):
    # each used to read True as 1; threshold_graph kept no edge at NaN, and time_compress
    # blamed times or time_scale for it
    with pytest.raises(ValueError, match=rf"^{name} must .*, got {bad}$"):
        call(bad)


def _certify(criterion, coupling=None, **parameters):
    """The text of a certify config on a two-node coupling."""
    return json.dumps({"criterion": criterion, "parameters": parameters, "signals": {
        "omega": {"kind": "constant", "value": 0.0},
        "coupling": coupling or {"kind": "constant", "value": [[0.0, 1.0], [1.0, 0.0]]}}})


@pytest.mark.parametrize("text, field", [
    ("[1, 2]", "<root>': config must be a JSON object"),
    ('{"criterion": "invariance-robust", "parameters": {"r": 1.0}, "signals": {"coupling": '
     '{"kind": "constant", "value": [[0.0, 1.0], [1.0, 0.0]]}}}', "signals.omega': missing"),
    # each of these used to get a thm1 verdict, with true read as 1.0
    (_certify("thm1-spanning-tree", {"kind": "switching", "period": True, "pieces": [
        {"duration": True, "value": [[0.0, True], [True, 0.0]]}]},
        partition=[0.0, 1.0, 2.0], eta=0.5),
     "signals.coupling': durations must hold numbers, not bool, got True"),
    (_certify("thm1-spanning-tree", partition=[0.0, True, 2.0], eta=[True, 0.5]),
     "parameters': partition must hold numbers, not bool, got True"),
    # an IndexError traceback, a message naming no parameter, and "bad integration window"
    (_certify("thm1-spanning-tree", partition=[[0.0, 1.0]], eta=0.5),
     "parameters': partition must have ndim 1, got shape (1, 2)"),
    (_certify("thm1-spanning-tree", partition=[0.0, 1.0], eta=[[0.5]]),
     "parameters': eta must have ndim (0, 1), got shape (1, 1)"),
    (_certify("thm1-spanning-tree", partition=[-1.0, 1.0], eta=0.5),
     "parameters': partition must be finite and at least 0, got -1.0"),
    (_certify("cor1-sliding-window", T=1.0, eta=0.5, starts=[-1.0]),
     "parameters': starts must be finite and at least 0, got -1.0"),
    (_certify("thm2-xi-window", r=1.0, T=1.0, eta=0.5, starts=[-1.0]),
     "parameters': starts must be finite and at least 0, got -1.0"),
], ids=["root-object", "signals-omega", "switching-bools", "thm1-bools", "thm1-partition-nested",
        "thm1-eta-nested", "thm1-partition-negative", "cor1-starts-negative",
        "thm2-starts-negative"])
def test_config_check_exits_2_naming_the_field(tmp_path, capsys, text, field):
    (tmp_path / "config.json").write_text(text)
    assert main(["certify", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"config error: config field '{field}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
