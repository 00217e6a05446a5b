import math

import numpy as np
import pytest

from tvkuramoto.signals import (
    ConstantSignal,
    SinusoidSignal,
    SwitchingSignal,
    TableSignal,
    check_alignment,
    sample_grid,
    signal_from_json,
    signal_to_json,
)


def test_constant_evaluate():
    assert ConstantSignal(1.5).evaluate(7.0) == 1.5


def test_switching_right_continuous_at_breakpoint():
    w1, w2 = [1.0, 2.0], [3.0, 4.0]
    sig = SwitchingSignal([2.0, 2.0], [w1, w2])
    assert np.array_equal(sig.evaluate(2.0), np.array(w2))
    assert np.array_equal(sig.evaluate(1.999), np.array(w1))
    assert np.array_equal(sig.evaluate(4.0), np.array(w1))  # wraps


def test_sinusoid_evaluate():
    sig = SinusoidSignal(1.0, 0.1, 0.2, trig="cos")
    assert sig.evaluate(0.0) == pytest.approx(1 + 0.1 * math.cos(0.2), abs=1e-15)


def test_integrate_constant():
    assert ConstantSignal(2.0).integrate_window(0.0, 3.0) == pytest.approx(6.0)


def test_integrate_piecewise_sum():
    sig = SwitchingSignal([1.0, 1.0], [5.0, -1.0])
    assert sig.integrate_window(0.0, 2.0) == pytest.approx(4.0)


def test_integrate_zero_mean_over_full_period():
    sig = SinusoidSignal(0.0, 0.1, 0.0, trig="cos")
    assert abs(sig.integrate_window(0.0, 2 * math.pi)) < 1e-9


def test_integrate_rejects_reversed_window():
    with pytest.raises(ValueError):
        ConstantSignal(1.0).integrate_window(2.0, 1.0)


def test_window_average_equal_pieces():
    m1 = np.array([[0.0, 1.0], [2.0, 0.0]])
    m2 = np.array([[0.0, 3.0], [4.0, 0.0]])
    sig = SwitchingSignal([2.0, 2.0], [m1, m2])
    avg = sig.window_average(0.0, 4.0)
    assert np.allclose(avg.value, (m1 + m2) / 2)


def test_window_average_constant():
    m = np.array([[0.0, 2.5], [1.5, 0.0]])
    avg = ConstantSignal(m).window_average(0.3, 7.7)
    assert np.allclose(avg.value, m)


def test_window_average_rejects_zero_length():
    with pytest.raises(ValueError):
        ConstantSignal(1.0).window_average(1.0, 1.0)


def test_time_compress_scales_period():
    sig = SwitchingSignal([2.0, 2.0], [1.0, 2.0])
    fast = sig.time_compress(0.1)
    assert fast.period == pytest.approx(0.4)
    for t in (0.0, 0.05, 0.25, 0.39, 1.0):
        assert fast.evaluate(t) == sig.evaluate(t / 0.1)


def test_time_compress_identity():
    sig = SwitchingSignal([2.0, 2.0], [1.0, 2.0])
    same = sig.time_compress(1.0)
    for t in np.linspace(0, 8, 33):
        assert same.evaluate(t) == sig.evaluate(t)


def test_time_compress_rejects_nonpositive():
    with pytest.raises(ValueError):
        SwitchingSignal([1.0], [1.0]).time_compress(0.0)


def test_time_compress_preserves_window_averages():
    rng = np.random.default_rng(3)
    sig = SwitchingSignal([0.5, 1.5, 1.0], list(rng.normal(size=3)))
    eps = 0.2
    fast = sig.time_compress(eps)
    a = sig.window_average(0.0, sig.period).value
    b = fast.window_average(0.0, fast.period).value
    assert abs(a - b) < 1e-9
    # corresponding sub-windows too
    a = sig.window_average(1.0, 2.5).value
    b = fast.window_average(1.0 * eps, 2.5 * eps).value
    assert abs(a - b) < 1e-9


@pytest.mark.parametrize("make", [
    lambda: SwitchingSignal([0.7, 1.3, 2.0], [1.0, -2.0, 0.5]),
    lambda: SinusoidSignal(1.0, 0.3, 0.7, trig="sin"),
    lambda: TableSignal([0.0, 0.4, 1.1], [2.0, -1.0, 4.0], period=2.0),
])
def test_periodicity(make):
    sig = make()
    rng = np.random.default_rng(11)
    for t in rng.uniform(0, 10 * sig.period, 200):
        assert abs(sig.evaluate(t + sig.period) - sig.evaluate(t)) < 1e-12


def test_integral_additivity():
    rng = np.random.default_rng(7)
    sigs = [
        SwitchingSignal([0.7, 1.3, 2.0], [1.0, -2.0, 0.5]),
        SinusoidSignal(0.3, 1.1, 0.4, trig="cos"),
        TableSignal([0.0, 0.4, 1.1], [2.0, -1.0, 4.0]),
    ]
    for sig in sigs:
        for _ in range(50):
            s, u, t = np.sort(rng.uniform(0, 12, 3))
            lhs = sig.integrate_window(s, u) + sig.integrate_window(u, t)
            assert abs(lhs - sig.integrate_window(s, t)) < 1e-9


def test_zero_base_sinusoid_integrates_to_zero_any_full_period():
    sig = SinusoidSignal(0.0, 2.0, 1.3, trig="sin")
    for start in (0.0, 1.7, 9.2):
        assert abs(sig.integrate_window(start, start + sig.period)) < 1e-9


def test_table_step_semantics_and_hold():
    sig = TableSignal([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    assert sig.evaluate(0.5) == 1.0
    assert sig.evaluate(1.0) == 2.0
    assert sig.evaluate(100.0) == 3.0  # holds last value
    assert sig.integrate_window(0.0, 4.0) == pytest.approx(1 + 2 + 3 + 3)


def test_breakpoints_in_periodic():
    sig = SwitchingSignal([1.0, 1.0], [0.0, 1.0])
    bps = sig.breakpoints_in(0.0, 4.0)
    assert np.allclose(bps, [0, 1, 2, 3, 4])


def test_json_round_trip():
    sigs = [
        ConstantSignal([[0.0, 1.0], [1.0, 0.0]]),
        SwitchingSignal([2.0, 2.0], [[1.0, 2.0], [3.0, 4.0]]),
        SinusoidSignal(1.0, 0.1, [0.1, 0.2], trig="sin"),
        TableSignal([0.0, 1.0], [5.0, 6.0], period=3.0),
    ]
    for sig in sigs:
        clone = signal_from_json(signal_to_json(sig))
        for t in np.linspace(0, 5, 17):
            assert np.allclose(clone.evaluate(t), sig.evaluate(t))


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        signal_from_json({"kind": "spline"})


def test_switching_rejects_inconsistent_period():
    with pytest.raises(ValueError):
        SwitchingSignal([1.0, 1.0], [0.0, 1.0], period=3.0)


def test_check_alignment_catches_misaligned_breakpoint():
    sig = SwitchingSignal([0.25, 0.75], [1.0, 2.0])
    check_alignment(sig, 0.0, 1.0, 0.05)
    with pytest.raises(ValueError):
        check_alignment(sig, 0.0, 1.0, 0.1)  # 0.25 not a multiple of 0.1


def test_sample_grid_includes_breakpoints():
    sig = SwitchingSignal([0.3, 0.7], [1.0, 2.0])
    grid = sample_grid(sig, num=50)
    assert 0.3 in grid
    assert grid.min() >= 0.0 and grid.max() < sig.period


@pytest.mark.parametrize("make", [
    lambda bad: ConstantSignal([[0.0, bad], [1.0, 0.0]]),
    lambda bad: SwitchingSignal([1.0, 1.0], [[1.0, 2.0], [bad, 2.0]]),
    lambda bad: SinusoidSignal([1.0, bad], 0.1, 0.0),
    lambda bad: SinusoidSignal(1.0, bad, 0.0),
    lambda bad: SinusoidSignal(1.0, 0.1, [0.0, bad]),
    lambda bad: TableSignal([0.0, 1.0], [bad, 1.0], period=2.0),
], ids=["constant", "switching", "sinusoid-base", "sinusoid-amplitude", "sinusoid-phase",
        "table"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(make, bad):
    with pytest.raises(ValueError, match="finite"):
        make(bad)
