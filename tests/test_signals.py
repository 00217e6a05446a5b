import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from grid_oracle import even_grid
import sinusoid_oracle
from table_oracle import SNAP, piece_at
from tvkuramoto.cli import bundled_config_path
from tvkuramoto.dynamics import simulate
from tvkuramoto.signals import (
    ConstantSignal,
    SinusoidSignal,
    SwitchingSignal,
    TableSignal,
    _numbers,
    check_alignment,
    common_period,
    probe,
    sample_grid,
    signal_from_json,
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
    assert np.allclose(avg, (m1 + m2) / 2)


def test_window_average_constant():
    m = np.array([[0.0, 2.5], [1.5, 0.0]])
    avg = ConstantSignal(m).window_average(0.3, 7.7)
    assert np.allclose(avg, m)


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
    a = sig.window_average(0.0, sig.period)
    b = fast.window_average(0.0, fast.period)
    assert abs(a - b) < 1e-9
    # corresponding sub-windows too
    a = sig.window_average(1.0, 2.5)
    b = fast.window_average(1.0 * eps, 2.5 * eps)
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


@pytest.mark.parametrize("times, period", [
    ([0.0, 0.01 + 5e-10], 0.035), ([0.0, 0.01 + 9e-10], 0.035), ([0.0, 0.01 - 9e-10], 0.035),
    ([0.0, 0.01], 0.035 + 5e-10),  # the period end, and so the wrap, 5e-10 past the grid
], ids=["switch-5e-10-late", "switch-9e-10-late", "switch-9e-10-early", "period-5e-10-late"])
def test_a_switch_check_alignment_accepts_applies_at_the_grid_time_that_hits_it(times, period):
    # check_alignment takes a switch within 1e-9 of the step grid as on it; a run
    # must then switch at that grid time, as it does on the exactly aligned table
    near = TableSignal(times, [0.0, 1.0], period)
    exact = TableSignal([0.0, 0.01], [0.0, 1.0], 0.035)
    dt, t_end = 5e-3, 0.07
    assert check_alignment(near, 0.0, t_end, dt) == 14
    grid = np.arange(14) * dt
    assert near.piece_index(grid).tolist() == exact.piece_index(grid).tolist() \
        == [0, 0, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1]
    run = lambda omega: simulate(np.zeros(2), omega, ConstantSignal(np.zeros((2, 2))), t_end, dt)
    assert np.array_equal(run(near).phases, run(exact).phases)


def test_common_period():
    two, three = SwitchingSignal([1.0, 1.0], [0.0, 1.0]), SwitchingSignal([2.0, 1.0], [0.0, 1.0])
    assert common_period([two, three]) == 6.0
    assert common_period([two, ConstantSignal(1.0), TableSignal([0.0, 5.0], [0.0, 1.0])]) == 2.0
    assert common_period([ConstantSignal(1.0)]) is None
    with pytest.raises(ValueError, match="no common multiple"):
        common_period([two, SinusoidSignal(0.0, 1.0, 0.0)])


def test_sample_grid_includes_breakpoints():
    sig = SwitchingSignal([0.3, 0.7], [1.0, 2.0])
    grid = sample_grid(sig, num=50)
    assert 0.3 in grid
    assert grid.min() >= 0.0 and grid.max() < sig.period


def test_sample_grid_keeps_its_density_past_a_late_switch():
    # s = 1000 s is some 159 sinusoid periods: [0, s) and [s, s + 2 pi) get num points each
    grid = sample_grid([SinusoidSignal(0.0, 1.0, 0.0), TableSignal([0.0, 1000.0], [0.0, 1.0])],
                       num=100)
    tail = grid[grid >= 1000.0]
    assert grid.size == 200 and tail.size == 100
    assert tail[0] == 1000.0 and tail[-1] < 1000.0 + 2 * math.pi
    assert np.allclose(np.diff(tail), 2 * math.pi / 100)


def _random_grid_signals(rng, smooth):
    """One to three tables, periodic (period 0.5, 1 or 2 s) or aperiodic, and with smooth
    a sinusoid of one of those periods among them."""
    sigs = []
    for _ in range(int(rng.integers(1, 4))):
        count = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            period = float(rng.choice([0.5, 1.0, 2.0]))
            times = np.append(0.0, np.sort(rng.uniform(0.0, period, count - 1)))
        else:
            period, times = None, np.append(0.0, np.sort(rng.uniform(0.0, 7.0, count - 1)))
        sigs.append(TableSignal(times, list(rng.normal(size=count)), period))
    if smooth:
        period = float(rng.choice([0.5, 1.0, 2.0]))
        sigs.insert(int(rng.integers(len(sigs) + 1)),
                    SinusoidSignal(0.0, 1.0, 0.0, time_scale=period / (2 * math.pi)))
    return sigs


def test_a_grid_of_tables_is_their_switches_and_the_last_aperiodic_switch():
    rng = np.random.default_rng(27)
    for case in range(200):
        sigs = _random_grid_signals(rng, smooth=False)
        settle = max([s.times[-1] for s in sigs if s.period is None], default=0.0)
        span = settle + max([s.period for s in sigs if s.period is not None], default=0.0)
        want = {settle}
        for s in sigs:  # every switch, in each period of a periodic table up to s + P
            cycles = range(int(span / s.period) + 1) if s.period is not None else [0]
            want |= {k * (s.period or 0.0) + t for k in cycles for t in s.times.tolist()}
        want = sorted(w for w in want if w < span or w == settle)
        assert sample_grid(sigs, int(rng.integers(2, 50))).tolist() == want, case


@pytest.mark.parametrize("sig", [
    ConstantSignal(1.0),
    TableSignal([0.0, 0.4, 2.5], [1.0, 2.0, 3.0]),
    TableSignal([0.0, 0.4, 2.5], [1.0, 2.0, 3.0], period=3.0),
    SwitchingSignal([0.3, 0.7, 0.1], [np.eye(2), -np.eye(2), np.zeros((2, 2))]),
], ids=["constant", "aperiodic", "periodic", "switching"])
def test_the_grid_of_one_table_is_its_times(sig):
    for num in (2, 128, 1000):
        grid = sample_grid(sig, num)
        assert grid.dtype == sig.times.dtype and grid.tobytes() == sig.times.tobytes()


def test_a_grid_with_a_smooth_signal_keeps_every_even_point():
    rng = np.random.default_rng(28)
    for case in range(200):
        sigs = _random_grid_signals(rng, smooth=True)
        if rng.random() < 0.2:
            sigs = [s for s in sigs if not s.is_piecewise_constant]
        num = int(rng.integers(0, 300))
        got, want = sample_grid(sigs, num), even_grid(sigs, num)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), case


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


@pytest.mark.parametrize("make", [
    lambda bad: SwitchingSignal([1.0, bad], [1.0, 2.0]),
    lambda bad: SwitchingSignal([1.0, 1.0], [1.0, 2.0], period=bad),
    lambda bad: TableSignal([0.0, bad], [1.0, 2.0]),
    lambda bad: TableSignal([0.0, 1.0], [1.0, 2.0], period=bad),
    lambda bad: SinusoidSignal(1.0, 0.1, 0.0, time_scale=bad),
], ids=["switching-duration", "switching-period", "table-times", "table-period",
        "sinusoid-time-scale"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_timing_rejected(make, bad):
    with pytest.raises(ValueError, match="finite"):
        make(bad)


def _breakpoints_in_loop(sig, s, t):
    """The per-period loop breakpoints_in used before it was vectorised."""
    base = sig.breakpoints()
    if base.size == 0:
        return np.array([])
    if sig.period is None:
        return base[(base >= s) & (base <= t)]
    out = []
    k = math.floor(s / sig.period)
    while k * sig.period <= t:
        for b in base:
            x = k * sig.period + b
            if s <= x <= t:
                out.append(x)
        k += 1
    return np.array(out)


def _check_alignment_loop(sig, s, t, dt):
    for bp in np.atleast_1d(_breakpoints_in_loop(sig, s, t)):
        k = round((bp - s) / dt)
        if abs(s + k * dt - bp) > 1e-9:
            return False
    return True


def test_breakpoints_in_and_check_alignment_match_the_period_loop():
    rng = np.random.default_rng(12)
    outcomes = set()
    for _ in range(200):
        unit = rng.uniform(0.01, 0.5)
        durations = unit * rng.integers(1, 5, int(rng.integers(1, 5)))
        values = list(range(durations.size))
        switching = SwitchingSignal(durations, values)
        table = TableSignal(np.concatenate([[0.0], np.cumsum(durations[:-1])]), values,
                            period=durations.sum() + unit * int(rng.integers(1, 3)))
        for sig in (switching, table):
            ends = _breakpoints_in_loop(sig, 0.0, 8.0 * sig.period)
            if rng.random() < 0.3:
                s, t = sorted([rng.uniform(0.0, 10.0 * unit), rng.choice(ends)])
            else:
                s, t = sorted(rng.choice(ends, 2))  # both ends on breakpoints
            for lo, hi in ((s, t), (s, s), (t, t), (0.0, t)):
                assert np.array_equal(sig.breakpoints_in(lo, hi), _breakpoints_in_loop(sig, lo, hi))
            dt = unit / int(rng.integers(1, 4)) * (1.0 if rng.random() < 0.7 else 1.1)
            hi = s + round((t - s) / dt) * dt
            aligned = _check_alignment_loop(sig, s, hi, dt)
            assert _aligned(sig, s, hi, dt) == aligned
            outcomes.add(aligned)
    assert outcomes == {True, False}


def _aligned(sig, s, t, dt):
    try:
        check_alignment(sig, s, t, dt)
    except ValueError:
        return False
    return True


class PieceOracle:
    """A periodic switching schedule read piece by piece, in plain Python.

    Switch times are running sums of the durations and the period is their
    sum. A query is right-continuous, and one that falls less than 1e-9
    periods below a switch reads the piece after it. Positions and overlaps
    are exact fractions of the float inputs.
    """

    def __init__(self, durations, values):
        self.durations = [float(d) for d in durations]
        self.values = values
        self.starts = [0.0]
        for d in self.durations[:-1]:
            self.starts.append(self.starts[-1] + d)
        self.period = sum(self.durations)

    def evaluate(self, t):
        period = Fraction(self.period)
        tau = (Fraction(t) + Fraction(1e-9) * period) % period
        k = 0
        while k + 1 < len(self.starts) and Fraction(self.starts[k + 1]) <= tau:
            k += 1
        return self.values[k]

    def breakpoints_in(self, s, t):
        out = []
        cycle = math.floor(s / self.period) - 1
        while cycle * self.period <= t:
            out.extend(x for x in (cycle * self.period + b for b in self.starts) if s <= x <= t)
            cycle += 1
        return out

    def integrate_window(self, s, t):
        period = Fraction(self.period)
        bounds = [Fraction(b) for b in self.starts] + [period]
        lo_end, hi_end = Fraction(s), Fraction(t)
        overlaps = [Fraction(0)] * len(self.values)
        for cycle in range(math.floor(s / self.period) - 1, math.floor(t / self.period) + 2):
            for k in range(len(self.values)):
                lo = max(cycle * period + bounds[k], lo_end)
                hi = min(cycle * period + bounds[k + 1], hi_end)
                if hi > lo:
                    overlaps[k] += hi - lo
        return sum(v * float(x) for v, x in zip(self.values, overlaps))


@pytest.mark.parametrize("shape", [(), (3, 3)], ids=["scalar", "matrix"])
def test_switching_schedule_matches_a_piece_by_piece_oracle(shape):
    rng = np.random.default_rng(29 + len(shape))
    for _ in range(6):
        durations = rng.uniform(0.05, 1.3, int(rng.integers(1, 7)))  # not dyadic
        draws = rng.normal(size=(durations.size,) + shape)
        values = [float(v) if shape == () else v for v in draws]
        sig, oracle = SwitchingSignal(durations, values), PieceOracle(durations, values)
        assert sig.period == oracle.period
        scale = max(float(np.abs(v).max()) for v in values)
        queries = list(rng.uniform(0.0, 200.0 * oracle.period, 40))
        for cycle in (0, 1, 57, 199):  # every switch and a few ulps either side of it
            for b, way in itertools.product(oracle.starts, (math.inf, -math.inf)):
                x = cycle * oracle.period + b
                for _ in range(4):
                    queries.append(x)
                    x = np.nextafter(x, way)
        for t in queries:
            if t >= 0:
                assert np.array_equal(sig.evaluate(float(t)), oracle.evaluate(float(t)))
        ends = [float(x) for x in oracle.breakpoints_in(0.0, 200.0 * oracle.period)]
        for _ in range(30):
            s = float(rng.choice(ends)) if rng.random() < 0.3 else rng.uniform(0.0, 10.0)
            t = s + oracle.period * (float(rng.integers(0, 201)) if rng.random() < 0.3
                                     else rng.uniform(0.0, 200.0))
            assert sig.breakpoints_in(s, t).tolist() == oracle.breakpoints_in(s, t)
            err = np.abs(sig.integrate_window(s, t) - oracle.integrate_window(s, t)).max()
            assert err <= 1e-12 * scale * max(1.0, t)


def _table_integral_loop(sig, s, t):
    """Window integral of a TableSignal, one piece at a time (the loop the lookup replaced)."""
    times, values = sig.times, sig.values

    def partial(x, end):
        acc = 0.0 if isinstance(values[0], float) else np.zeros_like(values[0])
        bounds = np.concatenate([times, [end]])
        for k in range(len(values)):
            if x <= bounds[k]:
                break
            acc = acc + values[k] * (min(x, bounds[k + 1]) - bounds[k])
        return acc

    def antider(x):
        if sig.period is None:
            core = partial(min(x, times[-1]), times[-1])
            return core + values[-1] * (x - times[-1]) if x > times[-1] else core
        n = math.floor(x / sig.period)
        rem = x - n * sig.period
        if rem >= sig.period:
            n, rem = n + 1, 0.0
        return partial(sig.period, sig.period) * n + partial(rem, sig.period)

    return antider(t) - antider(s)


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "aperiodic"])
@pytest.mark.parametrize("shape", [(), (2, 3)], ids=["scalar", "matrix"])
def test_table_integral_lookup_equals_the_piece_loop_bit_for_bit(periodic, shape):
    rng = np.random.default_rng(41 + 2 * len(shape) + periodic)
    for _ in range(20):
        gaps = rng.uniform(0.05, 1.3, int(rng.integers(0, 6)))
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        values = [float(v) if shape == () else v for v in rng.normal(size=(times.size,) + shape)]
        period = times[-1] + rng.uniform(0.05, 1.3) if periodic else None
        sig = TableSignal(times, values, period)
        span = 50.0 * (period or times[-1] + 1.0)
        ends = list(sig.breakpoints_in(0.0, span)) + list(rng.uniform(0.0, span, 20))
        for _ in range(30):
            s, t = sorted(float(x) for x in rng.choice(ends, 2))
            assert np.array_equal(sig.integrate_window(s, t), _table_integral_loop(sig, s, t))


# a period and a time at which the fold's remainder x - floor(x / P) * P rounds
# up to P itself, so the antiderivative takes its n + 1, rem = 0 branch
WRAP_PERIOD, WRAP_TIME = 2.1470955966345375, 68281.93416417156
# and one at which it rounds below 0, where the integral up to it is 0
BELOW_PERIOD, BELOW_TIME = 0.1, 1.7


def _signals_of_every_kind():
    rng = np.random.default_rng(83)

    def value(shape):
        return float(rng.normal()) if shape == () else rng.normal(size=shape)

    for shape in [(), (3, 3)]:
        yield ConstantSignal(value(shape))
        yield SinusoidSignal(value(shape), value(shape), value(shape), trig="sin")
        yield SinusoidSignal(value(shape), value(shape), value(shape), trig="cos",
                             time_scale=0.7)
        yield SwitchingSignal([0.3, 0.1, 0.7], [value(shape) for _ in range(3)])
        yield TableSignal([0.0, 0.4, 1.5], [value(shape) for _ in range(3)], period=1.9)
        yield TableSignal([0.0, 0.4, 1.5], [value(shape) for _ in range(3)])
        yield TableSignal([0.0, 1.0], [value(shape) for _ in range(2)], period=WRAP_PERIOD)
        yield TableSignal([0.0, 0.04], [value(shape) for _ in range(2)], period=BELOW_PERIOD)


def _sinusoid_integral(sig, s, t):
    """Window integral of a SinusoidSignal from scalar antiderivatives at s and t."""
    a = sig.time_scale
    if sig.trig == "cos":
        prim = lambda x: a * np.sin(x / a + sig.phase)
    else:
        prim = lambda x: -a * np.cos(x / a + sig.phase)
    return sig.base * (t - s) + sig.amplitude * (prim(t) - prim(s))


def test_array_window_integral_equals_the_scalar_calls_bit_for_bit():
    assert WRAP_TIME - math.floor(WRAP_TIME / WRAP_PERIOD) * WRAP_PERIOD >= WRAP_PERIOD
    assert BELOW_TIME - math.floor(BELOW_TIME / BELOW_PERIOD) * BELOW_PERIOD < 0.0
    rng = np.random.default_rng(84)
    for sig in _signals_of_every_kind():
        span = sig.period or 3.0  # past the last switch of the aperiodic table
        whole = span * np.arange(1, 6)
        s = np.concatenate([[0.0, 0.0, 0.0, WRAP_TIME, BELOW_TIME],
                            rng.uniform(0.0, 20.0 * span, 30),
                            whole - rng.uniform(0.0, span, 5), np.nextafter(whole, 0.0)])
        t = np.concatenate([[0.0, span, 7.0 * span, WRAP_TIME + 1.0, BELOW_TIME + 0.05],
                            s[5:35] + rng.uniform(0.0, 5.0 * span, 30), whole,
                            np.nextafter(whole, 0.0) + span])
        batch = sig.integrate_window(s, t)
        assert batch.shape == s.shape + sig.shape
        for i in range(s.size):
            scalar = sig.integrate_window(float(s[i]), float(t[i]))
            assert isinstance(scalar, float) == (sig.shape == ())
            assert np.asarray(scalar).tobytes() == batch[i].tobytes()
            if isinstance(sig, TableSignal):
                reference = _table_integral_loop(sig, float(s[i]), float(t[i]))
            elif isinstance(sig, SinusoidSignal):
                reference = _sinusoid_integral(sig, float(s[i]), float(t[i]))
            else:
                reference = sig.value * (float(t[i]) - float(s[i]))
            assert np.asarray(scalar).tobytes() == np.asarray(reference).tobytes()


def test_probe_reads_a_constant_at_time_zero():
    sig = ConstantSignal([[0.0, 1.0], [2.0, 0.0]])
    got = list(probe(sig))
    assert len(got) == 1 and got[0][0] == 0.0 and got[0][1] is sig.values[0]


def test_probe_reads_every_stored_piece_at_its_start():
    # the first piece is stored three times, twice as one object: each piece is read
    a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    sig = SwitchingSignal([1.0] * 4, [a, b, a, a.copy()])
    got = list(probe(sig))
    assert [t for t, _ in got] == [0.0, 1.0, 2.0, 3.0]
    assert all(v is w for (_, v), w in zip(got, sig.values))


@pytest.mark.parametrize("period", [5.0, None], ids=["periodic", "aperiodic"])
def test_probe_of_a_table(period):
    sig = TableSignal([0.0, 1.0, 2.5], [1.0, -1.0, 4.0], period)
    got = list(probe(sig, num=3))  # num samples only a smooth signal
    assert got == [(0.0, 1.0), (1.0, -1.0), (2.5, 4.0)]
    assert all(type(t) is float and v is sig.values[k] for k, (t, v) in enumerate(got))


def test_probe_reads_a_smooth_signal_on_its_sample_grid():
    sig = SinusoidSignal(1.0, 0.5, 0.3)
    for got, grid in ((probe(sig, 7), sample_grid(sig, 7)), (probe(sig), sample_grid(sig))):
        got = list(got)
        assert [t for t, _ in got] == grid.tolist()
        assert all(type(t) is float for t, _ in got)
        assert [v for _, v in got] == [sig.evaluate(t) for t in grid.tolist()]


@st.composite
def tables_and_times(draw):
    """A periodic or aperiodic table (a one-piece constant among them), its values drawn
    from a pool so that one stored object can hold several pieces, and times on every
    switch, one snap width below it, on k * period, past the last switch and a few ulps
    either side of each."""
    gaps = draw(st.lists(st.floats(1e-3, 10.0), max_size=5))
    starts = np.concatenate([[0.0], np.cumsum(gaps)])
    pool = [np.array([float(v), -1.0]) for v in range(3)]
    values = [pool[draw(st.integers(0, 2))] if draw(st.booleans()) else float(draw(st.integers(0, 9)))
              for _ in starts]
    if any(np.ndim(v) for v in values):  # one shape for every value
        values = [v if np.ndim(v) else np.array([v, 0.0]) for v in values]
    period = starts[-1] + draw(st.floats(1e-3, 10.0)) if draw(st.booleans()) else None
    sig = TableSignal(starts, values, period)
    marks = [starts, starts - SNAP,
             starts[-1] + np.array(draw(st.lists(st.floats(0.0, 1e3), max_size=4)))]
    if period is not None:
        k = np.arange(draw(st.integers(1, 40)))
        marks += [k * period, (k[:, None] * period + starts).ravel()]
    marks = np.concatenate(marks)
    ulps = np.arange(-3, 4)
    times = (marks[:, None] + ulps * np.spacing(marks)[:, None]).ravel()
    times = np.concatenate([times[times >= 0], draw(st.lists(st.floats(0.0, 1e4), max_size=8))])
    return sig, draw(st.permutations(times.tolist()))


@settings(max_examples=200)
@given(tables_and_times())
def test_piece_index_reads_the_piece_evaluate_returns(case):
    # both readers against the scalar lookup of table_oracle
    sig, times = case
    k = sig.piece_index(np.array(times))
    assert k.shape == (len(times),)
    for t, j in zip(times, k.tolist()):
        assert j == piece_at(sig.times, sig.period, t), t
        assert sig.evaluate(t) is sig.values[j], t


@pytest.mark.parametrize("bad", [-1e-300, -2.0, math.nan, math.inf])
@pytest.mark.parametrize("period", [3.0, None], ids=["periodic", "aperiodic"])
def test_piece_index_rejects_a_time_outside_the_domain(bad, period):
    # an infinite time folds to NaN on a periodic table, which would read the last piece
    sig = TableSignal([0.0, 1.0], [1.0, 2.0], period)
    with pytest.raises(ValueError, match="signal domain is finite t >= 0"):
        sig.piece_index(np.array([0.5, bad]))
    with pytest.raises(ValueError, match="signal domain is finite t >= 0"):
        sig.evaluate(bad)


@st.composite
def sinusoids_and_times(draw):
    """A sinusoid whose value has one of the shapes the integrator reads, each of
    base, amplitude and phase a scalar or of that shape, and an array of times."""
    m, runs = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    shape = draw(st.sampled_from([(), (m,), (m, m), (runs, m), (runs, m, m)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base, amplitude, phase = (rng.uniform(-2.0, 2.0, shape) if draw(st.booleans()) else
                              float(rng.uniform(-2.0, 2.0)) for _ in range(3))
    sig = SinusoidSignal(base, amplitude, phase, trig=draw(st.sampled_from(["sin", "cos"])),
                         time_scale=draw(st.sampled_from([0.2, 1.0, 1.0 / 3.0, 7.5])))
    times_shape = draw(st.sampled_from([(1,), (9,), (64,), (4, 3)]))
    times = rng.uniform(0.0, 10.0 ** draw(st.integers(0, 4)), times_shape)
    times.flat[0] = 0.0
    return sig, times


@settings(max_examples=60)
@given(sinusoids_and_times())
def test_sinusoid_array_evaluate_equals_the_scalar_calls_bit_for_bit(case):
    sig, times = case
    batch = sig.evaluate(times)
    stacked = np.array([sig.evaluate(float(t)) for t in times.ravel()])
    assert batch.shape == times.shape + sig.shape
    assert np.array_equal(batch, stacked.reshape(batch.shape))
    assert batch.tobytes() == stacked.tobytes()


@st.composite
def split_sinusoids_and_times(draw):
    """A sinusoid of a shape the integrator reads whose amplitude is zeroed in no entry,
    some entries, whole rows or every entry (as +0.0 or -0.0), whose base holds +0.0,
    -0.0 and nonzero entries, and a scalar time or an array of times."""
    m, runs = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    shape = draw(st.sampled_from([(), (m,), (m, m), (runs, m), (runs, m, m)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeroed = draw(st.sampled_from(["none", "some", "rows", "all"]))
    off = {"none": np.zeros(shape, bool), "some": rng.random(shape) < 0.6,
           "rows": np.broadcast_to(rng.random(shape[:-1] + (1,) * bool(shape)) < 0.5, shape),
           "all": np.ones(shape, bool)}[zeroed]
    zero = rng.choice([0.0, -0.0], shape)
    amplitude = np.where(off, zero, rng.uniform(-2.0, 2.0, shape))
    kind = rng.integers(0, 3, shape)  # +0.0, -0.0 or nonzero
    base = np.where(kind == 0, 0.0, np.where(kind == 1, -0.0, rng.uniform(-2.0, 2.0, shape)))
    if shape and draw(st.booleans()):
        base = float(base.flat[0])  # one base for every entry
    phase = np.where(rng.random(shape) < 0.2, 0.0, rng.uniform(-math.pi, math.pi, shape))
    sig = SinusoidSignal(base, amplitude, phase, trig=draw(st.sampled_from(["sin", "cos"])),
                         time_scale=draw(st.sampled_from([0.2, 1.0, 1.0 / 3.0, 7.5])))
    scale = 10.0 ** draw(st.integers(0, 4))
    times_shape = draw(st.sampled_from([(), (1,), (9,), (64,), (4, 3)]))
    return sig, rng.uniform(0.0, scale, times_shape) if times_shape else draw(st.floats(0.0, scale))


@settings(max_examples=120)
@given(split_sinusoids_and_times())
def test_sinusoid_evaluate_equals_the_dense_oracle_signed_zeros_included(case):
    sig, times = case
    got, want = sig.evaluate(times), sinusoid_oracle.evaluate(sig, times)
    assert isinstance(got, float) == isinstance(want, float)
    assert np.shape(got) == np.shape(want) == np.shape(times) + sig.shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_a_negative_zero_base_takes_the_sign_its_zero_products_give():
    # entry 0 is -0.0 + (+0.0) cos(x) + (-0.0) sin(x): -0.0 where cos(x) < 0 < sin(x)
    sig = SinusoidSignal(np.array([-0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]), 0.0, trig="cos")
    times = np.linspace(0.0, 2 * math.pi, 64)
    values = sig.evaluate(times)
    assert values.tobytes() == sinusoid_oracle.evaluate(sig, times).tobytes()
    assert not (values[:, :2] != 0).any()
    negative = (np.cos(times) < 0) & (np.sin(times) > 0)
    assert np.array_equal(np.signbit(values[:, 0]), negative) and negative.any()
    assert not np.signbit(values[:, 1]).any()


def test_sinusoid_array_evaluate_rejects_a_negative_time():
    sig = SinusoidSignal(np.zeros(3), 1.0, 0.2)
    with pytest.raises(ValueError, match="t >= 0"):
        sig.evaluate(np.array([0.0, 1.0, -1e-12, 2.0]))


@pytest.mark.parametrize("obj, cls, period", [
    ({"kind": "constant", "value": [[0.0, 1.0], [2.0, 0.0]]}, TableSignal, None),
    ({"kind": "switching", "pieces": [{"duration": 0.5, "value": 1.0},
                                      {"duration": 1.5, "value": 2.0}]}, TableSignal, 2.0),
    ({"kind": "table", "times": [0.0, 1.0], "values": [1.0, 2.0]}, TableSignal, None),
    ({"kind": "sinusoid", "base": 1.0, "amplitude": 0.5, "phase": 0.0}, SinusoidSignal,
     2 * math.pi),
], ids=["constant", "switching", "table", "sinusoid"])
def test_every_json_kind_builds_a_table_or_a_sinusoid(obj, cls, period):
    sig = signal_from_json(obj)
    assert type(sig) is cls and sig.period == period
    assert sig.is_constant == (obj["kind"] == "constant")


def test_a_constant_table_integrates_to_value_times_length_within_two_ulps():
    # the table computes v*t - v*s: three roundings, each at most u = 2^-53 relative, sum
    # to at most 2u|v|t, less than 2 ulp(|v| t); checked against exact rational arithmetic
    rng = np.random.default_rng(23)
    for _ in range(300):
        v = float(rng.normal() * 10.0 ** rng.uniform(-3, 3))
        s, t = sorted(float(x) for x in rng.uniform(0, 10.0 ** rng.uniform(-2, 4), 2))
        got = ConstantSignal(v).integrate_window(s, t)
        exact = Fraction(v) * (Fraction(t) - Fraction(s))
        assert abs(Fraction(got) - exact) <= 2 * math.ulp(abs(v) * t), (v, s, t)
    m = rng.normal(size=(3, 3))
    lo, hi = np.sort(rng.uniform(0, 50, (2, 40)), axis=0)
    got = ConstantSignal(m).integrate_window(lo, hi)
    for k in range(lo.size):
        for x, (i, j) in zip(got[k].ravel(), itertools.product(range(3), repeat=2)):
            exact = Fraction(float(m[i, j])) * (Fraction(float(hi[k])) - Fraction(float(lo[k])))
            assert abs(Fraction(float(x)) - exact) <= 2 * math.ulp(abs(m[i, j]) * hi[k])


def test_a_compressed_schedule_keeps_its_switch_times_near_the_scaled_running_sum():
    # time_compress scales the table's times, fl(cumsum(d)) * eps, where the schedule was
    # once rebuilt from cumsum(d * eps): recursive summation over n pieces and the scaling
    # differ by at most 3n u P eps, below 3n ulp(P eps) for the compressed period P eps
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        durations = rng.uniform(0.01, 3.0, n)
        eps = float(10.0 ** rng.uniform(-3, 1))
        fast = SwitchingSignal(durations, list(range(n))).time_compress(eps)
        scaled = durations * eps
        bound = 3 * n * math.ulp(float(scaled.sum()))
        assert np.abs(fast.times[1:] - np.cumsum(scaled)[:-1]).max(initial=0.0) <= bound
        assert abs(fast.period - float(scaled.sum())) <= bound


def test_the_bundled_fast_schedule_compresses_bit_for_bit_as_from_scaled_durations():
    cfg = json.loads(bundled_config_path("fast").read_text())
    for key in ("omega", "coupling"):
        sig = signal_from_json(cfg["signals"][key])
        durations = np.array([p["duration"] for p in cfg["signals"][key]["pieces"]])
        for h in cfg["parameters"]["frequencies"]:
            eps = len(sig.breakpoints()) / (float(h) * sig.period)  # as fast_switching_sweep
            fast = sig.time_compress(eps)
            scaled = durations * eps
            assert fast.times.tolist() == [0.0] + np.cumsum(scaled)[:-1].tolist()
            assert fast.period == float(scaled.sum())


@pytest.mark.parametrize("value", [2.5, [1.0, -3.0], [[0.0, 1.5], [0.25, 0.0]]])
def test_a_compressed_constant_evaluates_and_integrates_like_the_constant(value):
    sig = ConstantSignal(value)
    lo, hi = np.array([0.0, 0.3, 2.0]), np.array([0.3, 4.1, 1e3])
    for eps in (1e-3, 0.37, 5.0):
        fast = sig.time_compress(eps)
        assert fast.period is None and fast.is_constant
        for t in (0.0, 1e-4, 0.5, 7.0, 1e6):
            assert np.array_equal(fast.evaluate(t), sig.evaluate(t))
        assert np.array_equal(fast.integrate_window(lo, hi), sig.integrate_window(lo, hi))
        assert np.array_equal(fast.integrate_window(0.3, 4.1), sig.integrate_window(0.3, 4.1))


# --- the reader of numbers from outside the program ---------------------------------------

_NUMBER_ENTRIES = st.one_of(
    st.integers(-2**53, 2**53), st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2**31, 2**31 - 1).map(np.int32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64))
_NO_NUMBERS = [True, False, np.True_, math.nan, math.inf, -math.inf, "1.0"]


@st.composite
def reader_inputs(draw):
    """(value, shape) of ndim 0 to 3: a number, lists and tuples of numbers nested to the
    shape, or an int or float array."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    if draw(st.booleans()):
        dtype = np.dtype(draw(st.sampled_from([np.int32, np.int64, np.float32, np.float64])))
        finite = {"allow_nan": False, "allow_infinity": False} if dtype.kind == "f" else {}
        return draw(hnp.arrays(dtype, shape, elements=hnp.from_dtype(dtype, **finite))), shape
    entries = draw(st.lists(_NUMBER_ENTRIES, min_size=math.prod(shape),
                            max_size=math.prod(shape)))

    def nest(flat, dims):
        if not dims:
            return flat[0]
        step = len(flat) // dims[0]
        rows = [nest(flat[k * step:(k + 1) * step], dims[1:]) for k in range(dims[0])]
        return tuple(rows) if draw(st.booleans()) else rows

    return nest(entries, shape), shape


@settings(max_examples=300, deadline=None)
@given(reader_inputs(), st.data())
def test_the_reader_is_asarray_on_numbers_and_names_its_parameter_at_any_other_entry(case,
                                                                                      data):
    value, shape = case
    got, want = _numbers("x", value, len(shape)), np.asarray(value, dtype=float)
    assert got.shape == want.shape == shape and got.tobytes() == want.tobytes()
    # one entry replaced: in a float array for a float, in the list form otherwise, as an
    # int or float array holds no bool or string
    bad = data.draw(st.sampled_from(_NO_NUMBERS))
    at = tuple(data.draw(st.integers(0, n - 1)) for n in shape)
    if isinstance(value, np.ndarray) and value.dtype.kind == "f" and isinstance(bad, float):
        broken = value.copy()
        broken[at] = bad
    elif not shape:
        broken = bad
    else:
        broken = row = np.asarray(value, dtype=object).tolist()
        for k in at[:-1]:
            row = row[k]
        row[at[-1]] = bad
    with pytest.raises(ValueError, match="^x must"):
        _numbers("x", broken, len(shape))


@pytest.mark.parametrize("value, message", [
    ([[1.0, 2], (3.0, True, False)], "not bool, got True"),
    ([[0.5, "1.0"], [True]], "not str, got 1.0"),
    ([1.0, [2.0, np.True_]], "not bool, got True"),
])
def test_the_first_entry_that_is_no_number_is_named_in_a_row_of_numbers(value, message):
    # a row of JSON numbers passes by its set of types; any other row is read entry by
    # entry, so the first entry that is no number is the one named
    with pytest.raises(ValueError, match=f"^x must hold numbers, {message}$"):
        _numbers("x", value, (1, 2))


def test_a_row_of_numpy_numbers_is_read_entry_by_entry():
    value = [[np.float64(0.5), 2, np.int64(3)], (1.0, 2.0, 3.0)]
    assert _numbers("x", value, 2).tolist() == [[0.5, 2.0, 3.0], [1.0, 2.0, 3.0]]
