"""Time-varying signals: frequencies, coupling matrices, and their window integrals.

A signal maps t >= 0 to a scalar, an m-vector, or an m x m matrix. Two classes
carry every kind: SinusoidSignal, sinusoidal offsets base + amplitude*trig(t/scale
+ phase), and TableSignal, step tables. ConstantSignal and SwitchingSignal build
tables: a constant is one piece at t = 0 with no period, a switching schedule
the periodic table of its cumulative piece durations. Step functions are
right-continuous at their breakpoints. Window integrals use exact
antiderivatives for every kind (a step function keeps its integral up to each
breakpoint), so downstream eigenvalue certificates see no quadrature noise.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


class PeriodError(ValueError):
    """The signals lack the period a computation needs."""


def _check_entries(name: str, value) -> None:
    """ValueError naming name at the first entry of value that is no number (a bool is none):
    a list or tuple of JSON numbers at once by its set of types, any other entry by entry,
    anything else by its dtype (an array of numbers holds none)."""
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= {float, int}:  # a row of numbers, at C speed
            return
        for v in value:
            if type(v) not in (float, int):  # JSON's numbers pass at once
                _check_entries(name, v)
    elif type(value) not in (float, int) and np.asarray(value).dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold numbers, not {type(value).__name__}, got {value}")


def _numbers(name: str, value, ndim, sign: "str | None" = None) -> np.ndarray:
    """np.asarray(value, dtype=float) of a number or nested lists of numbers from outside
    the program; ValueError naming name at an entry that is no number (checked before any
    float conversion), an ndim not in ndim (an int or a tuple), or an entry that is not
    finite or, for sign ">0" or ">=0", on the wrong side of 0."""
    _check_entries(name, value)
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged lists, or an int past any float
        raise ValueError(f"{name}: {exc}") from exc
    if arr.ndim not in (ndim if isinstance(ndim, tuple) else (ndim,)):
        raise ValueError(f"{name} must have ndim {ndim}, got shape {arr.shape}")
    ok = np.isfinite(arr)
    if sign is not None:
        ok &= arr > 0 if sign == ">0" else arr >= 0
    if not ok.all():
        rule = {None: "finite", ">0": "positive and finite", ">=0": "finite and at least 0"}[sign]
        raise ValueError(f"{name} must be {rule}, got {arr[~ok].flat[0]}")
    return arr


_VALUE_NDIM = (0, 1, 2, 3)  # of a signal value: a scalar, (m,) or (R, m), (m, m) or (R, m, m)


# seconds: a time this close to a switch is on it. check_alignment accepts a switch
# this close to the step grid, and piece_index reads the new piece from a time this
# close below it, so a run applies every switch at the grid time that hits it
_BREAK_SNAP = 1e-9


class TimeSignal:
    """Base class; concrete kinds implement evaluate and exact integration."""

    period: "float | None" = None
    shape: tuple                 # of a value: () for a scalar, (m,) or (m, m)
    is_piecewise_constant: bool  # True for a step table, False for a smooth signal

    @property
    def is_constant(self) -> bool:
        """One piece and no period: the value at t = 0 holds for all t."""
        return self.is_piecewise_constant and self.period is None and self.breakpoints().size == 1

    def evaluate(self, t: float):
        """Signal value at time t >= 0 (right-continuous at breakpoints).

        Smooth kinds also take an array of times: the result holds one value
        per time, its value axes after theirs, each equal bit for bit to the
        scalar call.
        """
        raise NotImplementedError

    def integrate_window(self, s, t):
        """Exact integral over [s, t], 0 <= s <= t.

        s and t may be arrays of one shape: the result holds one integral per
        (s, t) pair, its value axes after theirs, each equal bit for bit to the
        scalar call.
        """
        raise NotImplementedError

    def time_compress(self, epsilon: float) -> "TimeSignal":
        """Signal with period scaled by epsilon: out(t) = in(t/epsilon)."""
        raise NotImplementedError

    def breakpoints(self) -> np.ndarray:
        """Discontinuity times within one period (empty for smooth kinds)."""
        return np.array([])

    def window_average(self, s: float, t: float):
        """Mean value over [s, t], s < t."""
        if t <= s:
            raise ValueError(f"zero-length window: need t > s, got s={s}, t={t}")
        return self.integrate_window(s, t) / (t - s)

    def breakpoints_in(self, s: float, t: float) -> np.ndarray:
        """All discontinuity instants within [s, t] (absolute times)."""
        base = self.breakpoints()
        if base.size == 0:
            return np.array([])
        if self.period is not None:
            # one period past floor(t / period) covers a quotient rounded down
            cycles = np.arange(math.floor(s / self.period), math.floor(t / self.period) + 2)
            base = (cycles[:, None] * self.period + base).ravel()
        return base[(base >= s) & (base <= t)]

    def _window(self, s, t):
        """[s, t] as one float array x (x[0] = s, x[1] = t), with a unit axis per value axis."""
        x = np.array([s, t], dtype=float)
        if ((x[0] < 0) | (x[1] < x[0])).any():
            raise ValueError(f"bad integration window: need 0 <= s <= t, got s={s}, t={t}")
        return x.reshape(x.shape + (1,) * len(self.shape))


def _window_value(out):
    """A window integral as the scalar calls return it: float for a scalar value."""
    return float(out) if np.ndim(out) == 0 else out


class SinusoidSignal(TimeSignal):
    """base + amplitude * trig(t/time_scale + phase), trig in {sin, cos}.

    base/amplitude/phase may be scalars or arrays of a common shape; period is
    2*pi*time_scale. A zero base with any full-period window integrates to zero.
    An entry moves if its cos or sin coefficient is nonzero or its base is -0.0;
    every other entry is constant and equals its base at every time. An array
    call copies the constant entries and computes only the moving ones, each as
    the dense formula would; a single-time call takes the dense formula.
    """

    is_piecewise_constant = False

    def __init__(self, base, amplitude, phase, trig: str = "cos", time_scale: float = 1.0):
        if trig not in ("sin", "cos"):
            raise ValueError(f"trig must be 'sin' or 'cos', got {trig!r}")
        self.base = _numbers("base", base, _VALUE_NDIM)
        self.amplitude = _numbers("amplitude", amplitude, _VALUE_NDIM)
        self.phase = _numbers("phase", phase, _VALUE_NDIM)
        self.trig = trig
        self.time_scale = float(_numbers("time_scale", time_scale, 0, ">0"))
        self.period = 2.0 * math.pi * self.time_scale
        self.shape = np.broadcast_shapes(
            np.shape(self.base), np.shape(self.amplitude), np.shape(self.phase))
        # amplitude * trig(x + phase) = c cos(x) + s sin(x): two scalar trig calls per evaluate
        ac, as_ = self.amplitude * np.cos(self.phase), self.amplitude * np.sin(self.phase)
        self._cos_coef, self._sin_coef = (as_, ac) if trig == "sin" else (ac, -as_)
        # the moving entries: _moving their flat indices (None when all move), _moving_terms
        # their base and coefficients; _constant_values every entry's base
        base, c, s = (np.broadcast_to(v, self.shape).ravel()
                      for v in (self.base, self._cos_coef, self._sin_coef))
        # -0.0 + c cos + s sin is -0.0 only where both products are -0.0, so it moves
        moves = (c != 0) | (s != 0) | ((base == 0) & np.signbit(base))
        if moves.all():
            self._moving = None
        else:
            self._moving = np.flatnonzero(moves)
            self._constant_values = base.reshape(self.shape)
            self._moving_terms = tuple(v[self._moving] for v in (base, c, s))

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)  # a scalar time is a 0-d array
        if (t < 0).any():
            raise ValueError(f"signal domain is t >= 0, got {t.min()}")
        xs = (t / self.time_scale).ravel().tolist()
        # math's cos and sin per time, so a row of an array call equals the scalar call
        cos = np.array([math.cos(x) for x in xs])
        sin = np.array([math.sin(x) for x in xs])
        if t.ndim == 0 or self._moving is None:  # one time, or every entry moves: the dense formula
            axes = t.shape + (1,) * len(self.shape)
            out = self.base + self._cos_coef * cos.reshape(axes) + self._sin_coef * sin.reshape(axes)
            return out if out.ndim else float(out)
        out = np.empty(t.shape + self.shape)
        out[...] = self._constant_values
        base, c, s = self._moving_terms
        out.reshape(len(xs), self._constant_values.size)[:, self._moving] = \
            base + c * cos[:, None] + s * sin[:, None]
        return out

    def integrate_window(self, s, t):
        x = self._window(s, t)
        a = self.time_scale
        if self.trig == "cos":  # d/dt [a sin(t/a + p)] = cos(t/a + p)
            prim = a * np.sin(x / a + self.phase)
        else:
            prim = -a * np.cos(x / a + self.phase)
        return _window_value(self.base * (x[1] - x[0]) + self.amplitude * (prim[1] - prim[0]))

    def time_compress(self, epsilon):
        epsilon = float(_numbers("epsilon", epsilon, 0, ">0"))
        return SinusoidSignal(self.base, self.amplitude, self.phase, self.trig,
                              self.time_scale * epsilon)


class TableSignal(TimeSignal):
    """Sampled step function: values[k] holds on [times[k], times[k+1]).

    With a declared period the pattern repeats (last piece runs to the period
    end); otherwise the last value holds for all later times. No interpolation.
    """

    is_piecewise_constant = True

    def __init__(self, times: Sequence[float], values: Sequence, period: "float | None" = None):
        self.times = _numbers("times", times, 1)
        self.values = [float(v) if v.ndim == 0 else v
                       for v in (_numbers("values", v, _VALUE_NDIM) for v in values)]
        if self.times.size == 0 or self.times.size != len(self.values):
            raise ValueError("need one value per time and at least one sample")
        if self.times[0] != 0.0:
            raise ValueError("table must start at time 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("table times must be strictly increasing")
        self.period = None if period is None else float(_numbers("period", period, 0, ">0"))
        if period is not None and self.period <= self.times[-1]:
            raise ValueError("period must exceed the last sample time")
        shapes = {np.shape(v) for v in self.values}
        if len(shapes) != 1:
            raise ValueError(f"values have inconsistent shapes: {shapes}")
        self.shape = shapes.pop()
        # integral over [0, times[k]], summed piece by piece in time order
        cum = [np.zeros(self.shape)]
        for v, lo, hi in zip(self.values, self.times, self.times[1:]):
            cum.append(cum[-1] + v * (hi - lo))
        self._cum, self._stack = np.array(cum), np.array(self.values)
        self._starts = self.times.reshape((-1,) + (1,) * len(self.shape))
        if self.period is not None:
            self._full = self._partial_integral(np.full(self._starts.shape[1:], self.period))

    def breakpoints(self):
        return self.times.copy()

    def evaluate(self, t):
        return self.values[self.piece_index(t)]

    def piece_index(self, times) -> np.ndarray:
        """Index k of the piece values[k] that holds at each time, a scalar for a scalar
        time: the time folded onto one period or clipped to the last switch, then bisected
        to the right for right-continuity. Every piece lookup of a table reads this."""
        t = np.asarray(times, dtype=float)
        bad = ~((t >= 0) & (t < math.inf))  # NaN included
        if bad.any():
            raise ValueError(f"signal domain is finite t >= 0, got {t[bad].flat[0]}")
        if self.period is None:
            tau = np.minimum(t, self.times[-1])
        else:  # a time a snap width below a period end wraps into the next period
            cycles = t / self.period
            n = np.floor(cycles)
            n += cycles - n > 1.0 - _BREAK_SNAP / self.period
            tau = np.maximum(t - n * self.period, 0.0)
        # the snap: a grid time that check_alignment puts on a switch may lie up to
        # _BREAK_SNAP below it, and would read the old piece for one more step
        return np.searchsorted(self.times, tau + _BREAK_SNAP, side="right") - 1

    def _partial_integral(self, x):
        """Integral over [0, x], x >= 0 (and x <= period for a periodic table).

        x carries a unit axis per value axis, as TimeSignal._window gives it.
        """
        # the last piece starting before x; piece 0 at x = 0, where it adds v * 0 to a zero
        k = np.searchsorted(self.times[1:], x[(...,) + (0,) * len(self.shape)])
        # in place, as a batch holds two matrices per window; np.take copies even for a 0-d k
        out = np.take(self._stack, k, axis=0)
        out *= x - self._starts[k]
        out += self._cum[k]
        return out

    def _antiderivative(self, x):
        if self.period is None:  # step function extended by its last value
            return self._partial_integral(x)
        n = np.floor(x / self.period)
        rem = np.maximum(x - n * self.period, 0.0)  # rounding can leave rem an ulp below 0
        wrap = rem >= self.period  # or on the period itself
        if wrap.any():
            n, rem = n + wrap, np.where(wrap, 0.0, rem)
        out = self._partial_integral(rem)
        out += self._full * n
        return out

    def integrate_window(self, s, t):
        antiderivative = self._antiderivative(self._window(s, t))
        return _window_value(antiderivative[1] - antiderivative[0])

    def time_compress(self, epsilon):
        epsilon = float(_numbers("epsilon", epsilon, 0, ">0"))
        period = None if self.period is None else self.period * epsilon
        return TableSignal(self.times * epsilon, self.values, period)

    def _spread(self, runs: int) -> "TableSignal":
        """This table with its (m,) values stacked runs times, (runs, m): a new table
        whose every row equals this one's value bit for bit."""
        return TableSignal(self.times, [np.tile(v, (runs, 1)) for v in self.values], self.period)


def ConstantSignal(value) -> TableSignal:
    """value for all t >= 0: a table of one piece at t = 0 with no period."""
    return TableSignal([0.0], [value])


def SwitchingSignal(durations: Sequence[float], values: Sequence,
                    period: "float | None" = None) -> TableSignal:
    """Periodic schedule of constant pieces: the periodic table of the cumulative durations.

    Piece k holds on [b_k, b_{k+1}) with b_0 = 0 and b_{k+1} - b_k = durations[k];
    the pattern repeats with period sum(durations), which a declared period must match.
    """
    durations = _numbers("durations", durations, 1, ">0")
    if durations.size == 0 or durations.size != len(values):
        raise ValueError("need one duration per piece and at least one piece")
    total = float(np.sum(durations))
    if period is not None and not math.isclose(_numbers("period", period, 0, ">0"), total,
                                                rel_tol=1e-12):
        raise ValueError(f"declared period {period} != sum of durations {total}")
    return TableSignal(np.concatenate([[0.0], np.cumsum(durations)[:-1]]), values, total)


def signal_from_json(obj: dict) -> TimeSignal:
    """Build a signal from its JSON description.

    Schema: {"kind": "constant"|"switching"|"sinusoid"|"table", ...} with
    kind-specific fields; times in seconds, frequencies in rad/s, values
    scalars or row-major nested lists.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("signal description must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "constant":
        return ConstantSignal(obj["value"])
    if kind == "switching":
        pieces = obj.get("pieces")
        if not pieces:
            raise ValueError("switching signal needs a non-empty 'pieces' list")
        return SwitchingSignal(
            [p["duration"] for p in pieces],
            [p["value"] for p in pieces],
            period=obj.get("period"),
        )
    if kind == "sinusoid":
        return SinusoidSignal(
            obj["base"], obj["amplitude"], obj["phase"],
            trig=obj.get("trig", "cos"), time_scale=obj.get("time_scale", 1.0),
        )
    if kind == "table":
        return TableSignal(obj["times"], obj["values"], period=obj.get("period"))
    raise ValueError(f"unknown signal kind {kind!r}")


def check_alignment(signals: "TimeSignal | Sequence[TimeSignal]", s: float, t: float,
                    dt: float) -> int:
    """Validate that dt tiles [s, t] and hits every signal breakpoint, each within
    _BREAK_SNAP of a grid time.

    Fixed-step integrators rely on this so a discontinuity never falls inside
    a step. Returns the step count.
    """
    _numbers("dt", dt, 0, ">0")
    if isinstance(signals, TimeSignal):
        signals = [signals]
    span = t - s
    if not math.isfinite(span):
        raise ValueError(f"the span [{s}, {t}] must be finite")
    nsteps = round(span / dt)
    if nsteps == 0 and span > 0:
        raise ValueError(f"dt={dt} exceeds the span {span}")
    if abs(nsteps * dt - span) > 1e-9 * max(1.0, span):
        raise ValueError(f"dt={dt} does not divide the span {span}")
    for sig in signals:
        bps = sig.breakpoints_in(s, t)
        off = bps[np.abs(s + np.rint((bps - s) / dt) * dt - bps) > _BREAK_SNAP]
        if off.size:
            raise ValueError(f"dt={dt} is not aligned to the signal breakpoint at t={off[0]}")
    return int(nsteps)


_PERIOD_MULTIPLES = 64  # largest multiple of the longest period common_period tries


def common_period(signals: "Sequence[TimeSignal | float]") -> "float | None":
    """Smallest whole multiple of the longest period that every period divides within
    1e-9, a number standing for its own period; None when nothing is periodic,
    PeriodError when no multiple up to _PERIOD_MULTIPLES works."""
    periods = [p for p in (s.period if isinstance(s, TimeSignal) else float(s) for s in signals)
               if p is not None]
    if not periods:
        return None
    longest = max(periods)
    for k in range(1, _PERIOD_MULTIPLES + 1):
        span = k * longest
        if all(abs(span / p - round(span / p)) < 1e-9 for p in periods):
            return span
    raise PeriodError(f"periods {periods} have no common multiple within "
                      f"{_PERIOD_MULTIPLES} times the longest")


def sample_grid(signals: "TimeSignal | Sequence[TimeSignal]", num: int = 1000) -> np.ndarray:
    """Evaluation grid: every switch and s, and num even points on each of [0, s) and
    [s, s + P) when a smooth signal takes part.

    s is the last switch of any aperiodic table (its last value holds from
    there on) and P the common period, 0 when no signal is periodic; past s
    the signals together repeat every P, so [0, s + P) sees every value they
    take. Tables change only at their switches, so extrema taken on the grid
    are exact for them (one table's grid is its times) and a documented
    approximation otherwise: a smooth periodic signal gets num points per
    period past s, but only num over all of [0, s).
    """
    if isinstance(signals, TimeSignal):
        signals = [signals]
    settle = max([float(s.times[-1]) for s in signals
                  if isinstance(s, TableSignal) and s.period is None], default=0.0)
    span = settle + (common_period(signals) or 0.0)
    num = 0 if all(s.is_piecewise_constant for s in signals) else max(int(num), 2)
    pts = [np.linspace(0.0, settle, num, endpoint=False),
           np.linspace(settle, span, max(num, 1), endpoint=False)]  # s, and only s for tables
    for s in signals:
        bp = s.breakpoints_in(0.0, span)
        # half-open evaluation window: drop the end point itself
        pts.append(bp[bp < span])
    return np.unique(np.concatenate(pts))


def probe(sig: TimeSignal, num: int = 1000):
    """(t, value) pairs in time order: each stored piece of a table at the time it starts,
    so every value the table takes, and a smooth signal at each time of
    sample_grid(sig, num)."""
    if sig.is_piecewise_constant:
        return zip(sig.times.tolist(), sig.values)
    return ((t, sig.evaluate(t)) for t in sample_grid(sig, num).tolist())
