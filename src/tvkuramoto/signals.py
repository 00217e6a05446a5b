"""Time-varying signals: frequencies, coupling matrices, and their window integrals.

A signal maps t >= 0 to a scalar, an m-vector, or an m x m matrix. Four kinds are
supported: constant, periodic piecewise-constant switching schedules, sinusoidal
offsets base + amplitude*trig(t/scale + phase), and sampled step tables. Switching
schedules and tables are right-continuous at their breakpoints. Window integrals
use exact antiderivatives for every kind (step functions are summed piece by piece),
so downstream eigenvalue certificates see no quadrature noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _as_value(v):
    """Normalize a scalar / nested list to float or ndarray; reject NaN and inf."""
    arr = np.asarray(v, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("signal values must be finite (no NaN or inf)")
    return float(arr) if arr.ndim == 0 else arr


def _value_shape(v) -> tuple:
    return () if isinstance(v, float) else v.shape


def _zeros_like_value(v):
    return 0.0 if isinstance(v, float) else np.zeros_like(v)


@dataclass(frozen=True)
class WindowAverage:
    """Mean value of a signal over [start, end]."""

    start: float
    end: float
    value: "float | np.ndarray"


_BREAK_SNAP = 1e-9  # relative half-width for snapping a query onto a breakpoint


def _fold_periodic(t: float, period: float) -> float:
    """Map t onto [0, period), snapping near-boundary queries to the boundary.

    Fixed-step grids place samples exactly on switch instants up to float
    rounding; without the snap a sample a few ulps below a boundary would read
    the old piece and effectively jitter the schedule by one step.
    """
    cycles = t / period
    n = math.floor(cycles)
    if cycles - n > 1.0 - _BREAK_SNAP:
        n += 1
    return max(t - n * period, 0.0)


class TimeSignal:
    """Base class; concrete kinds implement evaluate and exact integration."""

    kind: str = ""
    period: "float | None" = None

    @property
    def shape(self) -> tuple:
        raise NotImplementedError

    @property
    def is_piecewise_constant(self) -> bool:
        raise NotImplementedError

    def evaluate(self, t: float):
        """Signal value at time t >= 0 (right-continuous at breakpoints).

        Piecewise-constant kinds return the same stored object for every t in
        one piece, so callers may skip a repeat by identity (``a is prev``).
        """
        raise NotImplementedError

    def integrate_window(self, s: float, t: float):
        """Exact integral over [s, t], 0 <= s <= t."""
        raise NotImplementedError

    def time_compress(self, epsilon: float) -> "TimeSignal":
        """Signal with period scaled by epsilon: out(t) = in(t/epsilon)."""
        raise NotImplementedError

    def breakpoints(self) -> np.ndarray:
        """Discontinuity times within one period (empty for smooth kinds)."""
        return np.array([])

    def window_average(self, s: float, t: float) -> WindowAverage:
        if t <= s:
            raise ValueError(f"zero-length window: need t > s, got s={s}, t={t}")
        return WindowAverage(s, t, self.integrate_window(s, t) / (t - s))

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

    def _check_window(self, s, t):
        if s < 0 or t < s:
            raise ValueError(f"bad integration window: need 0 <= s <= t, got s={s}, t={t}")


class ConstantSignal(TimeSignal):
    kind = "constant"

    def __init__(self, value):
        self.value = _as_value(value)
        self.period = None

    @property
    def shape(self):
        return _value_shape(self.value)

    @property
    def is_piecewise_constant(self):
        return True

    def evaluate(self, t):
        return self.value

    def integrate_window(self, s, t):
        self._check_window(s, t)
        return self.value * (t - s)

    def time_compress(self, epsilon):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        return self


class SwitchingSignal(TimeSignal):
    """Periodic schedule of constant pieces, right-continuous at switch times.

    Piece k holds on [b_k, b_{k+1}) with b_0 = 0 and b_{k+1} - b_k = durations[k];
    the pattern repeats with period sum(durations).
    """

    kind = "switching"

    def __init__(self, durations: Sequence[float], values: Sequence, period: "float | None" = None):
        durations = [float(d) for d in durations]
        if len(durations) == 0 or len(durations) != len(values):
            raise ValueError("need one duration per piece and at least one piece")
        if not all(0 < d < math.inf for d in durations):
            raise ValueError("piece durations must be positive and finite")
        if period is not None and not math.isfinite(period):
            raise ValueError(f"declared period must be finite, got {period}")
        self.durations = np.array(durations)
        self.values = [_as_value(v) for v in values]
        shapes = {_value_shape(v) for v in self.values}
        if len(shapes) != 1:
            raise ValueError(f"pieces have inconsistent shapes: {shapes}")
        self.period = float(self.durations.sum())
        if period is not None and not math.isclose(period, self.period, rel_tol=1e-12):
            raise ValueError(f"declared period {period} != sum of durations {self.period}")
        self._starts = np.concatenate([[0.0], np.cumsum(self.durations)])  # length n+1
        self._piece_integrals = [v * d for v, d in zip(self.values, self.durations)]
        self._full_integral = sum(self._piece_integrals[1:], self._piece_integrals[0])

    @property
    def shape(self):
        return _value_shape(self.values[0])

    @property
    def is_piecewise_constant(self):
        return True

    def breakpoints(self):
        return self._starts[:-1].copy()

    def _piece_index(self, tau: float) -> int:
        # tau in [0, period); side='right' keeps right-continuity at piece
        # starts, and the snap pulls queries a few ulps below a start onto it
        idx = int(np.searchsorted(self._starts, tau + _BREAK_SNAP * self.period,
                                  side="right")) - 1
        return min(idx, len(self.values) - 1)

    def evaluate(self, t):
        if t < 0:
            raise ValueError(f"signal domain is t >= 0, got {t}")
        return self.values[self._piece_index(_fold_periodic(t, self.period))]

    def _partial_integral(self, x: float):
        """Integral over [0, x] for x in [0, period]."""
        acc = _zeros_like_value(self.values[0])
        for k, (start, dur) in enumerate(zip(self._starts[:-1], self.durations)):
            if x <= start:
                break
            overlap = min(x, start + dur) - start
            acc = acc + self.values[k] * overlap
        return acc

    def integrate_window(self, s, t):
        self._check_window(s, t)

        def antider(x):
            n = math.floor(x / self.period)
            rem = x - n * self.period
            if rem >= self.period:
                n, rem = n + 1, 0.0
            return self._full_integral * n + self._partial_integral(rem)

        return antider(t) - antider(s)

    def time_compress(self, epsilon):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        return SwitchingSignal(self.durations * epsilon, self.values)


class SinusoidSignal(TimeSignal):
    """base + amplitude * trig(t/time_scale + phase), trig in {sin, cos}.

    base/amplitude/phase may be scalars or arrays of a common shape; period is
    2*pi*time_scale. A zero base with any full-period window integrates to zero.
    """

    kind = "sinusoid"

    def __init__(self, base, amplitude, phase, trig: str = "cos", time_scale: float = 1.0):
        if trig not in ("sin", "cos"):
            raise ValueError(f"trig must be 'sin' or 'cos', got {trig!r}")
        if not 0 < time_scale < math.inf:
            raise ValueError(f"time_scale must be positive and finite, got {time_scale}")
        self.base = _as_value(base)
        self.amplitude = _as_value(amplitude)
        self.phase = _as_value(phase)
        self.trig = trig
        self.time_scale = float(time_scale)
        self.period = 2.0 * math.pi * self.time_scale
        shape = np.broadcast_shapes(
            _value_shape(self.base), _value_shape(self.amplitude), _value_shape(self.phase)
        )
        self._shape = shape
        # amplitude * trig(x + phase) = c cos(x) + s sin(x): two scalar trig calls per evaluate
        ac, as_ = self.amplitude * np.cos(self.phase), self.amplitude * np.sin(self.phase)
        self._cos_coef, self._sin_coef = (as_, ac) if trig == "sin" else (ac, -as_)

    @property
    def shape(self):
        return self._shape

    @property
    def is_piecewise_constant(self):
        return False

    def evaluate(self, t):
        if t < 0:
            raise ValueError(f"signal domain is t >= 0, got {t}")
        x = t / self.time_scale
        out = self.base + self._cos_coef * math.cos(x) + self._sin_coef * math.sin(x)
        return out if self._shape else float(out)

    def integrate_window(self, s, t):
        self._check_window(s, t)
        a = self.time_scale
        if self.trig == "cos":  # d/dt [a sin(t/a + p)] = cos(t/a + p)
            prim = lambda x: a * np.sin(x / a + self.phase)
        else:
            prim = lambda x: -a * np.cos(x / a + self.phase)
        out = self.base * (t - s) + self.amplitude * (prim(t) - prim(s))
        return out if self._shape else float(out)

    def time_compress(self, epsilon):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        return SinusoidSignal(self.base, self.amplitude, self.phase, self.trig,
                              self.time_scale * epsilon)


class TableSignal(TimeSignal):
    """Sampled step function: values[k] holds on [times[k], times[k+1]).

    With a declared period the pattern repeats (last piece runs to the period
    end); otherwise the last value holds for all later times. No interpolation.
    """

    kind = "table"

    def __init__(self, times: Sequence[float], values: Sequence, period: "float | None" = None):
        self.times = np.asarray(times, dtype=float)
        self.values = [_as_value(v) for v in values]
        if self.times.size == 0 or self.times.size != len(self.values):
            raise ValueError("need one value per time and at least one sample")
        if not np.isfinite(self.times).all():
            raise ValueError("table times must be finite")
        if self.times[0] != 0.0:
            raise ValueError("table must start at time 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("table times must be strictly increasing")
        if period is not None:
            if not math.isfinite(period):
                raise ValueError(f"period must be finite, got {period}")
            if period <= self.times[-1]:
                raise ValueError("period must exceed the last sample time")
            self.period = float(period)
        else:
            self.period = None
        shapes = {_value_shape(v) for v in self.values}
        if len(shapes) != 1:
            raise ValueError(f"table values have inconsistent shapes: {shapes}")

    @property
    def shape(self):
        return _value_shape(self.values[0])

    @property
    def is_piecewise_constant(self):
        return True

    def breakpoints(self):
        return self.times.copy()

    def _eval_local(self, tau):
        snap = _BREAK_SNAP * (self.period if self.period is not None else self.times[-1] + 1.0)
        idx = int(np.searchsorted(self.times, tau + snap, side="right")) - 1
        return self.values[min(idx, len(self.values) - 1)]

    def evaluate(self, t):
        if t < 0:
            raise ValueError(f"signal domain is t >= 0, got {t}")
        if self.period is None:
            return self._eval_local(min(t, self.times[-1]))
        return self._eval_local(_fold_periodic(t, self.period))

    def _partial_integral(self, x, end):
        acc = _zeros_like_value(self.values[0])
        bounds = np.concatenate([self.times, [end]])
        for k in range(len(self.values)):
            if x <= bounds[k]:
                break
            acc = acc + self.values[k] * (min(x, bounds[k + 1]) - bounds[k])
        return acc

    def integrate_window(self, s, t):
        self._check_window(s, t)
        if self.period is None:
            # step function extended by its last value
            def antider(x):
                core = self._partial_integral(min(x, self.times[-1]), self.times[-1])
                if x > self.times[-1]:
                    core = core + self.values[-1] * (x - self.times[-1])
                return core
        else:
            full = self._partial_integral(self.period, self.period)

            def antider(x):
                n = math.floor(x / self.period)
                rem = x - n * self.period
                if rem >= self.period:
                    n, rem = n + 1, 0.0
                return full * n + self._partial_integral(rem, self.period)

        return antider(t) - antider(s)

    def time_compress(self, epsilon):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if self.period is None:
            raise ValueError("time_compress requires a periodic signal")
        return TableSignal(self.times * epsilon, self.values, self.period * epsilon)


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
    """Validate that dt tiles [s, t] and hits every signal breakpoint.

    Fixed-step integrators rely on this so a discontinuity never falls inside
    a step. Returns the step count.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if isinstance(signals, TimeSignal):
        signals = [signals]
    span = t - s
    nsteps = round(span / dt)
    if nsteps == 0 and span > 0:
        raise ValueError(f"dt={dt} exceeds the span {span}")
    if abs(nsteps * dt - span) > 1e-9 * max(1.0, span):
        raise ValueError(f"dt={dt} does not divide the span {span}")
    for sig in signals:
        bps = sig.breakpoints_in(s, t)
        off = bps[np.abs(s + np.rint((bps - s) / dt) * dt - bps) > 1e-9]
        if off.size:
            raise ValueError(f"dt={dt} is not aligned to the signal breakpoint at t={off[0]}")
    return int(nsteps)


def sample_grid(signals: "TimeSignal | Sequence[TimeSignal]", num: int = 1000,
                horizon: "float | None" = None) -> np.ndarray:
    """Evaluation grid covering one period (or [0, horizon]) plus all breakpoints.

    Extrema taken on this grid are exact for piecewise-constant signals and a
    documented approximation otherwise.
    """
    if isinstance(signals, TimeSignal):
        signals = [signals]
    if horizon is None:
        periods = [s.period for s in signals if s.period is not None]
        if not periods:
            if all(s.kind == "constant" for s in signals):
                return np.array([0.0])
            raise ValueError("aperiodic signals need an explicit horizon")
        horizon = max(periods)
    pts = [np.linspace(0.0, horizon, max(int(num), 2), endpoint=False)]
    for s in signals:
        bp = s.breakpoints_in(0.0, horizon)
        # half-open evaluation window: drop the horizon point itself
        pts.append(bp[bp < horizon])
    grid = np.unique(np.concatenate(pts))
    if grid.size == 0:
        raise ValueError("empty sampling grid")
    return grid
