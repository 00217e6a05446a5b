"""Spans around the public functions and class methods of the tvkuramoto layers.

The program has no spans of its own, so the traced run wraps, from outside,
every public function and every public method of the classes defined in each
layer module. A span records its calls, its inclusive time and its self time,
which is its time minus the time of the spans opened inside it, both on the
clock it is given (run.py gives it the host-speed clock). Spans are
aggregated by name in memory: a run opens millions of them (one per signal
evaluation), too many to keep one record each.
"""

from __future__ import annotations

import functools
import importlib
import inspect

LAYERS = ("cli", "scenarios", "dynamics", "signals", "certificates", "linalg", "graph")


class Tracer:
    """Per-span-name counters: [calls, inclusive seconds, self seconds]."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: dict = {}
        self.steps = 0          # RK4 steps in the trajectories dynamics.simulate returned
        self._open: list = []   # child time of every open span, innermost last

    def reset(self):
        for counters in self.spans.values():
            counters[:] = [0, 0.0, 0.0]
        self.steps = 0

    def _wrap(self, name: str, fn, after=None):
        counters = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                counters[0] += 1
                counters[1] += elapsed
                counters[2] += elapsed - child
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                after(result)
            return result

        return span

    def _count_steps(self, traj):
        self.steps += len(traj.times) - 1

    def install(self):
        """Replace every public function and method of the layers with a span.

        A function imported by name into another module (`from x import f`)
        is replaced there too, so every call site goes through the span.
        """
        modules = {layer: importlib.import_module(f"tvkuramoto.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    after = self._count_steps if (layer, attr) == ("dynamics", "simulate") else None
                    replaced[obj] = self._wrap(f"{layer}.{attr}", obj, after)
                    setattr(mod, attr, replaced[obj])
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    # ------------------------------------------------------------------
    # readings

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def seconds(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0])[1]

    def sum_suffix(self, suffix: str, index: int):
        """Sum of one counter over every span whose name ends with suffix."""
        return sum(c[index] for name, c in self.spans.items() if name.endswith(suffix))

    def self_seconds(self, layer: str) -> float:
        return sum(c[2] for name, c in self.spans.items() if name.startswith(layer + "."))
