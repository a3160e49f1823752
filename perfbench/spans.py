"""Timing spans installed around public functions, for the traced run only.

A :class:`Tracer` wraps named functions and methods of the program from
the outside.  Each wrapped call is a span; a span's *self* time is its
duration minus the time its child spans cover, so the self times of all
layers add up to the time of the outermost span without double
counting.  A layer that is already active on the span stack (direct
recursion, or one layer function calling another of the same layer) is
not counted a second time.

Nothing is patched until :meth:`Tracer.install`, and :meth:`Tracer.remove`
puts every original object back, so traced and untraced passes can
alternate in one process with no wrapper left in the untraced ones.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


@dataclass
class Layer:
    """Accumulated spans of one layer."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    #: work counters fed by the wrappers' ``count`` hooks
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self._stack: list[list[int]] = []  # [child ns] of each open span
        self._active: set[str] = set()
        self._specs: list[tuple] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- what to wrap --------------------------------------------------

    def function(self, module, attr: str, name: str, count=None) -> None:
        """Trace ``module.attr`` in every loaded module that binds it.

        A function imported by name (``from repro.sim.machine import
        read_bus_planes``) lives on in the importing module's namespace,
        so each of those bindings is replaced too.
        """
        self._specs.append(("function", module, attr, name, count))

    def method(self, cls, attr: str, name: str, count=None) -> None:
        """Trace the method (or staticmethod) *attr* defined on *cls*."""
        self._specs.append(("method", cls, attr, name, count))

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        for kind, owner, attr, name, count in self._specs:
            if kind == "method":
                raw = owner.__dict__[attr]
                static = isinstance(raw, staticmethod)
                traced = self._wrap(raw.__func__ if static else raw, name, count)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(traced) if static else traced)
                continue
            original = getattr(owner, attr)
            traced = self._wrap(original, name, count)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._undo.append((loaded, key, original))
                        setattr(loaded, key, traced)

    def remove(self) -> None:
        """Restore every patched binding, newest first."""
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _wrap(self, fn, name: str, count):
        layer = self.layers.setdefault(name, Layer())
        stack = self._stack
        active = self._active

        def traced(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            active.add(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                active.discard(name)
                layer.calls += 1
                layer.total_ns += elapsed
                layer.self_ns += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if count is not None:
                count(layer, args, result)
            return result

        return traced
