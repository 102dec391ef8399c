"""Benchmark-side spans around calls into the program's layers.

The traced run does not rely on instrumentation inside ``src/``: it wraps
the layers' public functions from here, at every ``repro`` module name that
binds them (``from x import f`` copies the binding, so patching only the
defining module would miss callers), records one span per call, and puts the
originals back afterwards.

A span is ``(sid, parent, op, name, start, end, attrs)``. ``op`` is the id of
the benchmark operation the call belongs to, so spans of one operation share
it; ``attrs`` holds what a per-target hook read off the call's arguments or
result (batch sizes, grid widths, which fault path ran). Spans stay in memory
and are written once, by :meth:`SpanRecorder.write`, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

_MARK = "_perfbench_original"


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``"module:attr"`` or ``"module:Class.method"``."""

    ref: str
    span: str
    hook: Callable | None = None  # (args, kwargs, result) -> dict of attrs


def _resolve(ref: str):
    mod_name, _, path = ref.partition(":")
    owner = importlib.import_module(mod_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class SpanRecorder:
    """Wraps targets on :meth:`install`, records a span per wrapped call, and
    restores the originals on :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0
        self.op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------- #

    def call(self, name: str, hook, fn, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            attrs = hook(args, kwargs, result) if hook is not None else None
            self.spans.append((sid, parent, self.op, name, t0, t1, attrs))

    def operation(self, op: int, name: str, fn, *args, **kwargs):
        """Run one benchmark operation under its own root span.

        Returns ``(result, seconds)``, the seconds being the root span's
        duration -- the operation alone, without installing or removing the
        wrappers around it.
        """
        self.op = op
        try:
            result = self.call(name, None, fn, args, kwargs)
        finally:
            self.op = None
        _sid, _parent, _op, _name, t0, t1, _attrs = self.spans[-1]
        return result, t1 - t0

    # -- patching -------------------------------------------------------- #

    def _wrap(self, target: Target, original):
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.call(target.span, target.hook, original, args, kwargs)

        setattr(wrapper, _MARK, original)
        return wrapper

    def install(self, targets: list[Target]) -> None:
        """Wrap every target at each module name binding it."""
        for target in targets:
            owner, attr = _resolve(target.ref)
            original = getattr(owner, attr)
            original = getattr(original, _MARK, original)
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        """Put every original back, including bindings made while installed."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for name, value in list(vars(mod).items()):
                original = getattr(value, _MARK, None)
                if original is not None:
                    setattr(mod, name, original)

    # -- aggregation ----------------------------------------------------- #

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        out = {sid: t1 - t0 for sid, _p, _o, _n, t0, t1, _a in self.spans}
        for _sid, parent, _o, _n, t0, t1, _a in self.spans:
            if parent is not None:
                out[parent] -= t1 - t0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "sid": sid,
                            "parent": parent,
                            "op": op,
                            "name": name,
                            "start": t0,
                            "end": t1,
                            "attrs": attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
