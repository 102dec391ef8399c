"""The tracing/metrics core: context-var-scoped :class:`Tracer`.

One tracer records two kinds of telemetry:

* **Spans** — named wall-clock intervals with nesting. Each span captures
  ``time.perf_counter`` at entry/exit plus the peak-RSS and minor-page-fault
  deltas across the interval (one ``resource.getrusage`` call at each end,
  where available): a layer that page-faulted on fresh memory can be told
  from one whose code got slower. Spans form a tree via parent ids, so
  per-phase *self* time (total minus children) is recoverable by
  :mod:`repro.obs.report`.

* **Typed counters** — named scalars with an aggregation mode: ``"sum"``
  accumulates (BFS layers, frontier populations, memo hits), ``"max"``
  keeps the peak (queue depths, span-batch peaks). Values may be ints or
  floats; the type is preserved in the emitted artifacts.

Scoping is a :class:`contextvars.ContextVar`: :func:`use_tracer` installs a
tracer for the dynamic extent of a ``with`` block and instrumentation sites
call the module-level :func:`span` / :func:`count` fast paths. When no
tracer is installed (the default — the "null tracer"), those fast paths do
one context-var read and return a shared no-op object, so instrumented code
pays near-zero overhead and stays **bit-identical** to uninstrumented code:
the tracer only ever *reads* clocks and process stats, never an RNG, so
traced and untraced runs produce identical outputs, receipts, and RNG
states (property-tested in ``tests/test_obs.py`` and enforced in the
equivalence sweep by ``check_trace_transparency``).

Artifacts:

* :meth:`Tracer.write_jsonl` — one JSON object per line (``meta`` header,
  then ``span`` and ``counter`` records), the append-friendly archival
  format.
* :meth:`Tracer.write_chrome` — Chrome trace-event JSON (``traceEvents``
  with ``ph: "X"`` complete events and ``ph: "C"`` counter samples),
  loadable in Perfetto / ``chrome://tracing``.

Timing primitives (``time.perf_counter``, ``resource``) are deliberately
confined to this package; the ``obs-discipline`` lint rule keeps them out
of protocol code.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

try:  # Unix only; Windows runs fall back to rss_kb = 0
    import resource as _resource
except ImportError:  # pragma: no cover - POSIX dev image
    _resource = None  # type: ignore[assignment]

__all__ = [
    "COUNTER_MODES",
    "SpanRecord",
    "Tracer",
    "count",
    "current",
    "enabled",
    "span",
    "traced",
    "use_tracer",
]

#: Counter aggregation modes: ``sum`` accumulates, ``max`` keeps the peak.
COUNTER_MODES = ("sum", "max")

_CURRENT: ContextVar["Tracer | None"] = ContextVar("repro_obs_tracer", default=None)


def _rusage() -> tuple[int, int]:
    """Process ``(peak RSS in KB, minor page faults)`` from one
    ``getrusage`` call (both monotonic non-decreasing), zeros if unknown."""
    if _resource is None:  # pragma: no cover - POSIX dev image
        return 0, 0
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    return int(usage.ru_maxrss), int(usage.ru_minflt)


@dataclass
class SpanRecord:
    """One finished span: name, interval, nesting, peak-RSS and
    minor-fault deltas."""

    sid: int
    parent: int | None
    depth: int
    name: str
    start: float  # seconds since the tracer epoch
    dur: float  # seconds
    rss_kb: int  # peak-RSS growth across the span (KB, >= 0)
    minflt: int = 0  # minor page faults taken during the span (>= 0)

    def as_dict(self) -> dict:
        return {
            "type": "span",
            "sid": self.sid,
            "parent": self.parent,
            "depth": self.depth,
            "name": self.name,
            "start": round(self.start, 9),
            "dur": round(self.dur, 9),
            "rss_kb": self.rss_kb,
            "minflt": self.minflt,
        }


class _Span:
    """Context manager for one live span (created by :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "_name", "_sid", "_parent", "_depth", "_t0", "_usage0")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._sid = tracer._next_sid
        tracer._next_sid += 1
        stack = tracer._stack
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        stack.append(self._sid)
        self._usage0 = _rusage()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        tracer = self._tracer
        tracer._stack.pop()
        rss, minflt = _rusage()
        rss0, minflt0 = self._usage0
        tracer.spans.append(
            SpanRecord(
                sid=self._sid,
                parent=self._parent,
                depth=self._depth,
                name=self._name,
                start=self._t0 - tracer.epoch,
                dur=t1 - self._t0,
                rss_kb=max(0, rss - rss0),
                minflt=max(0, minflt - minflt0),
            )
        )
        return False


class _NullSpan:
    """Shared reentrant no-op span — the whole null-tracer fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans and typed counters for one traced execution."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.spans: list[SpanRecord] = []
        #: counter name -> (mode, value); value int or float
        self.counters: dict[str, tuple[str, int | float]] = {}
        self._stack: list[int] = []
        self._next_sid = 0

    # -- recording ------------------------------------------------------- #

    def span(self, name: str) -> _Span:
        """A context manager timing one named phase (nested freely)."""
        return _Span(self, name)

    def count(self, name: str, value: int | float = 1, mode: str = "sum") -> None:
        """Fold ``value`` into counter ``name`` under ``mode``.

        The mode is fixed by the first call for a given name; later calls
        reuse it (instrumentation sites always pass a consistent mode).
        """
        slot = self.counters.get(name)
        if slot is None:
            if mode not in COUNTER_MODES:
                raise ValueError(
                    f"unknown counter mode {mode!r}; expected one of {COUNTER_MODES}"
                )
            self.counters[name] = (mode, value)
        elif slot[0] == "max":
            if value > slot[1]:
                self.counters[name] = (slot[0], value)
        else:
            self.counters[name] = (slot[0], slot[1] + value)

    # -- aggregation ----------------------------------------------------- #

    def phase_totals(self) -> dict[str, float]:
        """Total seconds per span name (all occurrences summed)."""
        out: dict[str, float] = {}
        for rec in self.spans:
            out[rec.name] = out.get(rec.name, 0.0) + rec.dur
        return out

    def counter_values(self) -> dict[str, int | float]:
        """Plain ``{name: value}`` view of the typed counters."""
        return {name: value for name, (_mode, value) in self.counters.items()}

    # -- artifacts ------------------------------------------------------- #

    def _meta(self) -> dict:
        return {
            "type": "meta",
            "format": "repro-trace",
            "version": 1,
            "spans": len(self.spans),
            "counters": len(self.counters),
        }

    def jsonl_records(self) -> Iterator[dict]:
        yield self._meta()
        for rec in self.spans:
            yield rec.as_dict()
        for name in sorted(self.counters):
            mode, value = self.counters[name]
            yield {"type": "counter", "name": name, "mode": mode, "value": value}

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the archival JSONL artifact; returns the path."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            for record in self.jsonl_records():
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return path

    def chrome_payload(self) -> dict:
        """The Chrome trace-event payload (Perfetto-loadable)."""
        events: list[dict] = []
        end_us = 0.0
        for rec in self.spans:
            ts = rec.start * 1e6
            dur = rec.dur * 1e6
            end_us = max(end_us, ts + dur)
            events.append(
                {
                    "name": rec.name,
                    "ph": "X",
                    "ts": ts,
                    "dur": dur,
                    "pid": 0,
                    "tid": 0,
                    "args": {"rss_kb": rec.rss_kb, "minflt": rec.minflt,
                             "sid": rec.sid, "parent": rec.parent,
                             "depth": rec.depth},
                }
            )
        for name in sorted(self.counters):
            mode, value = self.counters[name]
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": end_us,
                    "pid": 0,
                    "args": {name: value, "mode": mode},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"format": "repro-trace", "version": 1},
        }

    def write_chrome(self, path: str | Path) -> Path:
        """Write the Chrome trace-event JSON artifact; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.chrome_payload(), sort_keys=True) + "\n")
        return path

    def write(self, path: str | Path) -> Path:
        """Format by extension: ``.jsonl`` -> JSONL, anything else Chrome."""
        path = Path(path)
        if path.suffix == ".jsonl":
            return self.write_jsonl(path)
        return self.write_chrome(path)


# --------------------------------------------------------------------------- #
# Module-level fast paths (the instrumentation surface)
# --------------------------------------------------------------------------- #

def current() -> Tracer | None:
    """The tracer installed for this context, or ``None`` (null tracer)."""
    return _CURRENT.get()


def enabled() -> bool:
    """True when a tracer is installed — gate for *computing* costly
    counter values (cheap counters can call :func:`count` unconditionally)."""
    return _CURRENT.get() is not None


def span(name: str):
    """Span under the current tracer, or the shared no-op when untraced."""
    tracer = _CURRENT.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name)


def count(name: str, value: int | float = 1, mode: str = "sum") -> None:
    """Counter update under the current tracer; no-op when untraced."""
    tracer = _CURRENT.get()
    if tracer is not None:
        tracer.count(name, value, mode)


def traced(name: str):
    """Decorator running the whole function under :func:`span` ``name`` —
    the zero-reindentation way to trace entry points with many returns."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = _CURRENT.get()
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return deco


@contextmanager
def use_tracer(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install ``tracer`` (default: a fresh one) for the enclosed block."""
    if tracer is None:
        tracer = Tracer()
    token = _CURRENT.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)
