"""Observability: phase-scoped tracing and typed counters.

Instrumentation sites import this package and write::

    from repro import obs

    with obs.span("tree_packing"):
        ...
    obs.count("kernels.gather_layers")                     # sum (default)
    obs.count("simulate.active_peak", len(active), "max")  # keep the peak

With no tracer installed (the default), :func:`span` returns a shared
no-op context manager and :func:`count` returns immediately — one
context-var read each — so instrumented code is bit-identical to, and
within noise of, uninstrumented code. :func:`use_tracer` installs a
:class:`Tracer` for a dynamic extent; :func:`enabled` gates computing
*expensive* counter values.

Artifacts and reporting live in :mod:`repro.obs.tracer` (JSONL +
Chrome-trace writers) and :mod:`repro.obs.report` (``repro trace``).
"""

from repro.obs.report import TraceData, format_report, load_trace, phase_stats
from repro.obs.tracer import (
    COUNTER_MODES,
    SpanRecord,
    Tracer,
    count,
    current,
    enabled,
    span,
    traced,
    use_tracer,
)

__all__ = [
    "COUNTER_MODES",
    "SpanRecord",
    "TraceData",
    "Tracer",
    "count",
    "current",
    "enabled",
    "format_report",
    "load_trace",
    "phase_stats",
    "span",
    "traced",
    "use_tracer",
]
