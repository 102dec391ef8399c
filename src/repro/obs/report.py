"""Loading and summarizing trace artifacts (``repro trace``).

Reads either artifact format the :class:`~repro.obs.tracer.Tracer` emits —
JSONL (``.jsonl``) or Chrome trace-event JSON — back into a uniform
``(spans, counters)`` shape, validates the schema, and renders the
per-phase attribution table plus the top counters. The loader is also the
schema smoke test CI runs against the E13 quick-mode trace artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.tracer import SpanRecord
from repro.util.errors import ValidationError

__all__ = ["PhaseStats", "TraceData", "format_report", "load_trace", "phase_stats"]


@dataclass
class TraceData:
    """One loaded trace: finished spans plus ``{name: (mode, value)}``."""

    spans: list[SpanRecord] = field(default_factory=list)
    counters: dict[str, tuple[str, int | float]] = field(default_factory=dict)

    @property
    def wall_clock(self) -> float:
        """End of the last span minus start of the first (seconds)."""
        if not self.spans:
            return 0.0
        start = min(rec.start for rec in self.spans)
        end = max(rec.start + rec.dur for rec in self.spans)
        return end - start


def _span_from_dict(rec: dict, where: str) -> SpanRecord:
    try:
        return SpanRecord(
            sid=int(rec["sid"]),
            parent=None if rec.get("parent") is None else int(rec["parent"]),
            depth=int(rec["depth"]),
            name=str(rec["name"]),
            start=float(rec["start"]),
            dur=float(rec["dur"]),
            rss_kb=int(rec.get("rss_kb", 0)),
            minflt=int(rec.get("minflt", 0)),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ValidationError(f"{where}: malformed span record {rec!r}") from err


def _load_jsonl(lines: list[str], where: str) -> TraceData:
    data = TraceData()
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValidationError(f"{where}:{i}: not JSON: {err}") from err
        kind = rec.get("type")
        if kind == "meta":
            continue
        if kind == "span":
            data.spans.append(_span_from_dict(rec, f"{where}:{i}"))
        elif kind == "counter":
            data.counters[str(rec["name"])] = (
                str(rec.get("mode", "sum")),
                rec["value"],
            )
        else:
            raise ValidationError(f"{where}:{i}: unknown record type {kind!r}")
    return data


def _load_chrome(payload: dict, where: str) -> TraceData:
    if not isinstance(payload, dict):
        raise ValidationError(f"{where}: not a Chrome trace object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValidationError(f"{where}: no traceEvents array — not a Chrome trace")
    data = TraceData()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValidationError(f"{where}: traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph == "X":
            args = ev.get("args") or {}
            data.spans.append(
                _span_from_dict(
                    {
                        "sid": args.get("sid", i),
                        "parent": args.get("parent"),
                        "depth": args.get("depth", 0),
                        "name": ev.get("name"),
                        "start": float(ev.get("ts", 0.0)) / 1e6,
                        "dur": float(ev.get("dur", 0.0)) / 1e6,
                        "rss_kb": args.get("rss_kb", 0),
                        "minflt": args.get("minflt", 0),
                    },
                    f"{where}: traceEvents[{i}]",
                )
            )
        elif ph == "C":
            name = str(ev.get("name"))
            args = ev.get("args") or {}
            if name not in args:
                raise ValidationError(
                    f"{where}: counter event {name!r} lacks its value"
                )
            data.counters[name] = (str(args.get("mode", "sum")), args[name])
    return data


def load_trace(path: str | Path) -> TraceData:
    """Load a trace artifact in either format (raises ``ValidationError``)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ValidationError(f"cannot read trace {path}: {err}") from err
    stripped = text.lstrip()
    if not stripped:
        raise ValidationError(f"{path}: empty trace file")
    if path.suffix == ".jsonl" or stripped.splitlines()[0].lstrip().startswith(
        '{"type"'
    ):
        return _load_jsonl(text.splitlines(), str(path))
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError(f"{path}: not JSON: {err}") from err
    return _load_chrome(payload, str(path))


@dataclass
class PhaseStats:
    """Aggregate of every span sharing one name."""

    name: str
    calls: int = 0
    total: float = 0.0  # summed durations (seconds)
    self_time: float = 0.0  # total minus direct children (seconds)
    rss_kb: int = 0  # summed peak-RSS deltas
    minflt: int = 0  # summed minor page faults


def phase_stats(data: TraceData) -> list[PhaseStats]:
    """Per-phase aggregation, sorted by total time descending.

    Self time subtracts each span's *direct* children from its own
    duration, so a parent phase that merely wraps instrumented subphases
    reports only its bookkeeping overhead as self time.
    """
    child_time: dict[int, float] = {}
    for rec in data.spans:
        if rec.parent is not None:
            child_time[rec.parent] = child_time.get(rec.parent, 0.0) + rec.dur
    stats: dict[str, PhaseStats] = {}
    for rec in data.spans:
        st = stats.setdefault(rec.name, PhaseStats(rec.name))
        st.calls += 1
        st.total += rec.dur
        st.self_time += rec.dur - child_time.get(rec.sid, 0.0)
        st.rss_kb += rec.rss_kb
        st.minflt += rec.minflt
    return sorted(stats.values(), key=lambda s: (-s.total, s.name))


def format_report(data: TraceData, top_counters: int = 20) -> str:
    """Human-readable per-phase table + top counters for ``repro trace``."""
    lines: list[str] = []
    wall = data.wall_clock
    lines.append(
        f"trace: {len(data.spans)} spans, {len(data.counters)} counters, "
        f"wall {wall:.4f}s"
    )
    stats = phase_stats(data)
    if stats:
        name_w = max(5, max(len(s.name) for s in stats))
        lines.append(
            f"{'phase':<{name_w}} {'calls':>6} {'total_s':>9} {'self_s':>9} "
            f"{'share':>6} {'rss_kb':>8} {'minflt':>8}"
        )
        for st in stats:
            share = st.total / wall if wall > 0 else 0.0
            lines.append(
                f"{st.name:<{name_w}} {st.calls:>6} {st.total:>9.4f} "
                f"{st.self_time:>9.4f} {share:>6.1%} {st.rss_kb:>8} {st.minflt:>8}"
            )
    if data.counters:
        lines.append("")
        lines.append("counters:")
        by_magnitude = sorted(
            data.counters.items(), key=lambda kv: (-abs(float(kv[1][1])), kv[0])
        )[:top_counters]
        name_w = max(7, max(len(name) for name, _ in by_magnitude))
        for name, (mode, value) in by_magnitude:
            shown = f"{value:.4f}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<{name_w}} {shown:>14}  ({mode})")
    return "\n".join(lines)
