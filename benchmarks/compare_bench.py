#!/usr/bin/env python
"""Cross-PR perf regression gate over BENCH_E13.json (ROADMAP open item).

Usage::

    python benchmarks/compare_bench.py --old prev/BENCH_E13.json \
        [--new BENCH_E13.json] [--threshold 2.0] [--min-seconds 0.05]

Walks both artifacts, collects every numeric leaf whose key ends in
``seconds`` (the wall clocks E6/E8/E13/E16/E17 record), and fails (exit 1)
when the current value exceeds ``threshold ×`` the previous one for any
pipeline measured in both files. Leaves whose key ends in ``_mb`` (peak
memory, such as E13d's per-row ``peak_rss_mb``) gate the same way: the
build fails when the current figure exceeds ``threshold ×`` the previous
one. Leaves whose key ends in ``qps`` (queries/sec — the E18
batched-throughput floor) gate in the opposite direction: the build fails
when the current throughput drops below ``old / threshold``. Every
phase of a ``*phases`` breakdown gates on its own, like a wall clock: a
phase that doubles fails the build even when the total it sits under
stays flat, because another phase got faster. Timings that grow by less
than ``--min-seconds`` are skipped — at the sub-50 ms scale a 2×
"regression" is scheduler noise, not a pipeline change.
Metrics present in only one artifact are one-sided: sections the previous
PR didn't measure are "new", sections this PR no longer measures are
"retired" — both are notices, never gate failures, so the first PR adding
(or removing) a bench surface passes the gate.

A missing ``--old`` file exits 0 with a notice: the first PR after the gate
lands, and any PR whose CI cannot fetch the previous artifact, should not
fail on bootstrap. CI wires this after downloading the prior run's
``bench-e13-*`` artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


_IDENTITY_KEYS = ("scenario", "budget", "batch", "n", "k", "lam", "redundancy")


def _entry_label(value, index: int) -> str:
    """Stable label for a list entry: identifying fields when present, so
    reordering/inserting benchmark rows across PRs never pairs up timings
    of *different* scenarios; positional index only as a last resort."""
    if isinstance(value, dict):
        ident = [
            f"{key}={value[key]}"
            for key in _IDENTITY_KEYS
            if isinstance(value.get(key), (str, int))
        ]
        if ident:
            return f"[{','.join(ident)}]"
    return f"[{index}]"


def _walk_suffix(node, suffix: str, prefix: str = "") -> dict[str, float]:
    out: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (int, float)) and str(key).endswith(suffix):
                out[path] = float(value)
            else:
                out.update(_walk_suffix(value, suffix, path))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.update(
                _walk_suffix(value, suffix, f"{prefix}{_entry_label(value, i)}")
            )
    return out


def walk_seconds(node, prefix: str = "") -> dict[str, float]:
    """Flatten ``{path: value}`` for every numeric leaf keyed ``*seconds``."""
    return _walk_suffix(node, "seconds", prefix)


def walk_qps(node, prefix: str = "") -> dict[str, float]:
    """Flatten ``{path: value}`` for every numeric leaf keyed ``*qps``."""
    return _walk_suffix(node, "qps", prefix)


def walk_mb(node, prefix: str = "") -> dict[str, float]:
    """Flatten ``{path: value}`` for every numeric leaf keyed ``*_mb``."""
    return _walk_suffix(node, "_mb", prefix)


def walk_phases(node, prefix: str = "") -> dict[str, dict[str, float]]:
    """Flatten ``{path: {phase: seconds}}`` for every dict keyed ``*phases``.

    These are the per-phase breakdowns the traced benchmarks record next
    to their wall clocks (e.g. ``e13_quick.vec_phases`` beside
    ``e13_quick.vec_seconds``) — the data :func:`attribute` uses to name
    the phase behind a regression.
    """
    out: dict[str, dict[str, float]] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if (
                str(key).endswith("phases")
                and isinstance(value, dict)
                and value
                and all(isinstance(v, (int, float)) for v in value.values())
            ):
                out[path] = {str(k): float(v) for k, v in value.items()}
            else:
                out.update(walk_phases(value, path))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.update(walk_phases(value, f"{prefix}{_entry_label(value, i)}"))
    return out


def attribute(
    path: str,
    old_phases: dict[str, dict[str, float]],
    new_phases: dict[str, dict[str, float]],
) -> str | None:
    """Name the phase that moved most behind the regressed timing at ``path``.

    Looks for a sibling ``*phases`` breakdown (same parent object,
    preferring one whose key shares the timing's stem: ``fast_seconds`` →
    ``fast_phases``) present in both artifacts, and reports the phase with
    the largest absolute wall-clock growth. Returns ``None`` when no
    breakdown is recorded on both sides.
    """
    parent, _, leaf = path.rpartition(".")
    stem = leaf[: -len("seconds")].rstrip("_")
    candidates = [
        p for p in new_phases
        if p in old_phases and p.rpartition(".")[0] == parent
    ]
    if not candidates:
        return None
    preferred = [
        p for p in candidates
        if stem and p.rpartition(".")[2].startswith(stem)
    ]
    ppath = sorted(preferred or candidates)[0]
    old_p, new_p = old_phases[ppath], new_phases[ppath]
    movers = [
        (new_p[name] - old_p[name], name)
        for name in old_p
        if name in new_p
    ]
    if not movers:
        return None
    delta, name = max(movers)
    if delta <= 0:
        return f"no recorded phase grew ({ppath})"
    return (
        f"phase '{name}' moved most: "
        f"{old_p[name]:.3f}s -> {new_p[name]:.3f}s (+{delta:.3f}s)"
    )


def compare(
    old: dict, new: dict, threshold: float, min_seconds: float
) -> tuple[list[str], list[str]]:
    """Returns (regressions, notes); regressions non-empty = gate fails."""
    old_secs = walk_seconds(old)
    new_secs = walk_seconds(new)
    old_phases = walk_phases(old)
    new_phases = walk_phases(new)
    regressions: list[str] = []
    notes: list[str] = []
    for path, before in sorted(old_secs.items()):
        after = new_secs.get(path)
        if after is None:
            notes.append(f"retired: {path} (was {before:.3f}s)")
            continue
        # A regression must clear the ratio gate AND grow by a real absolute
        # amount — sub-min_seconds deltas on tiny timings are scheduler
        # noise, but a tiny timing blowing up past the floor still fails.
        if (after - before) < min_seconds:
            continue
        if after > threshold * max(before, 1e-9):
            line = (
                f"{path}: {before:.3f}s -> {after:.3f}s "
                f"({after / max(before, 1e-9):.1f}x > {threshold:.1f}x gate)"
            )
            blame = attribute(path, old_phases, new_phases)
            if blame:
                line += f" — {blame}"
            regressions.append(line)
    for path in sorted(set(new_secs) - set(old_secs)):
        notes.append(f"new: {path} = {new_secs[path]:.3f}s")
    # Phases gate on their own: a total can hide a phase that doubled.
    for path, old_p in sorted(old_phases.items()):
        new_p = new_phases.get(path, {})
        for name, before in sorted(old_p.items()):
            after = new_p.get(name)
            if after is None or after - before < min_seconds:
                continue
            if after > threshold * max(before, 1e-9):
                regressions.append(
                    f"{path}[{name}]: {before:.3f}s -> {after:.3f}s "
                    f"({after / max(before, 1e-9):.1f}x > {threshold:.1f}x gate)"
                )
    # Throughput floor: *qps leaves gate downward — batching machinery that
    # silently degrades to per-query speed is exactly what this catches.
    for path, before, after in _paired(walk_qps(old), walk_qps(new), "q/s", notes):
        if after * threshold < before:
            regressions.append(
                f"{path}: {before:.1f} q/s -> {after:.1f} q/s "
                f"({before / max(after, 1e-9):.1f}x slower > "
                f"{threshold:.1f}x gate)"
            )
    # Peak memory: *_mb leaves gate upward, like the wall clocks.
    for path, before, after in _paired(walk_mb(old), walk_mb(new), "MB", notes):
        if after > threshold * max(before, 1e-9):
            regressions.append(
                f"{path}: {before:.1f} MB -> {after:.1f} MB "
                f"({after / max(before, 1e-9):.1f}x > {threshold:.1f}x gate)"
            )
    return regressions, notes


def _paired(old: dict[str, float], new: dict[str, float], unit: str, notes: list[str]):
    """Yield ``(path, before, after)`` for each leaf in both artifacts; a
    leaf in only one becomes a "retired" or "new" note."""
    for path, before in sorted(old.items()):
        if path in new:
            yield path, before, new[path]
        else:
            notes.append(f"retired: {path} (was {before:.1f} {unit})")
    for path in sorted(set(new) - set(old)):
        notes.append(f"new: {path} = {new[path]:.1f} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--old", required=True, help="previous CI artifact")
    parser.add_argument(
        "--new",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_E13.json"),
        help="current artifact (default: repo BENCH_E13.json)",
    )
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="fail when new > threshold * old (default 2.0)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="ignore regressions growing less than this "
                        "many absolute seconds (noise floor)")
    args = parser.parse_args(argv)

    old_path, new_path = Path(args.old), Path(args.new)
    if not old_path.exists():
        print(f"compare_bench: no previous artifact at {old_path}; skipping gate")
        return 0
    if not new_path.exists():
        print(f"compare_bench: current artifact {new_path} missing", file=sys.stderr)
        return 1
    try:
        old = json.loads(old_path.read_text())
    except json.JSONDecodeError:
        print(f"compare_bench: previous artifact {old_path} unreadable; skipping gate")
        return 0
    new = json.loads(new_path.read_text())

    regressions, notes = compare(old, new, args.threshold, args.min_seconds)
    for note in notes:
        print(f"  note  {note}")
    if regressions:
        print(f"compare_bench: {len(regressions)} regression(s):")
        for reg in regressions:
            print(f"  FAIL  {reg}")
        return 1
    print(
        f"compare_bench: ok — {len(walk_seconds(new))} timings, "
        f"{len(walk_qps(new))} throughputs and {len(walk_mb(new))} peak "
        f"memory figures, none beyond {args.threshold:.1f}x of the previous "
        "artifact"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
