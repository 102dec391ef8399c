"""Shared helpers for the experiment benchmarks (E1–E12, DESIGN.md §5).

Every benchmark:

1. runs one full experiment sweep exactly once (``benchmark.pedantic`` with
   a single round — the sweeps are minutes-scale, statistical timing noise
   is irrelevant next to the *measured round counts*, which are exact),
2. prints its table in the fixed layout EXPERIMENTS.md quotes,
3. **asserts the paper-shape** (who wins, scaling direction, approximation
   envelope) so a regression in any algorithm fails the bench run loudly.

Perf-tracking benchmarks (E6, E8, E13) additionally merge their wall-clock
and backend-speedup numbers into ``BENCH_E13.json`` via
:func:`write_bench_artifact`; CI uploads the file so the perf trajectory is
comparable across PRs. E6 and E8 time each backend with
:func:`median_seconds`.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from repro.engine.verify import diff


def median_seconds(call):
    """``(result, seconds)``: what ``call()`` returns and the median wall
    clock of five calls.

    One call of a few milliseconds swings with host noise, so a speedup
    floor on single-shot timings flakes; the median of five is a
    measurement. Every call must return the same result (compared field
    by field with :func:`repro.engine.verify.diff`), so each timing covers
    the same work.
    """
    results, seconds = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        results.append(call())
        seconds.append(time.perf_counter() - t0)
    for again in results[1:]:
        mismatch = diff(results[0], again, "repeat")
        assert not mismatch, f"repeated call changed its result: {mismatch[:3]}"
    return results[0], statistics.median(seconds)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def bench_artifact_path() -> Path:
    """Where the machine-readable perf artifact lives (repo root by default;
    override with ``BENCH_E13_PATH``)."""
    env = os.environ.get("BENCH_E13_PATH")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "BENCH_E13.json"


def trace_artifact_path() -> Path:
    """Where the E13 quick-smoke trace artifact lives (repo root by default;
    override with ``TRACE_E13_PATH``). CI uploads it and runs
    ``repro trace`` on it as a schema smoke test."""
    env = os.environ.get("TRACE_E13_PATH")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "TRACE_E13_QUICK.json"


def write_bench_artifact(section: str, payload) -> Path:
    """Merge one benchmark's ``payload`` under ``section`` in BENCH_E13.json.

    Read-modify-write so E6, E8, and E13 can each contribute their own
    section regardless of execution order; returns the path written.
    """
    path = bench_artifact_path()
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}  # a torn artifact from an interrupted run: start over
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path
