"""Tests for the observability layer (:mod:`repro.obs`, ISSUE 10).

Four contracts:

* **Tracer semantics** — context-var scoping, span nesting (parent/depth),
  typed counters (sum vs max, mode fixed by first call) and the ``traced``
  decorator.
* **Artifacts** — JSONL and Chrome trace-event JSON both round-trip
  through :func:`repro.obs.load_trace`; ``repro trace`` renders them; the
  CLI ``--trace`` flag records any subcommand.
* **Transparency** — tracing is a pure observer: traced and untraced runs
  are bit-identical (forest, rounds, bits, receipts, fault RNG state) on
  both backends, property-tested over random graphs; the null tracer's
  overhead is bounded below 5% of an E13-quick-sized run.
* **Acceptance** — a traced ``fast_broadcast`` at n = 10⁴ emits valid
  Chrome JSON whose top-level phase spans sum to within 10% of the
  end-to-end wall clock.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main as cli_main
from repro.core import fast_broadcast, uniform_random_placement
from repro.engine.faults import faulty_bfs
from repro.engine.verify import random_fault_plan
from repro.graphs import Graph, thick_cycle
from repro.util.errors import ValidationError

BACKENDS = ("simulator", "vectorized")


# ---------------------------------------------------------------------- #
# tracer semantics
# ---------------------------------------------------------------------- #


class TestTracer:
    def test_null_tracer_is_the_default(self):
        assert obs.current() is None
        assert not obs.enabled()
        # span/count are no-ops, and the null span is a shared singleton.
        assert obs.span("a") is obs.span("b")
        with obs.span("phase"):
            obs.count("x", 5)
        assert obs.current() is None

    def test_use_tracer_scopes_and_restores(self):
        with obs.use_tracer() as tracer:
            assert obs.current() is tracer
            assert obs.enabled()
        assert obs.current() is None

    def test_span_nesting_records_parent_and_depth(self):
        with obs.use_tracer() as tracer:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
            with obs.span("outer"):
                pass
        by_name = {}
        for rec in tracer.spans:
            by_name.setdefault(rec.name, []).append(rec)
        outer0 = by_name["outer"][0]
        inner = by_name["inner"][0]
        assert outer0.parent is None and outer0.depth == 0
        assert inner.parent == outer0.sid and inner.depth == 1
        assert inner.start >= outer0.start
        assert inner.dur <= outer0.dur
        assert tracer.phase_totals()["outer"] == pytest.approx(
            sum(r.dur for r in by_name["outer"])
        )

    def test_counter_modes(self):
        with obs.use_tracer() as tracer:
            obs.count("calls")
            obs.count("calls", 3)
            obs.count("peak", 7, "max")
            obs.count("peak", 2, "max")
            obs.count("peak", 9, "max")
        assert tracer.counter_values() == {"calls": 4, "peak": 9}
        assert tracer.counters["calls"][0] == "sum"
        assert tracer.counters["peak"][0] == "max"

    def test_unknown_counter_mode_raises(self):
        with obs.use_tracer():
            with pytest.raises(ValueError, match="mode"):
                obs.count("x", 1, "median")

    def test_traced_decorator(self):
        @obs.traced("wrapped")
        def fn(a, b=0):
            return a + b

        assert fn(1, b=2) == 3  # untraced: plain passthrough
        with obs.use_tracer() as tracer:
            assert fn(4) == 4
        assert [r.name for r in tracer.spans] == ["wrapped"]
        assert fn.__name__ == "fn"


# ---------------------------------------------------------------------- #
# artifacts: JSONL + Chrome, load_trace, the report
# ---------------------------------------------------------------------- #


def _sample_tracer() -> obs.Tracer:
    with obs.use_tracer() as tracer:
        with obs.span("outer"):
            with obs.span("inner"):
                obs.count("events", 3)
            obs.count("depth", 11, "max")
    return tracer


class TestArtifacts:
    def test_jsonl_roundtrip(self, tmp_path):
        tracer = _sample_tracer()
        path = tracer.write(tmp_path / "t.jsonl")
        first = json.loads(path.read_text().splitlines()[0])
        assert first["type"] == "meta" and first["format"] == "repro-trace"
        data = obs.load_trace(path)
        assert [s.name for s in data.spans] == ["inner", "outer"]
        assert data.counters == {"depth": ("max", 11), "events": ("sum", 3)}

    def test_chrome_roundtrip(self, tmp_path):
        tracer = _sample_tracer()
        path = tracer.write(tmp_path / "t.json")
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        phases = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert phases == {"outer", "inner"}
        data = obs.load_trace(path)
        ref = obs.load_trace(tracer.write(tmp_path / "t.jsonl"))
        assert data.counters == ref.counters
        for got, want in zip(data.spans, ref.spans):
            assert got.name == want.name and got.depth == want.depth
            assert got.dur == pytest.approx(want.dur, abs=1e-6)

    def test_phase_stats_self_time_subtracts_children(self):
        tracer = _sample_tracer()
        data = obs.TraceData(
            spans=list(tracer.spans), counters=dict(tracer.counters)
        )
        stats = {s.name: s for s in obs.phase_stats(data)}
        inner, outer = stats["inner"], stats["outer"]
        assert outer.self_time == pytest.approx(outer.total - inner.total)
        assert inner.self_time == pytest.approx(inner.total)

    def test_format_report_lists_phases_and_counters(self):
        tracer = _sample_tracer()
        data = obs.TraceData(
            spans=list(tracer.spans), counters=dict(tracer.counters)
        )
        text = obs.format_report(data)
        assert "outer" in text and "inner" in text
        assert "events" in text and "(max)" in text

    def test_minor_faults_recorded_and_round_tripped(self, tmp_path):
        """A span that touches fresh memory records the minor page faults it
        took, beside its peak-RSS delta, and both artifact formats and the
        ``repro trace`` table carry the count."""
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            with obs.span("touch"):
                np.ones(1 << 22)  # 32 MB of fresh pages
        (rec,) = tracer.spans
        assert rec.minflt > 0
        for name in ("t.jsonl", "t.json"):
            (back,) = obs.load_trace(tracer.write(tmp_path / name)).spans
            assert back.minflt == rec.minflt
        text = obs.format_report(obs.TraceData(spans=[rec]))
        header, row = text.splitlines()[1:3]
        assert header.split()[-1] == "minflt" and row.split()[-1] == str(rec.minflt)

    def test_load_trace_rejects_junk(self, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("not json at all")
        with pytest.raises(ValidationError):
            obs.load_trace(bad)
        with pytest.raises(ValidationError):
            obs.load_trace(tmp_path / "absent.json")


class TestCLISurfaces:
    def test_trace_flag_records_any_subcommand(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        rc = cli_main(
            ["broadcast", "thick:groups=6,size=3", "-k", "6",
             "--backend", "vectorized", "--trace", str(out)]
        )
        assert rc == 0
        assert "total rounds" in capsys.readouterr().out
        data = obs.load_trace(out)
        names = {s.name for s in data.spans}
        assert "fast_broadcast" in names

    def test_trace_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert cli_main(
            ["broadcast", "thick:groups=6,size=3", "-k", "6",
             "--backend", "simulator", "--trace", str(out)]
        ) == 0
        capsys.readouterr()
        assert cli_main(["trace", str(out), "--top", "5"]) == 0
        report = capsys.readouterr().out
        assert "fast_broadcast" in report
        assert "simulate.rounds" in report

    def test_trace_report_on_junk_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert cli_main(["trace", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# transparency: tracing observes, never perturbs
# ---------------------------------------------------------------------- #


@st.composite
def small_connected_graphs(draw, min_n=3, max_n=10):
    n = draw(st.integers(min_n, max_n))
    perm = draw(st.permutations(range(n)))
    edges = set()
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        a, b = perm[i], perm[j]
        edges.add((min(a, b), max(a, b)))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges.update(draw(st.lists(st.sampled_from(all_pairs), max_size=2 * n)))
    return Graph(n, sorted(edges))


class TestTransparency:
    @given(small_connected_graphs(), st.integers(0, 10_000))
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_traced_faulty_bfs_bit_identical(self, g, seed):
        plan = random_fault_plan(g, seed=seed, rate=0.3)
        for backend in BACKENDS:
            plain = faulty_bfs(
                g, 0, plan=plan, fault_seed=seed, backend=backend
            )
            with obs.use_tracer():
                traced = faulty_bfs(
                    g, 0, plan=plan, fault_seed=seed, backend=backend
                )
            assert np.array_equal(plain.result.parent, traced.result.parent)
            assert np.array_equal(plain.result.dist, traced.result.dist)
            assert plain.result.rounds == traced.result.rounds
            assert plain.result.children == traced.result.children
            assert plain.dropped == traced.dropped
            assert plain.fault_rng_state == traced.fault_rng_state

    @given(st.integers(0, 10_000))
    @settings(
        max_examples=5, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_traced_broadcast_ledger_identical(self, seed):
        g = thick_cycle(5, 3)
        pl = uniform_random_placement(g.n, 8, seed=seed)
        for backend in BACKENDS:
            plain = fast_broadcast(g, pl, seed=seed, backend=backend)
            with obs.use_tracer():
                traced = fast_broadcast(g, pl, seed=seed, backend=backend)
            assert plain.phases == traced.phases
            assert plain.rounds == traced.rounds
            assert plain.max_congestion == traced.max_congestion

    def test_traced_redundant_broadcast_receipts_and_bits(self):
        from repro.core import build_packing_with_retry
        from repro.core.resilient import redundant_broadcast

        g = thick_cycle(6, 3)
        pl = uniform_random_placement(g.n, 10, seed=4)
        packing, _ = build_packing_with_retry(g, 2, seed=4, distributed=False)
        for backend in BACKENDS:
            kwargs = dict(
                redundancy=2, drop_rate=0.3, seed=4, fault_seed=9,
                backend=backend, collect_receipts=True,
            )
            plain = redundant_broadcast(g, pl, packing, **kwargs)
            with obs.use_tracer():
                traced = redundant_broadcast(g, pl, packing, **kwargs)
            assert plain.receipts == traced.receipts
            assert plain.per_message_coverage == traced.per_message_coverage
            assert plain.total_bits == traced.total_bits
            assert plain.dropped_messages == traced.dropped_messages
            assert plain.fault_rng_state == traced.fault_rng_state


class _CountingTracer(obs.Tracer):
    """Tracer that tallies how often the instrumentation surface is hit."""

    def __init__(self):
        super().__init__()
        self.span_calls = 0
        self.count_calls = 0

    def span(self, name):
        self.span_calls += 1
        return super().span(name)

    def count(self, name, value=1, mode="sum"):
        self.count_calls += 1
        super().count(name, value, mode)


class TestNullOverheadBudget:
    def test_null_tracer_costs_under_five_percent(self):
        """The untraced fast paths, exercised exactly as often as an
        E13-quick run exercises them, must cost < 5% of its wall clock."""
        g = thick_cycle(8, 10)
        pl = uniform_random_placement(g.n, 160, seed=8)

        t0 = time.perf_counter()
        fast_broadcast(g, pl, lam=20, C=1.5, seed=1, backend="simulator")
        run_secs = time.perf_counter() - t0

        tracer = _CountingTracer()
        with obs.use_tracer(tracer):
            fast_broadcast(g, pl, lam=20, C=1.5, seed=1, backend="simulator")
        assert tracer.span_calls and tracer.count_calls

        t0 = time.perf_counter()
        for _ in range(tracer.span_calls):
            with obs.span("x"):
                pass
        for _ in range(tracer.count_calls):
            obs.count("x", 1)
        null_secs = time.perf_counter() - t0
        assert null_secs < 0.05 * run_secs, (
            f"null tracer cost {null_secs:.4f}s for {tracer.span_calls} "
            f"spans + {tracer.count_calls} counts vs {run_secs:.4f}s run "
            f"({100 * null_secs / run_secs:.1f}%)"
        )


# ---------------------------------------------------------------------- #
# acceptance: n = 10^4 traced fast_broadcast
# ---------------------------------------------------------------------- #


class TestAcceptance:
    def test_traced_fast_broadcast_1e4_phase_coverage(self, tmp_path):
        g = thick_cycle(250, 40)  # n = 10^4, lam = 80
        assert g.n == 10_000
        pl = uniform_random_placement(g.n, 2 * g.n, seed=5)

        t0 = time.perf_counter()
        with obs.use_tracer() as tracer:
            res = fast_broadcast(
                g, pl, lam=80, C=1.5, seed=5, backend="vectorized"
            )
        wall = time.perf_counter() - t0
        assert res.rounds > 0

        path = tracer.write(tmp_path / "e2e.json")
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert {"fast_broadcast", "elect", "global_bfs",
                "tree_packing", "pipeline", "upcast"} <= names

        # The root span plus everything at depth 1 under it must explain
        # the end-to-end wall clock to within 10%.
        root = next(e for e in spans if e["name"] == "fast_broadcast")
        child_us = sum(
            e["dur"] for e in spans
            if e["args"]["parent"] == root["args"]["sid"]
        )
        assert child_us <= root["dur"] * 1.001
        assert root["dur"] >= 0.9 * wall * 1e6, (
            f"root span covers {root['dur'] / (wall * 1e6):.0%} of wall"
        )
        assert child_us >= 0.9 * wall * 1e6, (
            f"phase spans cover {child_us / (wall * 1e6):.0%} of wall"
        )
        # And it is Perfetto-loadable in shape: counters present, ts/dur µs.
        assert any(e["ph"] == "C" for e in events)
        assert all("ts" in e for e in events)
