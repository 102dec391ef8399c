"""E13 — scaling series: rounds vs n and vs λ (the Theorem 1 formula as data).

The paper's bound O((n log n)/δ + (k log n)/λ) makes two falsifiable
scaling predictions that the other experiments only probe pointwise:

* **vs n** (λ, group size fixed; k = 2n): both algorithms grow linearly in
  n here (D ∝ n on the thick cycle and k ∝ n), but with slopes separated by
  ≈ λ'/1 — the fast curve stays a constant factor below textbook at every
  n, i.e. the gap does not close as the network grows.
* **vs λ** (n fixed; k fixed): textbook is flat (it never looks at λ),
  while fast decreases ≈ 1/λ until the prologue/packing floor — the
  "connectivity buys bandwidth" claim itself.

**Backends.** E13c cross-checks the two backends on the largest config the
simulator can stomach — the phase ledgers must be identical and the
vectorized engine must be ≥ 10× faster wall-clock. E13a/E13b/E13d then run
on the vectorized backend, which is what lets E13d push to graph sizes the
simulator never reached — the series now ends at n = 10⁶, carried by
round accounting with no per-round loop (the certified round counts are the same
numbers; ``tests/test_engine_equivalence.py`` and
``tests/test_span_engine.py`` are the proof). Per-n wall clocks and the backend speedups are merged into
``BENCH_E13.json`` (:func:`benchmarks.conftest.write_bench_artifact`) so
the engine's perf trajectory is tracked across PRs.

Set ``E13_QUICK=1`` for the CI smoke: only the smallest config, both
backends, ledger equality asserted, no timing assertions.
"""

from __future__ import annotations

import os
import resource
import time

from benchmarks.conftest import run_once, trace_artifact_path, write_bench_artifact
from repro import obs
from repro.core import (
    build_packing_with_retry,
    fast_broadcast,
    num_parts,
    textbook_broadcast,
    uniform_random_placement,
)
from repro.graphs import thick_cycle
from repro.util.tables import Table


def _both_backends(groups: int, size: int, k: int, lam: int, seed: int):
    """Run textbook+fast on both backends; return ((text, fast), seconds) per
    backend and assert the certified ledgers are identical."""
    g = thick_cycle(groups, size)
    pl = uniform_random_placement(g.n, k, seed=seed)
    out = {}
    for backend in ("simulator", "vectorized"):
        t0 = time.perf_counter()
        text = textbook_broadcast(g, pl, backend=backend)
        fast = fast_broadcast(g, pl, lam=lam, C=1.5, seed=1, backend=backend)
        out[backend] = (text, fast, time.perf_counter() - t0)
    text_sim, fast_sim, _ = out["simulator"]
    text_vec, fast_vec, _ = out["vectorized"]
    assert text_sim.phases == text_vec.phases, "textbook ledgers diverged"
    assert fast_sim.phases == fast_vec.phases, "fast ledgers diverged"
    assert text_sim.max_congestion == text_vec.max_congestion
    assert fast_sim.max_congestion == fast_vec.max_congestion
    return out


def run_quick():
    """CI smoke: smallest config, both backends, ledgers must match."""
    out = _both_backends(groups=8, size=10, k=2 * 80, lam=20, seed=8)
    text, fast, _ = out["vectorized"]
    assert text.rounds / fast.rounds >= 1.5
    g = thick_cycle(8, 10)
    pl = uniform_random_placement(g.n, 2 * 80, seed=8)
    speedup = out["simulator"][2] / out["vectorized"][2]
    # Traced rerun: the phase breakdown lands in BENCH_E13.json (so
    # compare_bench can attribute a wall-clock regression to the phase
    # that moved) and the Chrome trace artifact goes to CI for the
    # `repro trace` schema smoke test. The ledger must not move.
    with obs.use_tracer() as tracer:
        traced = fast_broadcast(
            g, pl, lam=20, C=1.5, seed=1, backend="vectorized"
        )
    assert traced.phases == fast.phases, "tracing perturbed the ledger"
    tracer.write(trace_artifact_path())
    write_bench_artifact(
        "e13_quick",
        {"n": 80, "k": 160, "sim_seconds": round(out["simulator"][2], 4),
         "vec_seconds": round(out["vectorized"][2], 4),
         "speedup": round(speedup, 1),
         "vec_phases": {
             name: round(secs, 4)
             for name, secs in sorted(tracer.phase_totals().items())
         }},
    )
    return out


def run_experiment():
    # Series 1: n grows, λ = 20 fixed, k = 2n (vectorized backend).
    t1 = Table(
        ["n", "k", "textbook", "fast", "ratio"],
        title="E13a — rounds vs n (thick cycle, group=10, λ=20, k=2n)",
    )
    series1 = []
    for groups in (8, 16, 32):
        g = thick_cycle(groups, 10)
        k = 2 * g.n
        pl = uniform_random_placement(g.n, k, seed=groups)
        text = textbook_broadcast(g, pl, backend="vectorized")
        fast = fast_broadcast(g, pl, lam=20, C=1.5, seed=1, backend="vectorized")
        t1.add_row([g.n, k, text.rounds, fast.rounds,
                    round(text.rounds / fast.rounds, 2)])
        series1.append((g.n, text.rounds, fast.rounds))
    t1.print()

    # Shape: the speedup ratio is stable (does not collapse) as n grows.
    ratios = [t / f for _, t, f in series1]
    assert min(ratios) >= 1.5
    assert max(ratios) / min(ratios) <= 2.0

    # Series 2: n ≈ 192 fixed, λ sweeps via group size, k fixed.
    t2 = Table(
        ["n", "lam", "k", "textbook", "fast", "fast_pipeline"],
        title="E13b — rounds vs λ (n≈192 fixed, k=600)",
    )
    series2 = []
    k = 600
    for groups, size in ((48, 4), (24, 8), (12, 16), (8, 24)):
        g = thick_cycle(groups, size)
        lam = 2 * size
        pl = uniform_random_placement(g.n, k, seed=7)
        text = textbook_broadcast(g, pl, backend="vectorized")
        fast = fast_broadcast(g, pl, lam=lam, C=1.5, seed=2, backend="vectorized")
        t2.add_row([g.n, lam, k, text.rounds, fast.rounds,
                    fast.phases["pipeline"]])
        series2.append((lam, text.rounds, fast.rounds))
    t2.print()

    # Shape: fast rounds decrease monotonically in λ; the largest-λ point is
    # at least 2.5x cheaper than the smallest-λ point.
    fasts = [f for _, _, f in series2]
    assert all(a >= b for a, b in zip(fasts, fasts[1:])), fasts
    assert fasts[0] / fasts[-1] >= 2.5

    # Series 3: backend cross-check + wall-clock speedup on the largest
    # config E13a gives the simulator (n=320, k=640).
    t3 = Table(
        ["backend", "textbook_rounds", "fast_rounds", "seconds"],
        title="E13c — backend equivalence + speedup (n=320, k=640, λ=20)",
    )
    out = _both_backends(groups=32, size=10, k=640, lam=20, seed=32)
    for backend in ("simulator", "vectorized"):
        text, fast, secs = out[backend]
        t3.add_row([backend, text.rounds, fast.rounds, round(secs, 3)])
    t3.print()
    speedup = out["simulator"][2] / out["vectorized"][2]
    print(f"E13c vectorized speedup: {speedup:.1f}x")
    assert speedup >= 10.0, f"vectorized speedup only {speedup:.1f}x"
    write_bench_artifact(
        "e13c",
        {"n": 320, "k": 640, "sim_seconds": round(out["simulator"][2], 4),
         "vec_seconds": round(out["vectorized"][2], 4),
         "speedup": round(speedup, 1)},
    )

    # Series 4: vectorized-only scale-up to n = 10⁶ — sizes the simulator
    # never reached (the fast/textbook gap must persist, not collapse, at
    # scale). Per-n wall clocks land in BENCH_E13.json so the perf
    # trajectory of the engine itself is tracked across PRs. The last two
    # points exist because the pipeline has no per-round loop: per-round
    # stepping walked ~10⁵ rounds of numpy calls here, while the round
    # count is now one histogram of origin depths per tree.
    #
    # The n = 10⁵ wall-clock inversion and what fixing it means: before
    # spans, fast lost the point 16.0 s vs 9.0 s *despite* 3.6x fewer
    # certified rounds, because the engine stepped every round in Python
    # and fast's C channels multiplied the per-round work — a pure engine
    # artifact. Span stepping removes per-round iteration entirely, so
    # both pipelines are now graph-sweep-bound and the artifact is gone:
    # the asserts below pin fast to a small fraction of its old wall
    # clock. What wall-clock difference remains is real algorithmic work,
    # not engine overhead — fast additionally builds the λ′ tree packing
    # and runs C tree pipelines, a strict superset of textbook's passes —
    # so its end-to-end time stays *above* textbook's even as both
    # collapse. The paper's own cost model says how to read that: the
    # decomposition is input-independent preprocessing meant to be
    # amortized across broadcasts (Section 1; `fast_broadcast(packing=)`),
    # so the artifact also records the steady-state time with the packing
    # prebuilt, which is what a long-running system would pay per
    # broadcast.
    # Each row records the process's peak RSS (ru_maxrss, KiB on Linux).
    # The rows ascend in size and each row's objects are freed before the
    # next host is built, so that high-water mark is the row's own peak.
    t4 = Table(
        ["n", "lam", "k", "textbook", "fast", "ratio", "text_s", "fast_s",
         "pack_s", "steady_s", "peak_mb"],
        title="E13d — vectorized-only scale-up (k=2n, λ=2·size)",
    )
    series4 = []
    artifact = []
    for groups, size in ((64, 20), (128, 30), (192, 40), (500, 40),
                         (1250, 40), (2500, 40), (6250, 40), (25000, 40)):
        g = thick_cycle(groups, size)
        lam = 2 * size
        k = 2 * g.n
        pl = uniform_random_placement(g.n, k, seed=groups)
        t0 = time.perf_counter()
        text = textbook_broadcast(g, pl, backend="vectorized")
        t_text = time.perf_counter() - t0
        t0 = time.perf_counter()
        with obs.use_tracer() as tracer:
            fast = fast_broadcast(
                g, pl, lam=lam, C=1.5, seed=3, backend="vectorized"
            )
        t_fast = time.perf_counter() - t0
        fast_phases = {
            name: round(secs, 3)
            for name, secs in sorted(tracer.phase_totals().items())
        }
        # Steady-state split: rebuild the same packing fast_broadcast used
        # (leader is always node 0) and time the broadcast with it
        # prebuilt — the per-instance cost once the one-time decomposition
        # is amortized away.
        t0 = time.perf_counter()
        packing, _ = build_packing_with_retry(
            g, num_parts(lam, g.n, 1.5), 3, root=0, backend="vectorized"
        )
        t_pack = time.perf_counter() - t0
        t0 = time.perf_counter()
        steady = fast_broadcast(
            g, pl, lam=lam, C=1.5, seed=3, backend="vectorized",
            packing=packing,
        )
        t_steady = time.perf_counter() - t0
        assert steady.phases["pipeline"] == fast.phases["pipeline"]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        t4.add_row([g.n, lam, k, text.rounds, fast.rounds,
                    round(text.rounds / fast.rounds, 2),
                    round(t_text, 2), round(t_fast, 2),
                    round(t_pack, 2), round(t_steady, 2), round(peak_mb)])
        series4.append((g.n, text.rounds, fast.rounds))
        artifact.append({
            "n": g.n, "lam": lam, "k": k,
            "textbook_rounds": text.rounds, "fast_rounds": fast.rounds,
            "round_ratio": round(text.rounds / fast.rounds, 2),
            "textbook_seconds": round(t_text, 3),
            "fast_seconds": round(t_fast, 3),
            "packing_seconds": round(t_pack, 3),
            "fast_steady_seconds": round(t_steady, 3),
            "fast_phases": fast_phases,
            "peak_rss_mb": round(peak_mb, 1),
        })
        # The inversion gates: the old per-round engine took 16.0 s for
        # fast at n = 10⁵ (and would blow far past these bounds at 10⁶);
        # the span engine must stay well under half that at 10⁵ and reach
        # 10⁶ within 2x the *old* 10⁵ wall clock.
        if g.n == 100_000:
            assert t_fast <= 8.0, (
                f"n=1e5 inversion is back: fast took {t_fast:.1f}s "
                "(pre-span engine: 16.0s; span engine must stay under 8s)"
            )
        if g.n >= 1_000_000:
            # Single-core VMs show occasional multi-second scheduling
            # stalls that can double an otherwise-stable wall clock, so a
            # miss earns one re-measurement, which still pays the cold
            # packing build, and the retry must reproduce the original
            # ledger bit-for-bit (a genuine slowdown fails both attempts).
            if t_fast > 32.0:
                t0 = time.perf_counter()
                fast2 = fast_broadcast(
                    g, pl, lam=lam, C=1.5, seed=3, backend="vectorized"
                )
                retry = time.perf_counter() - t0
                assert fast2.phases == fast.phases
                t_fast = min(t_fast, retry)
            assert t_fast <= 32.0, (
                f"n=1e6 fast took {t_fast:.1f}s, over the 2x-of-old-1e5 "
                "budget (32s)"
            )
        # The next host is built with this row's host, packing and
        # results already freed.
        del g, pl, text, fast, tracer, packing, steady
    t4.print()
    assert all(t / f >= 2.0 for _, t, f in series4)
    assert series4[-1][0] >= 1_000_000, "scale-up series must reach n >= 1e6"
    write_bench_artifact("e13d", artifact)

    return series1, series2, series4


def test_e13_scaling(benchmark):
    if os.environ.get("E13_QUICK") == "1":
        run_once(benchmark, run_quick)
    else:
        run_once(benchmark, run_experiment)
