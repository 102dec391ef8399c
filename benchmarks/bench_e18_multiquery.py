"""E18 — multi-query frontier planes: one sweep, thousands of queries.

E16/E17 evaluate (scenario × defense × seed) grids; run one query at a
time, every cell pays per-call CSR builds and, on deep hosts, thousands
of tiny per-layer numpy dispatches. :func:`repro.engine.plane.plane_sweep`
runs the distinct roots of a whole grid as one call of the BFS layer loop
over flat (query, node) keys (:func:`repro.engine.faults.faulty_bfs_grid`),
with every element bit-identical to its standalone call — forest, rounds,
drop count, and fault RNG state.

* **E18a — acceptance grid at n = 10⁴**: a 64-root × 4-fault-seed
  E16-style grid (256 queries) under a static dead-edge plan on a *deep*
  host (thick_cycle(2500, 4), D ≈ 1250 — the per-layer-overhead regime
  the plane amortizes). The batched grid must match the loop of single
  calls element-wise bit-identically and run ≥ 10× faster.
* **E18b — queries/sec curve at n = 10⁵**: batch sizes 1 → 10⁴ (roots
  cycling through at most 256 distinct values, one fault seed per query —
  the seed axis of a scenario grid). Throughput must grow with batch
  size; the top-of-curve ``batched_qps`` feeds the ``compare_bench``
  throughput floor so a >2× batched-throughput regression fails CI.
  Queries sharing a root share one BFS, so each row also records
  ``distinct`` roots and ``distinct_sweeps_qps`` (distinct / seconds), the
  rate of BFS sweeps actually run; the top row's value is gated as
  ``e18b.distinct_sweeps_qps``.

Bit-identity is certified twice: element-wise in E18a here, and by the
``check_bfs_batch`` / ``check_fault_grid`` checks that
``repro.engine.verify`` now runs in every sweep (a deterministic anchor
of each also runs below).

Set ``E18_QUICK=1`` for the CI smoke: a small host, grid vs loop on both
backends, bit-identity asserted, no timing assertions.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import run_once, write_bench_artifact
from repro.congest.adversary import FaultPlan
from repro.engine.faults import faulty_bfs, faulty_bfs_grid
from repro.engine.verify import check_bfs_batch, check_fault_grid
from repro.graphs import thick_cycle
from repro.util.rng import rng_from_seed
from repro.util.tables import Table


def _grid_queries(n: int, queries: int, distinct_roots: int, seed: int):
    """(root, fault_seed) pairs cycling through ``distinct_roots`` roots —
    the shape of a scenario grid's seed axis. Distinct roots are spread
    uniformly over the node range so plane rows differ in depth."""
    rng = rng_from_seed(seed)
    pool = np.linspace(0, n - 1, num=distinct_roots, dtype=np.int64)
    roots = [int(pool[i % distinct_roots]) for i in range(queries)]
    fault_seeds = [int(s) for s in rng.integers(0, 1 << 16, size=queries)]
    return roots, fault_seeds


def _dead_plan(graph, every: int = 97) -> FaultPlan:
    """A static dead-edge scenario (every ``every``-th edge id): the
    coin-free regime the plane path collapses to one sweep."""
    return FaultPlan(dead_edges=range(0, graph.m, every))


def _assert_bit_identical(grid, loop):
    assert len(grid) == len(loop)
    for i, (a, b) in enumerate(zip(grid, loop)):
        assert np.array_equal(a.result.parent, b.result.parent), f"parent[{i}]"
        assert np.array_equal(a.result.dist, b.result.dist), f"dist[{i}]"
        assert a.result.rounds == b.result.rounds, f"rounds[{i}]"
        assert a.result.children == b.result.children, f"children[{i}]"
        assert a.dropped == b.dropped, f"dropped[{i}]"
        assert a.fault_rng_state == b.fault_rng_state, f"rng[{i}]"


def run_quick():
    """CI smoke: small host, grid == loop on both backends."""
    g = thick_cycle(12, 4)
    plan = _dead_plan(g, every=11)
    roots, fault_seeds = _grid_queries(g.n, queries=32, distinct_roots=8, seed=4)
    out = {}
    for backend in ("simulator", "vectorized"):
        t0 = time.perf_counter()
        grid = faulty_bfs_grid(
            g, roots, plan=plan, fault_seeds=fault_seeds, backend=backend
        )
        secs = time.perf_counter() - t0
        loop = [
            faulty_bfs(g, r, plan=plan, fault_seed=s, backend=backend)
            for r, s in zip(roots, fault_seeds)
        ]
        _assert_bit_identical(grid, loop)
        out[backend] = secs
    assert check_bfs_batch(g, roots[:6]) == []
    write_bench_artifact(
        "e18_quick",
        {
            "n": g.n,
            "queries": len(roots),
            "sim_seconds": round(out["simulator"], 4),
            "vec_seconds": round(out["vectorized"], 4),
        },
    )
    return out


def run_experiment():
    artifact: dict[str, object] = {}

    # ---- E18a: acceptance grid at n = 10⁴ (deep host) -------------------- #
    g = thick_cycle(2500, 4)
    n = g.n
    assert n >= 10_000
    plan = _dead_plan(g)
    roots, fault_seeds = _grid_queries(n, queries=256, distinct_roots=64, seed=2)

    t0 = time.perf_counter()
    loop = [
        faulty_bfs(g, r, plan=plan, fault_seed=s, backend="vectorized")
        for r, s in zip(roots, fault_seeds)
    ]
    loop_secs = time.perf_counter() - t0

    t0 = time.perf_counter()
    grid = faulty_bfs_grid(g, roots, plan=plan, fault_seeds=fault_seeds)
    grid_secs = time.perf_counter() - t0

    _assert_bit_identical(grid, loop)
    speedup = loop_secs / grid_secs
    print(
        f"E18a — {len(roots)} (root, seed) queries at n={n} (D≈{2500 // 2}): "
        f"loop {loop_secs:.2f}s, plane {grid_secs:.3f}s — {speedup:.0f}x, "
        f"bit-identical"
    )
    assert speedup >= 10.0, f"plane only {speedup:.1f}x over the query loop"
    # The same contract, certified by the verify checks the sweep runs.
    assert check_bfs_batch(g, roots[:4]) == []
    assert check_fault_grid(thick_cycle(5, 4), 6, seed=3, parts=2) == []
    artifact["e18a"] = {
        "n": n,
        "queries": len(roots),
        "distinct_roots": 64,
        "loop_seconds": round(loop_secs, 3),
        "grid_seconds": round(grid_secs, 3),
        "speedup": round(speedup, 1),
        "grid_qps": round(len(roots) / grid_secs, 1),
    }

    # ---- E18b: queries/sec vs batch size at n = 10⁵ ---------------------- #
    gb = thick_cycle(12_500, 8)
    assert gb.n >= 100_000
    plan_b = _dead_plan(gb)
    tb = Table(
        ["batch", "distinct", "seconds", "queries/sec", "sweeps/sec"],
        title=f"E18b — plane throughput vs batch size (n={gb.n})",
    )
    rows = []
    for batch in (1, 10, 100, 1_000, 10_000):
        distinct = min(batch, 256)
        roots_b, seeds_b = _grid_queries(
            gb.n, queries=batch, distinct_roots=distinct, seed=8
        )
        t0 = time.perf_counter()
        res = faulty_bfs_grid(gb, roots_b, plan=plan_b, fault_seeds=seeds_b)
        secs = time.perf_counter() - t0
        assert len(res) == batch
        qps = batch / secs
        tb.add_row([batch, distinct, round(secs, 3), round(qps, 1),
                    round(distinct / secs, 1)])
        rows.append({"batch": batch, "distinct": distinct,
                     "seconds": round(secs, 3), "qps": round(qps, 1),
                     "distinct_sweeps_qps": round(distinct / secs, 1)})
        del res
    tb.print()
    # Shape: batching must buy at least an order of magnitude of throughput.
    assert rows[-1]["qps"] > 10 * rows[0]["qps"], rows
    artifact["e18b"] = {
        "n": gb.n,
        "curve": rows,
        "batched_qps": rows[-1]["qps"],
        "distinct_sweeps_qps": rows[-1]["distinct_sweeps_qps"],
    }

    write_bench_artifact("e18", artifact)
    return artifact


def test_e18_multiquery(benchmark):
    if os.environ.get("E18_QUICK") == "1":
        run_once(benchmark, run_quick)
    else:
        run_once(benchmark, run_experiment)
