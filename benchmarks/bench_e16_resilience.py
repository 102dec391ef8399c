"""E16 — resilience at scale: coverage vs redundancy vs adversary budget.

The Section 1.2 story (tree packings feed the Fischer–Parter resilient
compilers) was previously demonstrated only at simulator scale (n ≈ 100,
``tests/test_resilience.py``). The fault-aware vectorized engine
(:mod:`repro.engine.faults`) replays the same executions — bit-identical
receipts, drops, rounds, and fault RNG stream — at four orders of magnitude
more nodes, which opens the scenario-diversity axis:

* **E16a — adversary sweep at n = 10⁴**: every scenario class of
  :mod:`repro.congest.adversary` × redundancy r ∈ {1, 2}, evaluated as ONE
  :func:`repro.core.resilient.evaluate_fault_grid` call (the PR 9 query
  plane: numbering, tree views, and redundancy splits hoisted out of the
  per-cell loop) and cross-checked bit-identically against the looped
  :func:`redundant_broadcast` calls it replaces; the ``core.resilient``
  coverage separation (r = 1 loses exactly the sabotaged tree's k/parts
  messages, r = 2 recovers everything) must reproduce at this scale.
* **E16b — budget sweep**: min-coverage as a function of the mobile
  adversary's per-round edge budget and redundancy — the redundancy/budget
  trade-off surface, again one fault-grid call over all 9 cells.
* **E16c — backend cross-check at n = 10⁴**: one scenario run on both
  backends; reports must be identical and the vectorized engine ≥ 20×
  faster wall-clock.
* **E16d — vectorized-only scale-up to n = 10⁵**: the separation again, at
  a size the simulator never reached.

Wall clocks and speedups are merged into ``BENCH_E13.json``
(:func:`benchmarks.conftest.write_bench_artifact`); CI uploads the file and
``benchmarks/compare_bench.py`` gates cross-PR regressions.

Set ``E16_QUICK=1`` for the CI smoke: a small host, both backends, report
equality and the coverage separation asserted, no timing assertions.
"""

from __future__ import annotations

import dataclasses
import os
import time

from benchmarks.conftest import run_once, write_bench_artifact
from repro.congest import MobileAdversary
from repro.core import (
    FaultCell,
    build_packing_with_retry,
    evaluate_fault_grid,
    redundant_broadcast,
    tree_edge_ids,
    uniform_random_placement,
)
from repro.core.broadcast import _bfs_view, _number_messages_batch, _placement_ids
from repro.core.resilient import split_messages
from repro.engine.fastpath import vectorized_tree_broadcast
from repro.graphs import thick_cycle
from repro.util.tables import Table


def _setup(groups: int, size: int, k: int, parts: int, seed: int = 2):
    g = thick_cycle(groups, size)
    packing, _ = build_packing_with_retry(
        g, parts, seed=seed, distributed=False, backend="vectorized"
    )
    placement = uniform_random_placement(g.n, k, seed=seed + 1)
    return g, packing, placement


def _report_fields(rep):
    """Every field of a delivery report but the backend that wrote it:
    coverage, rounds, drops, send totals and the fault RNG state."""
    fields = dataclasses.asdict(rep)
    del fields["backend"]
    return fields


def _assert_separation(g, packing, placement, k, parts, backend="vectorized"):
    """The core.resilient separation: r=1 loses the dead tree's k/parts
    messages exactly; r=2 delivers everything through the dead class."""
    dead = tree_edge_ids(packing, 0)
    r1 = redundant_broadcast(
        g, placement, packing, redundancy=1, dead_edges=dead, backend=backend
    )
    r2 = redundant_broadcast(
        g, placement, packing, redundancy=2, dead_edges=dead, backend=backend
    )
    assert r1.fully_delivered == k - k // parts, (r1.fully_delivered, k, parts)
    assert r1.min_coverage < 1.0
    assert r2.fully_delivered == k and r2.min_coverage == 1.0
    return r1, r2


def _null_plan_matches_lemma1(g, packing, placement, report):
    """The null-plan cell is the fault-free Lemma 1 pipeline: the same
    rounds, messages and bits as ``vectorized_tree_broadcast`` over the
    same trees and message split, full coverage, and no drops."""
    starts = _number_messages_batch(g, [placement], "vectorized")[0][2]
    split = split_messages(
        _placement_ids(placement, starts), packing.size, report.redundancy
    )
    trees = {c: _bfs_view(packing, c) for c in range(packing.size)}
    lemma1 = vectorized_tree_broadcast(g, trees, split)
    assert (report.rounds, report.total_messages, report.total_bits) == (
        lemma1.rounds,
        lemma1.metrics.total_messages,
        lemma1.metrics.total_bits,
    ), "the null plan drifted from the Lemma 1 closed form"
    assert report.dropped_messages == 0 and report.min_coverage == 1.0


def run_quick():
    """CI smoke: one fault-grid call per backend, bit-identical reports.

    The cells cover a dead tree at r = 1 and r = 2, a mobile adversary
    sweeping the dead tree's edges for the whole run (its downcast hits
    land late too), i.i.d. loss on the per-round replay, and the null plan,
    which must be the fault-free Lemma 1 pipeline.
    """
    parts, k = 3, 60
    g, packing, placement = _setup(groups=10, size=10, k=k, parts=parts)
    dead = tree_edge_ids(packing, 0)
    run = redundant_broadcast(
        g, placement, packing, redundancy=2, backend="vectorized"
    ).rounds
    cells = [
        FaultCell(redundancy=1, dead_edges=dead),
        FaultCell(redundancy=2, dead_edges=dead),
        FaultCell(redundancy=2, drop_rate=0.02, fault_seed=7),
        FaultCell(
            redundancy=2,
            adversary=MobileAdversary.sweeping(sorted(dead), budget=4, rounds=run),
        ),
        FaultCell(redundancy=2),
    ]
    out, secs = {}, {}
    for backend in ("simulator", "vectorized"):
        t0 = time.perf_counter()
        out[backend] = evaluate_fault_grid(g, placement, packing, cells, backend=backend)
        secs[backend] = time.perf_counter() - t0
    r1, r2, _lossy, mobile, null = out["vectorized"]
    assert r1.fully_delivered == k - k // parts and r1.min_coverage < 1.0
    assert r2.fully_delivered == k and r2.min_coverage == 1.0
    assert mobile.dropped_messages > 0, "the mobile adversary hit nothing"
    _null_plan_matches_lemma1(g, packing, placement, null)
    for i, (sim, vec) in enumerate(zip(out["simulator"], out["vectorized"])):
        assert _report_fields(sim) == _report_fields(vec), (
            f"backend drift in quick scenario {i}"
        )
    write_bench_artifact(
        "e16_quick",
        {
            "n": g.n,
            "k": k,
            "sim_seconds": round(secs["simulator"], 4),
            "vec_seconds": round(secs["vectorized"], 4),
        },
    )
    return out


def run_experiment():
    artifact: dict[str, object] = {}

    # ---- E16a: adversary sweep at n = 10⁴ (vectorized) ------------------- #
    parts, k = 4, 200
    g, packing, placement = _setup(groups=500, size=20, k=k, parts=parts)
    n = g.n
    assert n >= 10_000
    dead = tree_edge_ids(packing, 0)
    scenarios = {
        "none": dict(),
        "dead-tree": dict(dead_edges=dead),
        "mobile(b=32)": dict(
            adversary=MobileAdversary.sweeping(sorted(dead), budget=32, rounds=4000)
        ),
        "loss(0.5%)": dict(drop_rate=0.005, fault_seed=5),
    }
    ta = Table(
        ["scenario", "r", "rounds", "dropped", "full", "min_cov"],
        title=f"E16a — adversary sweep (n={n}, k={k}, {parts} trees, one grid)",
    )
    jobs = [
        (name, r, kwargs)
        for name, kwargs in scenarios.items()
        for r in (1, 2)
    ]
    t0 = time.perf_counter()
    reports = evaluate_fault_grid(
        g, placement, packing,
        [FaultCell(redundancy=r, **kwargs) for _, r, kwargs in jobs],
        backend="vectorized",
    )
    grid_secs = time.perf_counter() - t0
    # The loop of solo calls the grid replaces: must agree bit-for-bit.
    t0 = time.perf_counter()
    looped = [
        redundant_broadcast(
            g, placement, packing, redundancy=r, backend="vectorized", **kwargs
        )
        for _, r, kwargs in jobs
    ]
    loop_secs = time.perf_counter() - t0
    rows_a = []
    for (name, r, _), rep, solo in zip(jobs, reports, looped):
        assert _report_fields(rep) == _report_fields(solo), (name, r)
        ta.add_row([
            name, r, rep.rounds, rep.dropped_messages,
            f"{rep.fully_delivered}/{k}", round(rep.min_coverage, 3),
        ])
        rows_a.append({
            "scenario": name, "redundancy": r, "rounds": rep.rounds,
            "dropped": rep.dropped_messages,
            "fully_delivered": rep.fully_delivered,
            "min_coverage": round(rep.min_coverage, 4),
        })
    ta.print()
    print(
        f"E16a grid: {len(jobs)} cells in {grid_secs:.2f}s "
        f"(loop of solos {loop_secs:.2f}s — {loop_secs / grid_secs:.1f}x)"
    )
    _assert_separation(g, packing, placement, k, parts)
    artifact["n"] = n
    artifact["k"] = k
    artifact["adversary_sweep"] = rows_a
    artifact["adversary_sweep_grid"] = {
        "cells": len(jobs),
        "grid_seconds": round(grid_secs, 3),
        "loop_seconds": round(loop_secs, 3),
        "speedup": round(loop_secs / grid_secs, 2),
    }

    # ---- E16b: budget sweep (mobile adversary) × redundancy -------------- #
    tb = Table(
        ["budget"] + [f"min_cov r={r}" for r in (1, 2, 3)],
        title=f"E16b — mobile budget vs redundancy (n={n}, k={k})",
    )
    pool = sorted(dead | tree_edge_ids(packing, 1))
    budgets = (8, 64, 512)
    grid_reports = evaluate_fault_grid(
        g, placement, packing,
        [
            FaultCell(
                redundancy=r,
                adversary=MobileAdversary.sweeping(pool, budget=budget, rounds=6000),
            )
            for budget in budgets
            for r in (1, 2, 3)
        ],
        backend="vectorized",
    )
    rows_b = []
    for i, budget in enumerate(budgets):
        row = {"budget": budget}
        covs = []
        for j, r in enumerate((1, 2, 3)):
            rep = grid_reports[3 * i + j]
            covs.append(round(rep.min_coverage, 4))
            row[f"r{r}"] = covs[-1]
        tb.add_row([budget] + covs)
        rows_b.append(row)
    tb.print()
    # Shape: more redundancy never hurts; the biggest budget hurts r=1 most.
    for row in rows_b:
        assert row["r3"] >= row["r1"] - 1e-9
    assert rows_b[-1]["r1"] <= rows_b[0]["r1"] + 1e-9
    artifact["budget_sweep"] = rows_b

    # ---- E16c: backend cross-check + speedup at n = 10⁴ ------------------ #
    kc = 60
    placement_c = uniform_random_placement(n, kc, seed=9)
    out = {}
    for backend in ("simulator", "vectorized"):
        t0 = time.perf_counter()
        rep = redundant_broadcast(
            g, placement_c, packing, redundancy=2, dead_edges=dead,
            drop_rate=0.001, fault_seed=3, backend=backend,
        )
        out[backend] = (rep, time.perf_counter() - t0)
    sim, vec = out["simulator"], out["vectorized"]
    assert _report_fields(sim[0]) == _report_fields(vec[0]), "backend drift at n=1e4"
    speedup = sim[1] / vec[1]
    print(
        f"E16c backend cross-check (n={n}, k={kc}): sim {sim[1]:.1f}s, "
        f"vec {vec[1]:.2f}s — {speedup:.0f}x"
    )
    assert speedup >= 20.0, f"vectorized fault engine only {speedup:.1f}x"
    artifact["e16c"] = {
        "n": n, "k": kc, "sim_seconds": round(sim[1], 3),
        "vec_seconds": round(vec[1], 3), "speedup": round(speedup, 1),
    }

    # ---- E16d: vectorized-only scale-up to n = 10⁵ ----------------------- #
    parts_d, kd = 4, 100
    gd, packing_d, placement_d = _setup(groups=2500, size=40, k=kd, parts=parts_d)
    assert gd.n >= 100_000
    t0 = time.perf_counter()
    r1, r2 = _assert_separation(gd, packing_d, placement_d, kd, parts_d)
    secs = time.perf_counter() - t0
    print(
        f"E16d — n={gd.n}: r=1 delivers {r1.fully_delivered}/{kd}, "
        f"r=2 delivers {r2.fully_delivered}/{kd} through a dead tree "
        f"({r1.rounds}/{r2.rounds} rounds; both runs in {secs:.1f}s)"
    )
    artifact["e16d"] = {
        "n": gd.n, "k": kd,
        "r1_fully_delivered": r1.fully_delivered,
        "r2_fully_delivered": r2.fully_delivered,
        "r1_rounds": r1.rounds, "r2_rounds": r2.rounds,
        "seconds": round(secs, 2),
    }

    write_bench_artifact("e16", artifact)
    return artifact


def test_e16_resilience(benchmark):
    if os.environ.get("E16_QUICK") == "1":
        run_once(benchmark, run_quick)
    else:
        run_once(benchmark, run_experiment)
