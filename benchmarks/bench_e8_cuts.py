"""E8 — Theorem 7: (1+ε)-approximation of all cuts in Õ(n/(λε²)) rounds.

Rows sweep ε; columns: sparsifier size (vs m), the broadcast rounds (the
dominant Õ(n/(λε²)) term), charged sparsifier-construction rounds, and the
max relative cut error over random + degree + minimum cuts, with the
Spielman–Srivastava effective-resistance sampler as an independent
cross-check column.

Shape assertions: the measured error respects ε everywhere; smaller ε costs
more rounds and a bigger sparsifier.

**Backends.** The sweep runs on the vectorized engine (identical
sparsifiers and ledgers, certified by ``tests/test_engine_equivalence.py``).
A dedicated cross-check executes the full Theorem 7 pipeline on *both*
backends at the tightest-ε config: sparsifier edges/weights and both round
ledgers must match bit-for-bit, and the vectorized path must be ≥ 20×
faster wall-clock, each side timed as the median of five calls
(:func:`benchmarks.conftest.median_seconds`); the timing lands in
``BENCH_E13.json``.

Set ``E8_QUICK=1`` for the CI smoke: one small config, both backends,
equality asserted, no timing assertions.
"""

from __future__ import annotations

import os

import numpy as np

from benchmarks.conftest import median_seconds, run_once, write_bench_artifact
from repro.cuts import (
    approx_all_cuts,
    effective_resistance_sparsifier,
    evaluate_cut_quality,
)
from repro.graphs import thick_cycle
from repro.util.tables import Table


def _both_backends(g, eps, lam, tau, seed):
    """Full Theorem 7 pipeline on both backends: identical results, each
    side timed as the median of five calls."""
    out = {}
    for backend in ("simulator", "vectorized"):
        out[backend] = median_seconds(
            lambda: approx_all_cuts(
                g, eps=eps, lam=lam, C=1.5, seed=seed, tau=tau, backend=backend
            )
        )
    sim, vec = out["simulator"][0], out["vectorized"][0]
    assert sim.sparsifier.sparsifier == vec.sparsifier.sparsifier
    assert np.array_equal(
        sim.sparsifier.sparsifier.weights, vec.sparsifier.sparsifier.weights
    ), "sparsifier weights diverged"
    assert sim.simulated_rounds == vec.simulated_rounds, "simulated ledgers diverged"
    assert sim.charged_rounds == vec.charged_rounds, "charged ledgers diverged"
    return out


def run_quick():
    """CI smoke: one small config, both backends, bit-identical pipelines."""
    g = thick_cycle(8, 8)  # n = 64, λ = 16
    out = _both_backends(g, eps=0.6, lam=16, tau=3, seed=9)
    q = evaluate_cut_quality(g, out["vectorized"][0].sparsifier.sparsifier, seed=10)
    assert q["max_rel_error"] <= 0.6
    write_bench_artifact(
        "e8_quick",
        {"n": g.n, "sim_seconds": round(out["simulator"][1], 4),
         "vec_seconds": round(out["vectorized"][1], 4),
         "speedup": round(out["simulator"][1] / out["vectorized"][1], 1)},
    )
    return out


def run_experiment():
    g = thick_cycle(12, 12)  # n = 144, λ = 24, m = 1728 (dense enough)
    lam = 24
    table = Table(
        ["eps", "tau", "spars_m", "host_m", "bcast_rounds", "charged",
         "max_err(KX)", "max_err(ER)", "ok"],
        title=f"E8 / Theorem 7 — all-cuts approximation on n={g.n}, λ={lam}",
    )
    rows = []
    # τ per the bundle_size scale: single-node (degree) cuts are the
    # high-variance worst case, so τ must grow as ε shrinks.
    for eps, tau in ((0.6, 3), (0.4, 4), (0.25, 5)):
        res = approx_all_cuts(
            g, eps=eps, lam=lam, C=1.5, seed=9, tau=tau, backend="vectorized"
        )
        q = evaluate_cut_quality(g, res.sparsifier.sparsifier, seed=10)
        er = effective_resistance_sparsifier(g, eps=eps, seed=11)
        q_er = evaluate_cut_quality(g, er.sparsifier, seed=10)
        ok = q["max_rel_error"] <= eps
        table.add_row(
            [
                eps,
                tau,
                res.sparsifier.m,
                g.m,
                res.simulated_rounds["broadcast_sparsifier"],
                res.charged_rounds["koutis_xu"],
                round(q["max_rel_error"], 3),
                round(q_er["max_rel_error"], 3),
                ok,
            ]
        )
        rows.append((eps, res, q, ok))
    table.print()

    assert all(ok for _, _, _, ok in rows)
    # Shape: tighter ε → bigger sparsifier and more broadcast rounds.
    sizes = [r.sparsifier.m for _, r, _, _ in rows]
    assert sizes == sorted(sizes)

    # Backend cross-check + wall-clock speedup at the tightest-ε config —
    # the most bundle levels, i.e. the heaviest simulator load E8 produces.
    out = _both_backends(g, eps=0.25, lam=lam, tau=5, seed=9)
    speedup = out["simulator"][1] / out["vectorized"][1]
    print(
        f"E8 backend cross-check (n={g.n}, eps=0.25): "
        f"sim {out['simulator'][1]:.2f}s, vec {out['vectorized'][1]:.3f}s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 20.0, f"vectorized cuts speedup only {speedup:.1f}x"
    write_bench_artifact(
        "e8",
        {"n": g.n, "eps": 0.25,
         "sim_seconds": round(out["simulator"][1], 4),
         "vec_seconds": round(out["vectorized"][1], 4),
         "speedup": round(speedup, 1)},
    )
    return rows


def test_e8_cuts(benchmark):
    if os.environ.get("E8_QUICK") == "1":
        run_once(benchmark, run_quick)
    else:
        run_once(benchmark, run_experiment)
