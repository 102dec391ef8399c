"""E6 — Theorem 4: (3,2)-approximate unweighted APSP in Õ(n/λ) rounds.

Rows sweep λ at (roughly) fixed n on thick cycles; columns: cluster count
(Õ(n/δ)), the round ledger split into simulated and charged phases, total
rounds, the Õ(n/λ) reference scale, and the certified (3, 2) envelope.

Shape assertions: the envelope holds everywhere (d ≤ d̃ ≤ 3d+2) and total
rounds *decrease* as λ grows at fixed n — the sublinearity that separates
this result from the Ω̃(n) general-graph APSP lower bounds.

**Backends.** The sweep itself runs on the vectorized engine (identical
ledgers, certified by ``tests/test_engine_equivalence.py``). A dedicated
cross-check then executes the full pipeline on *both* backends at the
largest simulator-feasible host: estimates, cluster assignments, and both
round ledgers must match bit-for-bit, and the vectorized path must be
≥ 15× faster wall-clock; the timing lands in ``BENCH_E13.json``. Each
side is timed as the median of five calls
(:func:`benchmarks.conftest.median_seconds`): the vectorized call takes
about 5 ms, so one call per side made the ratio swing with host noise.
(The floor was 20× until the simulator's per-round transport cut its side
to about 0.10 s, leaving a ratio near 20× with the vectorized side
unchanged at about 0.005 s.)

Set ``E6_QUICK=1`` for the CI smoke: smallest host, both backends, ledger
equality asserted, no timing assertions.
"""

from __future__ import annotations

import os

import numpy as np

from benchmarks.conftest import median_seconds, run_once, write_bench_artifact
from repro.apsp import approx_apsp_unweighted, check_32_approximation
from repro.graphs import thick_cycle
from repro.util.tables import Table


def _both_backends(g, lam, seed):
    """Full Theorem 4 pipeline on both backends: identical results, each
    side timed as the median of five calls."""
    out = {}
    for backend in ("simulator", "vectorized"):
        out[backend] = median_seconds(
            lambda: approx_apsp_unweighted(g, lam=lam, C=1.5, seed=seed, backend=backend)
        )
    sim, vec = out["simulator"][0], out["vectorized"][0]
    assert np.array_equal(sim.estimate, vec.estimate), "APSP estimates diverged"
    assert np.array_equal(sim.clustering.s, vec.clustering.s)
    assert sim.simulated_rounds == vec.simulated_rounds, "simulated ledgers diverged"
    assert sim.charged_rounds == vec.charged_rounds, "charged ledgers diverged"
    return out


def run_quick():
    """CI smoke: smallest host, both backends, bit-identical pipelines."""
    g = thick_cycle(10, 6)  # n = 60, λ = 12
    out = _both_backends(g, lam=12, seed=5)
    ok, _ = check_32_approximation(g, out["vectorized"][0].estimate)
    assert ok
    write_bench_artifact(
        "e6_quick",
        {"n": g.n, "sim_seconds": round(out["simulator"][1], 4),
         "vec_seconds": round(out["vectorized"][1], 4),
         "speedup": round(out["simulator"][1] / out["vectorized"][1], 1)},
    )
    return out


def run_experiment():
    table = Table(
        ["n", "lam", "clusters", "sim_rounds", "charged", "total", "n/lam",
         "envelope_ok", "worst_mult"],
        title="E6 / Theorem 4 — (3,2)-approximate unweighted APSP",
    )
    hosts = [
        (thick_cycle(30, 4), 8),
        (thick_cycle(15, 8), 16),
        (thick_cycle(10, 12), 24),
        (thick_cycle(8, 15), 30),
    ]
    rows = []
    for g, lam in hosts:
        res = approx_apsp_unweighted(g, lam=lam, C=1.5, seed=5, backend="vectorized")
        ok, worst = check_32_approximation(g, res.estimate)
        sim = sum(res.simulated_rounds.values())
        charged = sum(res.charged_rounds.values())
        table.add_row(
            [g.n, lam, res.k_clusters, sim, charged, res.rounds,
             round(g.n / lam, 1), ok, round(worst, 2)]
        )
        rows.append((g, lam, res, ok))
    table.print()

    assert all(ok for _, _, _, ok in rows)
    # Shape: at n = 120 fixed, higher λ → cheaper broadcast phase.
    sims = [sum(r.simulated_rounds.values()) for _, _, r, _ in rows]
    assert sims[-1] < sims[0]

    # Backend cross-check + wall-clock speedup at the largest host the
    # simulator can stomach (n = 180 > the sweep's 120).
    g = thick_cycle(10, 18)  # n = 180, λ = 36
    out = _both_backends(g, lam=36, seed=5)
    speedup = out["simulator"][1] / out["vectorized"][1]
    print(
        f"E6 backend cross-check (n={g.n}): sim {out['simulator'][1]:.2f}s, "
        f"vec {out['vectorized'][1]:.3f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= 15.0, f"vectorized APSP speedup only {speedup:.1f}x"
    write_bench_artifact(
        "e6",
        {"n": g.n, "lam": 36,
         "sim_seconds": round(out["simulator"][1], 4),
         "vec_seconds": round(out["vectorized"][1], 4),
         "speedup": round(speedup, 1)},
    )
    return rows


def test_e6_apsp(benchmark):
    if os.environ.get("E6_QUICK") == "1":
        run_once(benchmark, run_quick)
    else:
        run_once(benchmark, run_experiment)
