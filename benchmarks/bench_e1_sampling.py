"""E1 — Lemma 5: p-sampled subgraphs are spanning and low-diameter.

Paper claim: sampling each edge with p = C log n/λ gives, w.h.p., a spanning
subgraph of diameter O(C n log n/δ). Rows sweep n on random-regular hosts
(λ = δ = d) and on the thick cycle (where the n/δ scale is actually large);
columns report measured diameter vs the proof's explicit 20·n·L/δ bound.

Each host additionally runs the Lemma 2 BFS flood *inside the sampled
subgraph* on both backends: the simulator and the vectorized engine must
report identical parents, dists, and certified round counts (the per-row
``bfs_speedup`` column is the wall-clock ratio — the engine's reason to
exist).

Shape assertions: every sample spans; every diameter is below the bound;
diameters track n/δ (not n); backend results are bit-identical.

Before the host loop, one untimed BFS per backend runs on the first host's
full adjacency. The first call of each backend in a process pays the
engine's first lazy imports (the backend dispatch and the vectorized
kernels' modules), which would otherwise be charged to the first host's
``bfs_speedup``; its time is printed on a line of its own instead.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.core import analyze_sample, sample_edges, sampling_probability
from repro.graphs import random_regular, thick_cycle
from repro.primitives.bfs import run_bfs
from repro.util.tables import Table


def _bfs_both_backends(g, mask):
    """BFS in the sampled subgraph on both backends; assert bit-equality."""
    t0 = time.perf_counter()
    sim = run_bfs(g, 0, edge_mask=mask, backend="simulator")
    t_sim = time.perf_counter() - t0
    t0 = time.perf_counter()
    vec = run_bfs(g, 0, edge_mask=mask, backend="vectorized")
    t_vec = time.perf_counter() - t0
    assert np.array_equal(sim.parent, vec.parent)
    assert np.array_equal(sim.dist, vec.dist)
    assert sim.rounds == vec.rounds
    assert sim.children == vec.children
    return sim.rounds, t_sim / max(t_vec, 1e-9)


def _cold_first_calls(g) -> dict[str, float]:
    """Seconds of one untimed first BFS per backend (one-time imports)."""
    cold = {}
    for backend in ("simulator", "vectorized"):
        t0 = time.perf_counter()
        run_bfs(g, 0, backend=backend)
        cold[backend] = time.perf_counter() - t0
    return cold


def run_experiment():
    table = Table(
        [
            "graph", "n", "delta", "p", "m_sampled", "spanning", "diam",
            "proof_bound", "bfs_rounds", "bfs_speedup",
        ],
        title="E1 / Lemma 5 — sampled subgraph diameter (C = 2, λ = 48)",
    )
    C = 2.0
    rows = []

    # λ = 48 keeps p = C ln n / λ well below 1 so the sampling is genuine
    # (at λ ≲ C ln n the lemma is vacuous — everything survives).
    hosts = [
        ("reg", random_regular(200, 48, seed=1), 48),
        ("reg", random_regular(400, 48, seed=2), 48),
        ("reg", random_regular(800, 48, seed=3), 48),
        ("thick", thick_cycle(25, 24), 48),
        ("thick", thick_cycle(50, 24), 48),
    ]
    cold = _cold_first_calls(hosts[0][1])
    print(
        "E1 cold first BFS call (untimed, excluded from bfs_speedup): "
        + ", ".join(f"{b} {s:.3f} s" for b, s in cold.items())
    )
    speedups = []
    for name, g, lam in hosts:
        p = sampling_probability(g.n, lam, C=C)
        mask = sample_edges(g, p, seed=7)
        rep = analyze_sample(g, mask, C=C)
        bfs_rounds, speedup = _bfs_both_backends(g, mask)
        speedups.append(speedup)
        table.add_row(
            [
                name,
                g.n,
                g.min_degree(),
                round(rep.p, 3),
                rep.m_sampled,
                rep.spanning,
                rep.diameter,
                round(rep.bound),
                bfs_rounds,
                round(speedup, 1),
            ]
        )
        rows.append((name, g, rep))
    table.print()

    # Shape: all spanning, all within the proof bound.
    assert all(r.spanning for _, _, r in rows)
    assert all(r.within_bound for _, _, r in rows)
    # Shape: on regular hosts diameter grows far slower than n (the whole
    # point: sampled diameter ~ n/δ·polylog, and δ is fixed here).
    reg = [r for name, _, r in rows if name == "reg"]
    assert reg[-1].diameter <= reg[0].diameter * 8
    # Backend contract: bit-identical results, and the vectorized flood is
    # decisively faster on every host (conservative floor; typically ≫ 10x).
    assert min(speedups) >= 3.0
    return rows


def test_e1_sampling(benchmark):
    run_once(benchmark, run_experiment)
