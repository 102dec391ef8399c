"""Graph sparsifiers preserving all cuts (Theorem 6, Koutis–Xu [KX16]).

Koutis–Xu build a spectral sparsifier by **spanner bundles**: repeatedly
(a) peel off a bundle of τ edge-disjoint spanners — these certify enough
connectivity that every remaining edge has small effective resistance —
keep the bundle at current weights, then (b) keep each off-bundle edge with
probability 1/4 at 4× weight. After O(log n) levels only the bundles remain.
The result H satisfies ``(1−ε)·cut_H(S) ≤ cut_G(S) ≤ (1+ε)·cut_H(S)`` for
every S (Theorem 6 statement, adapted from [AG21]) with
``Õ(n/ε²)`` edges, in ``Õ(1/ε²)`` CONGEST rounds.

We implement the spanner-bundle scheme directly (τ controls accuracy), plus
a Spielman–Srivastava effective-resistance sampler as an independent
cross-check (scipy pseudo-inverse Laplacian — centralized, used only for
validation; DESIGN.md §2 documents this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.apsp.spanner import baswana_sen_spanner
from repro.graphs.graph import Graph
from repro.util.errors import ValidationError
from repro.util.rng import ensure_rng

__all__ = [
    "SparsifierResult",
    "koutis_xu_sparsifier",
    "effective_resistance_sparsifier",
    "bundle_size",
]


def bundle_size(n: int, eps: float) -> int:
    """τ = ⌈0.25 · ln²n / ε²⌉ = O(log²n / ε²): number of spanners per bundle.

    The constant 0.25 trades sparsifier size against accuracy: it keeps the
    E8 experiment's sparsifiers comfortably inside the (1±ε) envelope while
    still shrinking the graph (τ spanners ≈ τ·k·n^{1+1/k} edges per level).
    """
    if not (0 < eps <= 1):
        raise ValidationError("need 0 < ε <= 1")
    ln = math.log(max(n, 3))
    return max(1, int(math.ceil(0.25 * ln * ln / (eps * eps))))


@dataclass
class SparsifierResult:
    """A reweighted subgraph H approximating all cuts of G."""

    sparsifier: Graph
    eps: float
    levels: int
    charged_rounds: int
    bundle_sizes: list[int] = field(default_factory=list)

    @property
    def m(self) -> int:
        return self.sparsifier.m


def koutis_xu_sparsifier(
    graph: Graph,
    eps: float,
    seed=None,
    tau: int | None = None,
    backend: str = "simulator",
) -> SparsifierResult:
    """Spanner-bundle cut sparsifier (the Theorem 6 object).

    Works on weighted or unweighted graphs (unweighted = all weights 1).
    Each bundle spanner is a [BS07] (2k−1)-spanner with ``k = ⌈ln n⌉`` (at
    least 2), so the per-level round charge is ``τ · O(k²)`` (τ spanner
    constructions, [BS07] cost each), totaling the Õ(1/ε²) of Theorem 6.
    At most ``⌈log₂ m⌉`` levels run (at least one). The bundle may take
    every edge: τ spanners of up to ``k·n^{1+1/k}`` edges each can exceed
    m, and then H is the host itself, which nothing in Theorem 6 rules out.

    backend: ``"simulator"`` (default) builds each bundle spanner with the
        per-node [BS07] loops; ``"vectorized"`` uses the whole-array twin
        (:mod:`repro.engine.pipelines`). One RNG stream threads through the
        τ spanner builds and the level's sampling round identically on both
        backends, so the resulting sparsifier — edges, weights, levels,
        charged rounds — is bit-identical for equal seeds.
    """
    from repro.engine import validate_backend

    validate_backend(backend)
    rng = ensure_rng(seed)
    n = graph.n
    spanner_k = max(2, int(math.ceil(math.log(max(n, 3)))))
    if tau is None:
        tau = bundle_size(n, eps)

    # Current residual graph, tracked as (edge endpoint arrays, weights).
    cur_u = graph.edge_u.copy()
    cur_v = graph.edge_v.copy()
    cur_w = (
        graph.weights.copy() if graph.weights is not None else np.ones(graph.m)
    )

    keep_u: list[np.ndarray] = []
    keep_v: list[np.ndarray] = []
    keep_w: list[np.ndarray] = []
    charged = 0
    bundles: list[int] = []
    levels = 0

    for _level in range(max(1, int(math.ceil(math.log2(max(graph.m, 2)))))):
        m_cur = len(cur_u)
        if m_cur <= tau * n:  # residual small enough: keep everything
            break
        levels += 1
        g_cur = Graph(n, np.stack([cur_u, cur_v], axis=1), weights=cur_w)
        in_bundle = np.zeros(m_cur, dtype=bool)
        remaining = np.ones(m_cur, dtype=bool)
        bundle_count = 0
        for _j in range(tau):
            if not remaining.any():
                break
            sub, orig = g_cur.edge_subgraph_with_map(remaining)
            sp = baswana_sen_spanner(sub, spanner_k, seed=rng, backend=backend)
            charged += sp.charged_rounds
            chosen = orig[sp.edge_ids]
            in_bundle[chosen] = True
            remaining[chosen] = False
            bundle_count += 1
        bundles.append(bundle_count)

        keep_u.append(cur_u[in_bundle])
        keep_v.append(cur_v[in_bundle])
        keep_w.append(cur_w[in_bundle])

        off = ~in_bundle
        coins = rng.random(m_cur) < 0.25
        sampled = off & coins
        cur_u = cur_u[sampled]
        cur_v = cur_v[sampled]
        cur_w = cur_w[sampled] * 4.0
        charged += 1  # the sampling round

    keep_u.append(cur_u)
    keep_v.append(cur_v)
    keep_w.append(cur_w)

    all_u = np.concatenate(keep_u)
    all_v = np.concatenate(keep_v)
    all_w = np.concatenate(keep_w)
    # Merge parallel accumulations (same edge can only appear once since each
    # host edge survives on exactly one path through the levels, but be
    # defensive and sum duplicates).
    key = all_u * n + all_v
    order = np.argsort(key, kind="stable")
    key, all_u, all_v, all_w = key[order], all_u[order], all_v[order], all_w[order]
    uniq, first = np.unique(key, return_index=True)
    summed = np.add.reduceat(all_w, first)
    sparsifier = Graph(
        n, np.stack([all_u[first], all_v[first]], axis=1), weights=summed
    )
    return SparsifierResult(
        sparsifier=sparsifier,
        eps=eps,
        levels=levels,
        charged_rounds=charged,
        bundle_sizes=bundles,
    )


def effective_resistance_sparsifier(
    graph: Graph, eps: float, seed=None
) -> SparsifierResult:
    """Spielman–Srivastava sampling by effective resistance (cross-check).

    Centralized (dense Laplacian pseudo-inverse): q = ⌊9 n ln n/ε²⌋ samples
    with probability ∝ w_e·R_eff(e), each kept edge reweighted by
    w_e/(q·p_e). Used by tests/benches to sanity-check the Koutis–Xu output
    on the same instances; not part of the distributed pipeline.
    """
    rng = ensure_rng(seed)
    n = graph.n
    if n > 2000:
        raise ValidationError("dense ER sampler is for validation-scale graphs")
    w = graph.weights if graph.weights is not None else np.ones(graph.m)
    L = np.zeros((n, n))
    L[graph.edge_u, graph.edge_v] -= w
    L[graph.edge_v, graph.edge_u] -= w
    np.fill_diagonal(L, -L.sum(axis=1))
    Lpinv = np.linalg.pinv(L)
    d = Lpinv[graph.edge_u, graph.edge_u] + Lpinv[graph.edge_v, graph.edge_v] \
        - 2 * Lpinv[graph.edge_u, graph.edge_v]
    reff = np.maximum(d, 1e-15)
    probs = w * reff
    probs = probs / probs.sum()
    q = max(1, int(9 * n * math.log(max(n, 3)) / (eps * eps)))
    counts = rng.multinomial(q, probs)
    kept = counts > 0
    new_w = w[kept] * counts[kept] / (q * probs[kept])
    sparsifier = Graph(
        n,
        np.stack([graph.edge_u[kept], graph.edge_v[kept]], axis=1),
        weights=new_w,
    )
    return SparsifierResult(
        sparsifier=sparsifier, eps=eps, levels=1, charged_rounds=0
    )
