"""Vectorized twins of the loop-bound application pipelines.

The APSP and cut-sparsifier pipelines (Theorems 4–7) were the last
simulator-/Python-loop-bound paths in the library: cluster growth iterated
``for v in range(n)`` + ``for u, v in graph.edges()``, and the Baswana–Sen
spanner walked every node's neighbor dict once per phase. This module holds
their whole-array numpy twins, built on the same Graph CSR arrays as
:mod:`repro.engine.fastpath`.

Equivalence contract (same as the fast-path kernels): every function here is
**bit-identical** to its reference — identical outputs *and* identical RNG
consumption (same number, shape, and order of draws from the shared
``numpy.random.Generator``), so a pipeline that mixes backends mid-stream
(e.g. the Koutis–Xu level loop threading one generator through τ spanner
builds plus a sampling round) produces the same object either way. The
contract is enforced by :mod:`repro.engine.verify` (``check_clustering``,
``check_spanner``, ``check_sparsifier``) and
``tests/test_engine_equivalence.py``.

Tie-breaks mirrored exactly:

* center assignment adopts the **smallest center id** among a node's
  neighbors (CSR neighbor blocks are id-sorted, so "first valid per block"
  is that minimum);
* the spanner sorts its arcs once per run by ``(source, weight, edge id)``,
  so every node's block runs lightest-first, weight ties toward the
  **smaller edge id**, and "lightest" is always "first". In a sampling
  phase a node of an unsampled cluster joins through the first arc of its
  block into a sampled cluster, and the reference's strictly
  ``(weight, edge id)``-lighter edges are the first arc into each cluster
  before that one; a node with no sampled arc leaves and keeps the first
  arc into every cluster of its block. So a phase groups only the arcs
  before each join arc, the arcs that decide it. The final phase groups
  every node's arcs into live clusters other than its own.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.graphs.graph import Graph

__all__ = [
    "assign_centers",
    "contract_clusters",
    "vectorized_spanner_edges",
]


# --------------------------------------------------------------------------- #
# Theorem 4 step 1 — cluster growth
# --------------------------------------------------------------------------- #

@obs.traced("clustering.centers")
def assign_centers(
    graph: Graph, is_center: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Membership map for one clustering attempt, in O(n + m).

    Returns ``(centers, s)`` where ``centers`` are the sampled node ids
    (sorted) and ``s[v]`` is the cluster index of node ``v`` — centers join
    themselves, every other node joins its **smallest** center neighbor —
    or ``None`` when some non-center has no center neighbor (the retry
    event of :func:`repro.apsp.clustering.build_clustering`).
    """
    is_center = np.asarray(is_center, dtype=bool)
    centers = np.nonzero(is_center)[0]
    s = np.full(graph.n, -1, dtype=np.int64)
    s[centers] = np.arange(len(centers), dtype=np.int64)

    arc_dst = graph._indices
    arc_src = graph.arc_sources()
    usable = is_center[arc_dst] & ~is_center[arc_src]
    srcs = arc_src[usable]
    dsts = arc_dst[usable]
    if srcs.size:
        # CSR blocks are sorted by neighbor id, so the first usable arc per
        # source is its smallest center neighbor — the reference tie-break.
        first = np.empty(srcs.size, dtype=bool)
        first[0] = True
        np.not_equal(srcs[1:], srcs[:-1], out=first[1:])
        s[srcs[first]] = np.searchsorted(centers, dsts[first])
    if np.any(s < 0):
        return None
    return centers, s


@obs.traced("clustering.contract")
def contract_clusters(graph: Graph, s: np.ndarray, k: int) -> Graph:
    """The virtual cluster graph G_c, in O(m log m).

    One edge ``{s(u), s(v)}`` per pair of distinct clusters joined by a
    G-edge; the unique-sorted key order reproduces the reference
    ``sorted(set(...))`` edge ids exactly.
    """
    cu = s[graph.edge_u]
    cv = s[graph.edge_v]
    cross = cu != cv
    lo = np.minimum(cu[cross], cv[cross])
    hi = np.maximum(cu[cross], cv[cross])
    key = np.unique(lo * np.int64(k) + hi)
    return Graph(k, np.stack([key // k, key % k], axis=1))


# --------------------------------------------------------------------------- #
# [BS07] spanner — the Theorem 5 / Koutis–Xu workhorse
# --------------------------------------------------------------------------- #

@obs.traced("spanner.edges")
def vectorized_spanner_edges(
    graph: Graph, k: int, rng: np.random.Generator, p: float
) -> np.ndarray:
    """Edge ids of a Baswana–Sen (2k−1)-spanner, whole-array per phase.

    Twin of the reference loops in
    :func:`repro.apsp.spanner.baswana_sen_spanner` (which documents the
    algorithm): k−1 cluster-sampling phases, then the cluster-joining phase.
    Consumes exactly one ``rng.random(#live clusters)`` draw per phase —
    the reference's coin schedule — and returns the identical sorted id set.
    """
    n, m = graph.n, graph.m
    w = graph.weights if graph.weights is not None else np.ones(m)
    # One sort per run puts the arcs in (src, w, eid) order: rank[e] is edge
    # e's place in (w, eid) order, so src·m + rank is a unique flat key. Each
    # node's block stays where the CSR has it.
    rank = np.empty(m, dtype=np.int64)
    rank[np.argsort(w, kind="stable")] = np.arange(m)
    src = graph.arc_sources()
    order = np.argsort(src * np.int64(m) + rank[graph._adj_edge_id])
    src, dst, eid = src[order], graph._indices[order], graph._adj_edge_id[order]
    start, end = graph._indptr[:-1], graph._indptr[1:]
    kept = np.zeros(m, dtype=bool)

    def keep_heads(arcs: np.ndarray, cl: np.ndarray) -> None:
        # Sorted by (cluster, position), the arcs of one (cluster, source)
        # pair form a run that opens with the pair's lightest arc.
        cl, arcs = np.divmod(np.sort(cl * np.int64(src.size) + arcs), src.size)
        pair = cl * np.int64(n) + src[arcs]
        head = np.ones(arcs.size, dtype=bool)
        np.not_equal(pair[1:], pair[:-1], out=head[1:])
        kept[eid[arcs[head]]] = True

    cluster_of = np.arange(n, dtype=np.int64)  # level 0: singletons; -1: left
    sampled = np.zeros(n + 1, dtype=bool)  # slot n answers cluster -1
    for _phase in range(k - 1):
        # A live cluster still holds its center.
        centers = np.flatnonzero(cluster_of == np.arange(n))
        sampled[:] = False
        sampled[centers[rng.random(centers.size) < p]] = True
        # Nodes of a sampled cluster stay in it; every other clustered node
        # decides. Its join arc is its first, so lightest, sampled arc.
        stays = sampled[cluster_of]
        deciding = np.flatnonzero((cluster_of >= 0) & ~stays)
        lo, hi = start[deciding], end[deciding]
        hits = np.append(np.flatnonzero(stays[dst]), src.size)  # sentinel
        join = hits[np.searchsorted(hits, lo)]
        # The node keeps the lightest arc into each cluster it reaches before
        # its join arc, or before its block ends if it has none and leaves.
        bound = np.minimum(join, hi)
        lens = bound - lo
        arcs = np.repeat(bound - np.cumsum(lens), lens) + np.arange(lens.sum())
        cl = cluster_of[dst[arcs]]
        keep_heads(arcs[cl >= 0], cl[cl >= 0])
        join = join[join < hi]
        kept[eid[join]] = True
        joined = cluster_of[dst[join]]
        cluster_of = np.where(stays, cluster_of, -1)
        cluster_of[src[join]] = joined

    # Cluster joining: every node keeps its lightest arc into each live
    # cluster but its own.
    cl = cluster_of[dst]
    arcs = np.flatnonzero((cl >= 0) & (cl != cluster_of[src]))
    keep_heads(arcs, cl[arcs])
    return np.flatnonzero(kept)
