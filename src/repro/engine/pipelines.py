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
* the spanner's per-(node, cluster) lightest edge breaks weight ties toward
  the **smaller edge id**, and the lightest *sampled* cluster is the
  ``(weight, edge id)`` minimum over sampled candidates — both are
  group-head selections over arcs sorted once per run by
  ``(source, weight, edge id)``.
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

from repro.engine.kernels import in_sorted as _in_sorted  # noqa: E402


class _ArcView:
    """The directed arcs one spanner run sweeps, in ``(src, w, eid)`` order.

    Sorting once per run leaves each phase one single-key sort: within a
    source's block the arcs already run lightest-first, ties toward the
    smaller edge id.
    """

    def __init__(self, graph: Graph):
        m = graph.m
        w = graph.weights if graph.weights is not None else np.ones(m)
        # rank[e] = position of edge e in (w, eid) order; src·m + rank is a
        # unique key, so one flat argsort replaces a three-key lexsort.
        rank = np.empty(m, dtype=np.int64)
        rank[np.argsort(w, kind="stable")] = np.arange(m)
        src = graph.arc_sources()
        order = np.argsort(src * np.int64(m) + rank[graph._adj_edge_id])
        self.n = graph.n
        self.src = src[order]
        self.dst = graph._indices[order]
        self.eid = graph._adj_edge_id[order]
        self.w = w[self.eid]

    def lightest_per_cluster(
        self, cluster_arr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per (source node, neighbor cluster) lightest edge.

        ``cluster_arr[u] = -1`` marks unclustered neighbors (skipped).
        Returns ``(src, cluster, w, eid)`` group heads, each minimal in
        ``(w, eid)`` for its (source, cluster) pair, in arc order: grouped
        by source (ascending), ``(w, eid)``-ascending within a source — the
        vectorized ``_lightest_per_cluster`` of the reference.
        """
        cl = cluster_arr[self.dst]
        valid = np.nonzero(cl >= 0)[0]
        if valid.size == 0:
            return self.src[valid], cl[valid], self.w[valid], self.eid[valid]
        # A stable sort by (src, cluster) keeps arc order inside each pair,
        # so every pair's lightest arc comes first.
        key = self.src[valid] * np.int64(self.n) + cl[valid]
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.empty(key.size, dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        head = np.zeros(valid.size, dtype=bool)
        head[order[first]] = True
        keep = valid[head]
        return self.src[keep], cl[keep], self.w[keep], self.eid[keep]


@obs.traced("spanner.edges")
def vectorized_spanner_edges(
    graph: Graph, k: int, rng: np.random.Generator, p: float
) -> np.ndarray:
    """Edge ids of a Baswana–Sen (2k−1)-spanner, whole-array per phase.

    Twin of the reference loops in
    :func:`repro.apsp.spanner.baswana_sen_spanner` (which documents the
    algorithm): k−1 cluster-sampling phases, then the cluster-joining phase.
    Consumes exactly one ``rng.random(#active clusters)`` draw per phase —
    the reference's coin schedule — and returns the identical sorted id set.
    """
    n = graph.n
    arcs = _ArcView(graph)
    chosen: list[np.ndarray] = []
    cluster_of = np.arange(n, dtype=np.int64)  # level 0: singletons
    active = np.ones(n, dtype=bool)

    for _phase in range(k - 1):
        centers = np.unique(cluster_of[active & (cluster_of >= 0)])
        sampled = centers[rng.random(len(centers)) < p]

        hs, hc, hw, he = arcs.lightest_per_cluster(
            np.where(active, cluster_of, -1)
        )
        in_sampled_cluster = _in_sorted(cluster_of, sampled)
        new_cluster = np.where(active & in_sampled_cluster, cluster_of, -1)

        # Heads of active nodes whose own cluster was *not* sampled drive
        # the phase; everything else keeps or loses its cluster above.
        deciding = active[hs] & ~in_sampled_cluster[hs]
        hs, hc, hw, he = hs[deciding], hc[deciding], hw[deciding], he[deciding]

        samp_head = _in_sorted(hc, sampled)
        # Lightest sampled cluster per node: heads run (w, eid)-ascending
        # within each source, so it is the node's first sampled head.
        best_w = np.full(n, np.inf)
        best_e = np.full(n, -1, dtype=np.int64)
        best_c = np.full(n, -1, dtype=np.int64)
        if samp_head.any():
            ss, sc, sw, se = hs[samp_head], hc[samp_head], hw[samp_head], he[samp_head]
            top = np.empty(ss.size, dtype=bool)
            top[0] = True
            np.not_equal(ss[1:], ss[:-1], out=top[1:])
            best_w[ss[top]] = sw[top]
            best_e[ss[top]] = se[top]
            best_c[ss[top]] = sc[top]
        has_sampled = best_c >= 0

        # No sampled neighbor cluster: keep the lightest edge to every
        # neighboring cluster and leave the clustering.
        chosen.append(he[~has_sampled[hs]])
        # Otherwise: join the lightest sampled cluster, keep its edge plus
        # every strictly (w, eid)-lighter per-cluster edge. (best_c is only
        # ever set at deciding heads, so has_sampled nodes are exactly the
        # active, unsampled-cluster nodes with a sampled neighbor cluster.)
        joiners = np.nonzero(has_sampled)[0]
        chosen.append(best_e[joiners])
        new_cluster[joiners] = best_c[joiners]
        lighter = (hw < best_w[hs]) | ((hw == best_w[hs]) & (he < best_e[hs]))
        chosen.append(he[has_sampled[hs] & lighter])

        cluster_of = new_cluster
        active = cluster_of >= 0

    # Phase 2: every node connects to each adjacent surviving cluster with
    # its lightest edge (intra-cluster edges skipped).
    hs, hc, _, he = arcs.lightest_per_cluster(np.where(active, cluster_of, -1))
    own = active[hs] & (cluster_of[hs] == hc)
    chosen.append(he[~own])

    if not chosen:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(chosen))
