"""Centralized BFS/traversal kernels shared by validators and applications.

These are *centralized* (single-process) routines used to (a) validate the
outputs of distributed protocols against ground truth and (b) implement the
"local computation" steps the paper's applications perform after a broadcast
(e.g. every node computing APSP on a received spanner). The distributed BFS
of Lemma 2 lives in :mod:`repro.primitives.bfs`.

BFS is the hottest kernel in the library (diameter checks run it from every
node), so :func:`bfs_distances` is a frontier-vectorized implementation over
the CSR arrays rather than a per-node Python loop. :func:`all_pairs_distances`
(PRT's exact APSP on the cluster graph, Theorem 4) goes further and runs
every source at once as a bit-parallel multi-source BFS (Then et al., "The
More the Merrier", PVLDB 2014): 64 sources share each ``uint64`` word of a
node-major frontier plane, so one CSR gather + segmented OR advances all of
them a layer. Every layer is a full pass over the arcs, so the sweep pays
off on shallow graphs such as cluster graphs and loses to the per-source
loop on deep sparse hosts, which is why diameter checks keep
:func:`bfs_distances`.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph

__all__ = [
    "bfs_distances",
    "bfs_tree",
    "all_pairs_distances",
    "eccentricity",
    "connected_components",
    "is_connected",
]

UNREACHED = -1


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source``; ``-1`` marks unreachable nodes."""
    dist = np.full(graph.n, UNREACHED, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    indptr, indices = graph._indptr, graph._indices
    d = 0
    while frontier.size:
        # Gather all frontier adjacency blocks in one vectorized sweep:
        # positions = repeat(starts, counts) + (0,1,2,... within each block).
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        base = np.repeat(starts, counts)
        block_off = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        out = indices[base + block_off]
        fresh = out[dist[out] == UNREACHED]
        if fresh.size == 0:
            break
        d += 1
        # Dedup by sort-and-diff: an O(n) full-array rescan per layer would
        # dominate on deep graphs (depth · n at n = 10⁶).
        fresh = np.sort(fresh)
        keep = np.empty(fresh.size, dtype=bool)
        keep[0] = True
        np.not_equal(fresh[1:], fresh[:-1], out=keep[1:])
        frontier = fresh[keep]
        dist[frontier] = d
    return dist


def bfs_tree(graph: Graph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """BFS parent pointers and distances from ``source``.

    Returns ``(parent, dist)``; ``parent[source] == source`` and
    ``parent[v] == -1`` for unreachable ``v``. Parents are chosen as the
    smallest-id neighbor in the previous layer, making the tree deterministic
    (matching the port-ordered distributed BFS of Lemma 2).
    """
    dist = bfs_distances(graph, source)
    parent = np.full(graph.n, UNREACHED, dtype=np.int64)
    parent[source] = source
    order = np.argsort(dist, kind="stable")
    for v in order:
        v = int(v)
        if dist[v] <= 0:
            continue
        nbrs = graph.neighbors(v)
        prev = nbrs[dist[nbrs] == dist[v] - 1]
        if prev.size:
            parent[v] = int(prev[0])
    return parent, dist


# Gathered-plane budget of one source block of :func:`all_pairs_distances`:
# a layer gathers one (arcs × words) uint64 array, so blocks hold at most
# this many cells (32 MB) whatever the graph size; tests lower it to force
# several blocks.
_APSP_MAX_CELLS = 1 << 22


def all_pairs_distances(graph: Graph) -> np.ndarray:
    """Exact unweighted APSP as an ``(n, n)`` matrix (``-1`` = unreachable).

    One bit-parallel BFS per block of sources: bit ``j`` of byte ``b`` of a
    node's frontier row stands for source ``lo + 8b + j`` (addressed through
    a ``uint8`` view, so the layout does not depend on byte order). A layer
    is one gather ``frontier[indices]`` and one ``bitwise_or.reduceat`` over
    the CSR row starts, masked by ``~visited``; the bits it sets get the
    layer number. Distances are symmetric, so a block's node-major plane is
    the output's column block as it stands.
    """
    n = graph.n
    indptr, indices = graph._indptr, graph._indices
    out = np.full((n, n), UNREACHED, dtype=np.int64)
    total_words = -(-n // 64)
    block_words = max(1, min(total_words, _APSP_MAX_CELLS // max(indices.size, 1)))
    # reduceat cannot express an empty segment, so layers reduce over the
    # rows that have arcs; an isolated row keeps only its own source bit,
    # which ~visited clears.
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])
    starts = indptr[rows]
    for w0 in range(0, total_words, block_words):
        words = min(block_words, total_words - w0)
        lo, hi = 64 * w0, min(n, 64 * (w0 + words))
        block = out[:, lo:hi]
        sources = np.arange(lo, hi)
        block[sources, sources - lo] = 0
        if indices.size == 0:
            continue
        frontier = np.zeros((n, words), dtype=np.uint64)
        bits = frontier.view(np.uint8)
        bits[sources, (sources - lo) >> 3] = np.left_shift(1, (sources - lo) & 7)
        visited = frontier.copy()
        gathered = np.empty((indices.size, words), dtype=np.uint64)
        d = 0
        while True:
            np.take(frontier, indices, axis=0, out=gathered)
            frontier[rows] = np.bitwise_or.reduceat(gathered, starts, axis=0)
            frontier &= ~visited
            if not frontier.any():
                break
            d += 1
            visited |= frontier
            fresh = np.unpackbits(bits, axis=1, bitorder="little")[:, : hi - lo]
            np.copyto(block, d, where=fresh.view(bool))
    return out


def eccentricity(graph: Graph, source: int) -> int:
    """Max hop distance from ``source``; ``-1`` if the graph is disconnected."""
    dist = bfs_distances(graph, source)
    if np.any(dist == UNREACHED):
        return -1
    return int(dist.max())


def connected_components(graph: Graph) -> np.ndarray:
    """Component label per node (labels are the component's smallest node)."""
    label = np.full(graph.n, UNREACHED, dtype=np.int64)
    for v in range(graph.n):
        if label[v] != UNREACHED:
            continue
        dist = bfs_distances(graph, v)
        label[dist != UNREACHED] = v
    return label


def is_connected(graph: Graph) -> bool:
    """True iff the graph is connected (n=1 graphs are connected)."""
    if graph.n <= 1:
        return True
    return not np.any(bfs_distances(graph, 0) == UNREACHED)
