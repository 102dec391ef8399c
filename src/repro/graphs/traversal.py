"""Centralized BFS/traversal kernels shared by validators and applications.

These are *centralized* (single-process) routines used to (a) validate the
outputs of distributed protocols against ground truth and (b) implement the
"local computation" steps the paper's applications perform after a broadcast
(e.g. every node computing APSP on a received spanner). The distributed BFS
of Lemma 2 lives in :mod:`repro.primitives.bfs`.

Two layer loops cover every BFS in the library:

* :func:`frontier_sweep` — the one loop that adopts parents. It runs over
  flat keys ``q·n + v`` (query ``q``, node ``v``), so one call serves a
  solo BFS, many BFS queries over one CSR (``queries > 1``, the query
  plane of :mod:`repro.engine.plane`) and a disjoint union of channel
  subgraphs. :func:`bfs_tree`, :func:`bfs_distances` (which returns its
  ``dist``) and the vectorized backend's sweeps all run it;
  :mod:`repro.engine.kernels` re-exports it. Its parent adoption is one
  minimum-scatter of arc positions per layer, which costs about what the
  sort that dedups a dist-only loop's frontier did, so no second loop is
  kept for dists. The winning position names the adopted arc, so a
  caller reads each tree edge's id off its CSR's edge ids.
* :func:`all_pairs_distances` — PRT's exact APSP on the cluster graph
  (Theorem 4) runs every source at once as a bit-parallel multi-source BFS
  (Then et al., "The More the Merrier", PVLDB 2014): 64 sources share each
  ``uint64`` word of a node-major frontier plane, so one CSR gather +
  segmented OR advances all of them a layer. Every layer is a full pass
  over the arcs, so the sweep pays off on shallow graphs such as cluster
  graphs and loses to the per-source loop on deep sparse hosts.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.graphs.graph import Graph
from repro.util.errors import ValidationError, integer_ids

__all__ = [
    "bfs_distances",
    "bfs_tree",
    "all_pairs_distances",
    "eccentricity",
    "connected_components",
    "expand_csr_rows",
    "frontier_sweep",
    "is_connected",
]

UNREACHED = -1


def expand_csr_rows(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat slot indices of all CSR adjacency entries of ``rows``.

    Returns ``(sel, counts)``: ``sel`` indexes the CSR data array with each
    row's block contiguous in row order and rising within the block, and
    ``counts`` is the per-row block length. Shared by every whole-frontier
    sweep in the library.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    # Entry i of a row's block sits at start + (i − the block's first flat
    # position): one repeat of that per-row shift over a flat arange.
    sel = np.arange(int(counts.sum()), dtype=np.int64)
    sel += np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return sel, counts


def frontier_sweep(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    root: int | np.ndarray,
    queries: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BFS ``(parent, dist, arc)`` over flat keys ``q·n + v``: the one layer
    loop.

    ``root`` is one start key or a sorted array of them; the outputs hold
    ``queries·n`` entries, key ``q·n + v`` being node ``v`` of query
    ``q``, and every query walks the same CSR. A parent is a node id (a
    key of the swept CSR when ``queries == 1``), a root is its own parent,
    and ``-1`` marks unreached keys. ``arc`` is the CSR position of the arc
    each key was adopted over, ``-1`` at roots and unreached keys: a
    caller whose CSR carries edge ids reads the tree edge there. A start
    key that is not an integer, or lies outside ``[0, queries·n)``,
    raises :class:`ValidationError`.

    One layer gathers the arcs of every frontier node ``v = key mod n``;
    a candidate's key is ``(key − v) + neighbor``. Candidates already
    reached drop out, and one ``np.minimum.at`` scatters each remaining
    arc's CSR position onto its candidate. Positions rise with the source
    node in every CSR swept here (host, masked, disjoint union, and the
    one CSR a plane shares), and a simple graph, its masked CSRs and the
    disjoint-union CSR hold one arc per (source, candidate) pair, so the
    winning arc comes from the candidate's **smallest** previous-layer
    neighbor — the simulator's first-port rule, since ports are numbered
    by neighbor id. The winning arcs are the next frontier, one per
    candidate. Positions start at the int64 maximum, which every position
    undercuts; after the loop one ``searchsorted`` of every adopted arc
    into ``indptr`` gives the parents, so the loop keeps two arrays, not
    three.

    Several roots of one query must lie in pairwise-disconnected
    components, as in the disjoint-union sweep of
    :func:`repro.engine.plane.masked_union_bfs`: each component then
    proceeds exactly as a solo sweep from its root would.
    """
    n = int(n)
    size = n * int(queries)
    keys = integer_ids(np.atleast_1d(root), "BFS start keys")
    if keys.size and (int(keys.min()) < 0 or int(keys.max()) >= size):
        raise ValidationError(f"BFS start key out of range [0, {size})")
    dist = np.full(size, UNREACHED, dtype=np.int64)
    arc = np.full(size, np.iinfo(np.int64).max, dtype=np.int64)
    dist[keys] = 0
    frontier = keys
    d = 0
    while frontier.size:
        obs.count("kernels.frontier_nodes", frontier.size)
        obs.count("kernels.frontier_peak", frontier.size, "max")
        obs.count("kernels.gather_layers")
        v = frontier % n if queries > 1 else frontier
        sel, counts = expand_csr_rows(indptr, v)
        cand = indices[sel]
        if queries > 1:
            cand += np.repeat(frontier - v, counts)
        fresh = dist[cand] < 0
        cand = cand[fresh]
        if not cand.size:
            break
        pos = sel[fresh]
        np.minimum.at(arc, cand, pos)
        frontier = cand[arc[cand] == pos]
        d += 1
        dist[frontier] = d
    arc[dist <= 0] = UNREACHED
    # Every arc's source in one pass; a -1 lands before row 0's start.
    parent = np.searchsorted(indptr, arc, side="right")
    parent -= 1
    parent[keys] = keys % n
    return parent, dist, arc


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source``; ``-1`` marks unreachable nodes."""
    if not 0 <= source < graph.n:
        raise ValidationError(f"source {source} out of range [0, {graph.n})")
    return frontier_sweep(graph.n, graph._indptr, graph._indices, source)[1]


def bfs_tree(graph: Graph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """BFS parent pointers and distances from ``source``.

    Returns ``(parent, dist)``; ``parent[source] == source`` and
    ``parent[v] == -1`` for unreachable ``v``. Parents are chosen as the
    smallest-id neighbor in the previous layer, making the tree deterministic
    (matching the port-ordered distributed BFS of Lemma 2). A ``source``
    outside ``[0, n)`` raises :class:`ValidationError`.
    """
    return frontier_sweep(graph.n, graph._indptr, graph._indices, source)[:2]


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
            # mode="clip": CSR neighbors are in range, and the default mode
            # would stage the output in a temporary copy.
            np.take(frontier, indices, axis=0, out=gathered, mode="clip")
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
    """Component label per node (labels are the component's smallest node).

    One pass over the nodes in id order, in O(n + m): isolated nodes are
    labeled all at once, and every other node not yet labeled starts a
    frontier sweep that touches only its own component.
    """
    indptr, indices = graph._indptr, graph._indices
    label = np.full(graph.n, UNREACHED, dtype=np.int64)
    lone = indptr[1:] == indptr[:-1]
    label[lone] = np.flatnonzero(lone)
    left = graph.n - int(lone.sum())
    for v in np.flatnonzero(~lone).tolist():
        if not left:
            break
        if label[v] != UNREACHED:
            continue
        label[v] = v
        frontier = np.array([v], dtype=np.int64)
        while frontier.size:
            left -= frontier.size
            sel, _counts = expand_csr_rows(indptr, frontier)
            out = indices[sel]
            frontier = np.unique(out[label[out] == UNREACHED])
            label[frontier] = v
    return label


def is_connected(graph: Graph) -> bool:
    """True iff the graph is connected (n=1 graphs are connected)."""
    if graph.n <= 1:
        return True
    return not np.any(bfs_distances(graph, 0) == UNREACHED)
