"""Multi-query frontier planes: one sweep answering batches of BFS queries.

Every vectorized entry point used to serve exactly one (root, channel-set)
configuration per call, so grid workloads — E16 adversary sweeps, the E17
tournament, BFS query batches — paid the whole per-call dispatch price once
per cell. This module packs many independent queries into one call of the
BFS layer loop, :func:`~repro.engine.kernels.frontier_sweep`, which runs
over flat keys ``q·n + v`` (query ``q``, node ``v``).

Two batching shapes cover every caller:

* :func:`plane_sweep` — Q queries over **one shared CSR** (same
  channel-set, different roots): one sweep with ``queries = Q`` and start
  keys ``q·n + root_q``, reshaped to dense ``(Q, n)`` parent, dist and
  adopted-arc planes.

* :func:`masked_union_bfs` — one query per **channel** of an edge-disjoint
  decomposition (the Lemma 2 parallel BFS of a tree packing). Each
  channel's masked subgraph is laid out on its own node block of one big
  CSR and a single one-query sweep serves all blocks on a shared layer
  clock.

**Bit-identity contract.** Each query's outputs equal its standalone run,
element for element: the loop's minimum-scatter adopts, per key, the arc
from the smallest previous-layer neighbor, the simulator's first-port
rule, and a minimum does not depend on the order in which the queries'
arcs reach it. The adopted arc names each tree edge, so every result
carries its ``parent_edge`` with no lookup by endpoints.

Memory is bounded by chunking query rows: :func:`plane_sweep` processes at
most ``_PLANE_MAX_CELLS`` (query × node) cells at a time, so batch sizes
far beyond the resident-plane budget stream through in slices.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.engine.kernels import frontier_sweep
from repro.util.errors import ValidationError, integer_ids

__all__ = ["masked_union_bfs", "plane_sweep"]

# Resident-plane budget: one chunk's parent, dist and adopted-arc planes
# (three int64 cells per query node) stay at 256 MB regardless of batch size.
_PLANE_MAX_CELLS = (1 << 28) // 24


def _sweep_rows(
    n: int, indptr: np.ndarray, indices: np.ndarray, roots: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One chunk of the plane: ``(Q, n)`` parent, dist and arc rows, and
    each row's depth."""
    q = int(roots.size)
    keys = np.arange(q, dtype=np.int64) * n + roots
    parent, dist, arc = frontier_sweep(n, indptr, indices, keys, queries=q)
    dist = dist.reshape(q, n)
    depth = dist.max(axis=1)
    obs.count("plane.gather_layers", int(depth.max()) + 1 if q else 0)
    obs.count("plane.cells", q * n)
    return parent.reshape(q, n), dist, arc.reshape(q, n), depth


def plane_sweep(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    roots,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched BFS over one shared CSR: ``(parent, dist, arc, rounds)``
    planes.

    ``parent``/``dist``/``arc`` have shape ``(Q, n)``; row ``i`` is
    bit-identical to ``frontier_sweep(n, indptr, indices, roots[i])``
    (``arc`` holds CSR positions of the shared CSR), and ``rounds[i]``
    is the flood's round count (:func:`~repro.primitives.bfs.run_bfs`):
    depth + 1 when the root has a usable port, else 0. Query rows are
    processed in chunks of at most ``_PLANE_MAX_CELLS // n`` (read at call
    time) so the resident working set stays bounded for arbitrarily large
    batches.
    """
    n = int(n)
    roots = integer_ids(np.atleast_1d(roots), "plane roots")
    if roots.size and (int(roots.min()) < 0 or int(roots.max()) >= n):
        raise ValidationError(f"plane root out of range [0, {n})")
    q = int(roots.size)
    chunk = max(1, _PLANE_MAX_CELLS // max(1, n))
    obs.count("plane.queries", q)
    obs.count("plane.chunks", max(1, -(-q // chunk)))
    if q <= chunk:
        parent, dist, arc, depth = _sweep_rows(n, indptr, indices, roots)
    else:
        parent = np.empty((q, n), dtype=np.int64)
        dist = np.empty((q, n), dtype=np.int64)
        arc = np.empty((q, n), dtype=np.int64)
        depth = np.empty(q, dtype=np.int64)
        for lo in range(0, q, chunk):
            hi = min(q, lo + chunk)
            parent[lo:hi], dist[lo:hi], arc[lo:hi], depth[lo:hi] = _sweep_rows(
                n, indptr, indices, roots[lo:hi]
            )
    has_port = indptr[roots + 1] > indptr[roots]
    return parent, dist, arc, np.where(has_port, depth + 1, 0)


def masked_union_bfs(graph, masks, roots) -> list:
    """BFS every ``(edge_mask, root)`` channel in one disjoint-union sweep.

    ``masks`` must be pairwise disjoint, as the channels of a Theorem 2
    decomposition are. :meth:`~repro.graphs.graph.Graph.disjoint_masked_csrs`
    builds their union CSR, with channel ``c``'s subgraph on nodes
    ``[c·n, (c+1)·n)``, and checks the disjointness. The blocks never
    touch, so a single :func:`frontier_sweep` advances every channel on a
    shared layer clock — one layer loop in total instead of one per
    channel. Within a block the parent offsets cancel, so each channel's
    slice equals its solo sweep. The union's indices are freed before
    :meth:`~repro.graphs.graph.Graph.disjoint_edge_ids` names the adopted
    arcs' host edges, so no edge-id array as long as the union is live
    during the sweep.

    Returns one :class:`~repro.primitives.bfs.BFSResult` per mask,
    bit-identical to ``run_bfs(graph, root, edge_mask=mask,
    backend="vectorized")`` (solo round accounting included). The ``dist``
    and ``parent_edge`` rows are views into the union arrays.
    """
    from repro.primitives.bfs import BFSResult

    c = len(masks)
    if len(roots) != c:
        raise ValidationError("masked_union_bfs: one root per mask required")
    n = graph.n
    roots_local = integer_ids(list(roots), "masked_union_bfs roots")
    if c and (int(roots_local.min()) < 0 or int(roots_local.max()) >= n):
        raise ValidationError("masked_union_bfs: root out of range")
    indptr, indices, arc_class = graph.disjoint_masked_csrs(list(masks))
    roots_arr = roots_local + np.arange(c, dtype=np.int64) * n
    parent, dist, arc = frontier_sweep(c * n, indptr, indices, roots_arr)
    del indices
    edge = graph.disjoint_edge_ids(arc_class, indptr, arc)
    results = []
    for ci in range(c):
        off = ci * n
        pb = parent[off : off + n]
        pc = np.where(pb >= 0, pb - off, pb)
        dc = dist[off : off + n]
        rt = int(roots_local[ci])
        rnd = int(dc.max()) + 1 if indptr[off + rt + 1] > indptr[off + rt] else 0
        results.append(
            BFSResult(
                root=rt,
                parent=pc,
                dist=dc,
                children=None,
                rounds=rnd,
                parent_edge=edge[off : off + n],
            )
        )
    return results
