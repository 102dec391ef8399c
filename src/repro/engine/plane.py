"""Multi-query frontier planes: one sweep answering batches of BFS queries.

Every vectorized entry point used to serve exactly one (root, channel-set)
configuration per call, so grid workloads — E16 adversary sweeps, the E17
tournament, BFS query batches — paid the whole per-call dispatch price once
per cell. This module packs many independent queries into one array plane
and lets a single layer loop amortize all of it, the minibatch idiom of
graph samplers applied to the CONGEST engine.

Two batching shapes cover every caller:

* :class:`QueryPlane` / :func:`plane_sweep` — Q queries over **one shared
  CSR** (same channel-set, different roots). Frontier/visited membership
  lives in bit-packed ``uint64`` planes of shape ``(Q, ceil(n/64))``: the
  bit for node ``v`` of query ``q`` is ``plane[q, v >> 6] >> (v & 63) & 1``
  (little-endian within each word). One masked gather — or, on wide
  layers, one boolean SpMV of the ``(Q, n)`` frontier matrix against the
  shared adjacency — expands every live query's frontier per layer.

* :func:`masked_union_bfs` — one query per **channel** of an edge-disjoint
  decomposition (the Lemma 2 parallel BFS of a tree packing). Each
  channel's masked subgraph is laid out on its own node block of one big
  CSR and a single :func:`~repro.engine.kernels.frontier_sweep` serves all
  blocks on a shared layer clock.

**Bit-identity contract.** Each query's outputs equal its standalone run,
element for element. The plane gather filters candidates against the
packed visited plane, stable-sorts by the flattened key ``q·n + v``, and
adopts the first occurrence per (query, node) — arcs enumerate the sorted
frontier in order, so that first arc comes from the **smallest**
previous-layer neighbor, the exact
:func:`~repro.engine.kernels.tree_parents` adoption rule of the solo
sweeps.

Memory is bounded by chunking query rows: :func:`plane_sweep` processes at
most ``max_cells`` (query × node) cells of ``int64`` plane at a time, so
batch sizes far beyond the resident-plane budget stream through in slices.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.engine import kernels
from repro.engine.kernels import expand_csr_rows, frontier_sweep, scipy_sparse
from repro.util.errors import ValidationError

__all__ = ["QueryPlane", "masked_union_bfs", "plane_sweep"]

# Default resident-plane budget: 2^24 int64 cells keep the parent+dist
# planes of one chunk at 256 MB total regardless of batch size.
_PLANE_MAX_CELLS = 1 << 24


class QueryPlane:
    """Bit-packed (queries × nodes) BFS plane over one shared CSR.

    Holds the packed ``uint64`` ``visited`` and ``frontier_mask`` planes,
    the dense ``parent``/``dist`` planes and a per-query ``rounds``
    counter. :meth:`sweep` runs every query to exhaustion on one shared
    layer clock; queries whose frontier dies simply stop contributing arcs.

    ``frontier_mask`` is materialized from the live (query, node) pair
    list on demand — the SpMV layer path uses it both to build the
    ``(Q, n)`` frontier matrix and to test previous-layer membership
    during parent adoption.
    """

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        roots,
    ) -> None:
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.roots = np.atleast_1d(np.asarray(roots, dtype=np.int64))
        if self.roots.size and (
            int(self.roots.min()) < 0 or int(self.roots.max()) >= self.n
        ):
            raise ValidationError("plane roots out of range")
        self.queries = int(self.roots.size)
        self.words = (self.n + 63) >> 6
        self.visited = np.zeros((self.queries, self.words), dtype=np.uint64)
        self.frontier_mask = np.zeros_like(self.visited)
        self.rounds = np.zeros(self.queries, dtype=np.int64)
        self.parent = np.full((self.queries, self.n), -1, dtype=np.int64)
        self.dist = np.full((self.queries, self.n), -1, dtype=np.int64)
        q = np.arange(self.queries, dtype=np.int64)
        self.dist[q, self.roots] = 0
        self._set_bits(self.visited, q, self.roots)
        # Live frontier as (query, node) pairs sorted by the key q·n + v —
        # the enumeration order every layer's adoption rule relies on.
        self._fq = q
        self._fv = self.roots.copy()
        self._swept = False

    # -- packed-plane bit helpers --------------------------------------- #

    def _set_bits(self, plane: np.ndarray, q: np.ndarray, v: np.ndarray) -> None:
        flat = q * np.int64(self.words) + (v >> 6)
        np.bitwise_or.at(
            plane.reshape(-1), flat, np.uint64(1) << (v & 63).astype(np.uint64)
        )

    def _test_bits(self, plane: np.ndarray, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        words = plane[q, v >> 6]
        return (words >> (v & 63).astype(np.uint64)) & np.uint64(1) != 0

    # -- the layer loop -------------------------------------------------- #

    def sweep(self) -> "QueryPlane":
        """Expand all live frontiers layer by layer until every query dies."""
        if self._swept:
            return self
        sp = (
            scipy_sparse()
            if self.indices.size >= kernels._SPMV_MIN_ARCS
            else None
        )
        adj = None
        d = 0
        fq, fv = self._fq, self._fv
        while fv.size:
            counts = self.indptr[fv + 1] - self.indptr[fv]
            arcs = int(counts.sum())
            if arcs == 0:
                break
            if sp is not None and arcs >= kernels._SPMV_LAYER_ARCS:
                obs.count("plane.spmv_layers")
                if adj is None:
                    adj = sp.csr_matrix(
                        (
                            np.ones(self.indices.size, dtype=bool),
                            self.indices,
                            self.indptr,
                        ),
                        shape=(self.n, self.n),
                    )
                self.frontier_mask.fill(0)
                self._set_bits(self.frontier_mask, fq, fv)
                x = sp.csr_matrix(
                    (np.ones(fv.size, dtype=bool), (fq, fv)),
                    shape=(self.queries, self.n),
                )
                y = x @ adj
                y.sort_indices()
                cq = np.repeat(
                    np.arange(self.queries, dtype=np.int64), np.diff(y.indptr)
                )
                cv = y.indices.astype(np.int64, copy=False)
                unv = ~self._test_bits(self.visited, cq, cv)
                nq, nv = cq[unv], cv[unv]
                if nq.size:
                    # Adopt the smallest previous-layer neighbor: scan each
                    # fresh node's own CSR row (ascending) against the
                    # packed frontier plane; first hit per row wins.
                    sel, fcounts, _offs = expand_csr_rows(self.indptr, nv)
                    nb = self.indices[sel]
                    rows = np.repeat(
                        np.arange(nv.size, dtype=np.int64), fcounts
                    )
                    good = np.flatnonzero(
                        self._test_bits(self.frontier_mask, nq[rows], nb)
                    )
                    gr = rows[good]
                    first = np.empty(good.size, dtype=bool)
                    first[0] = True
                    np.not_equal(gr[1:], gr[:-1], out=first[1:])
                    self.parent[nq[gr[first]], nv[gr[first]]] = nb[good[first]]
            else:
                obs.count("plane.gather_layers")
                sel, counts, _offs = expand_csr_rows(self.indptr, fv)
                cand = self.indices[sel]
                qrep = np.repeat(fq, counts)
                unv = ~self._test_bits(self.visited, qrep, cand)
                cand, qrep = cand[unv], qrep[unv]
                if cand.size == 0:
                    break
                src = np.repeat(fv, counts)[unv]
                key = qrep * np.int64(self.n) + cand
                order = np.argsort(key, kind="stable")
                skey = key[order]
                first = np.empty(skey.size, dtype=bool)
                first[0] = True
                np.not_equal(skey[1:], skey[:-1], out=first[1:])
                keep = order[first]
                nq, nv = qrep[keep], cand[keep]
                self.parent[nq, nv] = src[keep]
            if nq.size == 0:
                break
            d += 1
            self.dist[nq, nv] = d
            self.rounds[nq] = d
            self._set_bits(self.visited, nq, nv)
            fq, fv = nq, nv
        self._fq, self._fv = fq[:0], fv[:0]
        q = np.arange(self.queries, dtype=np.int64)
        self.parent[q, self.roots] = self.roots
        # Solo round accounting: depth + 1 when the root has a usable port
        # (the final round delivers the deepest layer's notifications),
        # else the protocol never starts.
        has_port = self.indptr[self.roots + 1] > self.indptr[self.roots]
        self.rounds = np.where(has_port, self.rounds + 1, 0)
        self._swept = True
        if obs.enabled():  # occupancy popcount is O(Q·n/64): only when traced
            occupied = int(
                np.bitwise_count(self.visited).sum()
                if hasattr(np, "bitwise_count")
                else np.unpackbits(
                    self.visited.view(np.uint8), bitorder="little"
                ).sum()
            )
            obs.count("plane.occupied_cells", occupied)
            obs.count("plane.cells", self.queries * self.n)
        return self


def plane_sweep(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    roots,
    max_cells: int = _PLANE_MAX_CELLS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched BFS over one shared CSR: ``(parent, dist, rounds)`` planes.

    ``parent``/``dist`` have shape ``(Q, n)``; row ``i`` is bit-identical
    to ``frontier_sweep(n, indptr, indices, roots[i])`` plus the solo
    round count of ``vectorized_bfs``. Query rows are processed in chunks
    of at most ``max_cells // n`` so the resident working set stays
    bounded for arbitrarily large batches.
    """
    roots = np.atleast_1d(np.asarray(roots, dtype=np.int64))
    q = int(roots.size)
    chunk = max(1, int(max_cells) // max(1, int(n)))
    obs.count("plane.queries", q)
    if q <= chunk:
        obs.count("plane.chunks")
        plane = QueryPlane(n, indptr, indices, roots).sweep()
        return plane.parent, plane.dist, plane.rounds
    obs.count("plane.chunks", -(-q // chunk))
    parent = np.full((q, n), -1, dtype=np.int64)
    dist = np.full((q, n), -1, dtype=np.int64)
    rounds = np.zeros(q, dtype=np.int64)
    for lo in range(0, q, chunk):
        hi = min(q, lo + chunk)
        plane = QueryPlane(n, indptr, indices, roots[lo:hi]).sweep()
        parent[lo:hi] = plane.parent
        dist[lo:hi] = plane.dist
        rounds[lo:hi] = plane.rounds
    return parent, dist, rounds


def masked_union_bfs(graph, masks, roots) -> list:
    """BFS every ``(edge_mask, root)`` channel in one disjoint-union sweep.

    ``masks`` must be pairwise disjoint, as the channels of a Theorem 2
    decomposition are: their CSRs come from the fused one-gather build in
    :meth:`~repro.graphs.graph.Graph.disjoint_masked_csrs`. Channel ``c``'s
    subgraph is laid out on nodes ``[c·n, (c+1)·n)`` of one big CSR, the
    blocks never touch, and a single :func:`frontier_sweep` advances every
    channel on a shared layer clock — one layer loop in total instead of
    one per channel. Within a block the parent offsets cancel, so each
    channel's slice equals its solo sweep.

    Returns one :class:`~repro.primitives.bfs.BFSResult` per mask,
    bit-identical to ``run_bfs(graph, root, edge_mask=mask,
    backend="vectorized")`` (solo round accounting included). The ``dist``
    rows are views into the union array.
    """
    from repro.primitives.bfs import BFSResult

    c = len(masks)
    if len(roots) != c:
        raise ValidationError("masked_union_bfs: one root per mask required")
    n = graph.n
    roots_local = np.asarray(roots, dtype=np.int64)
    if c and (int(roots_local.min()) < 0 or int(roots_local.max()) >= n):
        raise ValidationError("masked_union_bfs: root out of range")
    csrs = graph.disjoint_masked_csrs(list(masks))
    total = sum(int(ind.size) for _iptr, ind in csrs)
    big_indptr = np.zeros(c * n + 1, dtype=np.int64)
    big_indices = np.empty(total, dtype=np.int64)
    pos = 0
    for ci, (iptr, ind) in enumerate(csrs):
        big_indptr[ci * n + 1 : (ci + 1) * n + 1] = iptr[1:] + pos
        # Shift neighbor ids into the channel's block in place: at n = 10⁶
        # per-channel temporaries were hundreds of MB of throwaway arrays.
        np.add(ind, ci * n, out=big_indices[pos : pos + ind.size])
        pos += int(ind.size)
    roots_arr = roots_local + np.arange(c, dtype=np.int64) * n
    parent, dist = frontier_sweep(c * n, big_indptr, big_indices, roots_arr)
    results = []
    for ci, (iptr, _ind) in enumerate(csrs):
        off = ci * n
        pb = parent[off : off + n]
        pc = np.where(pb >= 0, pb - off, pb)
        dc = dist[off : off + n]
        rt = int(roots_local[ci])
        rnd = int(dc.max()) + 1 if int(iptr[rt + 1]) > int(iptr[rt]) else 0
        results.append(
            BFSResult(root=rt, parent=pc, dist=dc, children=None, rounds=rnd)
        )
    return results
