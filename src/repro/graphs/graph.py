"""Immutable simple-graph container used by every subsystem.

``Graph`` stores an undirected simple graph on nodes ``0..n-1`` in CSR form
(numpy arrays), which makes BFS layers, degree queries, and edge-mask
subgraph extraction vectorizable — the hot paths identified by profiling the
CONGEST simulator (see DESIGN.md §6 and the hpc-parallel guide's
"measure, then optimize the bottleneck" workflow).

Design points:

* **Edges are first-class**: each undirected edge has an integer id
  ``0..m-1``; adjacency entries carry the edge id so protocols can map a
  neighbor slot back to the edge (needed for the Theorem 2 edge coloring,
  where the *edge*, not the endpoint, owns the random color).
* **Immutability**: algorithms never mutate a graph; they derive subgraphs
  via :meth:`Graph.edge_subgraph` (same node set, subset of edges), which is
  exactly the object Theorem 2's color classes are.
* **Weights** are optional (`None` for unweighted); weighted graphs are used
  by the spanner/sparsifier applications.
* **One sort** builds the CSR: a single argsort of the 2m directed-arc keys
  ``u·n + v`` gives the neighbor order, the edge ids and the parallel-edge
  check; the keys die with the constructor. Like the dgl
  ``ImmutableGraphIndex``, the CSR carries each arc's edge id beside
  ``indptr`` and ``indices``, so a BFS tree names its edges from the arcs
  it adopted and nothing searches by endpoints. An int64 graph holds 48
  bytes per edge: ``edge_u`` and ``edge_v`` (8 each) and the 2m-long
  ``_indices`` and ``_adj_edge_id`` (16 each), plus ``_indptr``'s 8 per
  node. Derived views (arc sources, arc twins, masked CSRs) are built on
  first use and kept in one ``_cache``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.util.errors import ValidationError

__all__ = ["Graph"]

# Masked-CSR cache bound: oldest entries are evicted FIFO past this many masks.
_MASKED_CSR_CACHE_LIMIT = 64


class Graph:
    """An undirected simple graph on nodes ``0..n-1`` with optional weights.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        Iterable of ``(u, v)`` pairs, ``0 <= u, v < n``, ``u != v``. Parallel
        edges and self-loops are rejected (the paper's results are for simple
        graphs — footnote 1 of Lemma 5 breaks for multigraphs).
    weights:
        Optional per-edge positive weights, aligned with ``edges``.

    The constructor validates in a fixed order and reports the first fault
    it meets: node count, edge shape, endpoint range, self-loops, parallel
    edges, then the weights' shape and sign. It sorts once: arc ``i < m``
    runs ``u_i → v_i`` and arc ``m + i`` runs back, and one argsort of
    their keys ``row·n + col`` yields the CSR. The sorted keys mod ``n``
    are ``_indices``, the sort order folded mod ``m`` is ``_adj_edge_id``
    (the CSR's edge ids), and ``_indptr`` comes from endpoint counts. No
    temporary outlives its last use, and the keys are not kept: the graph
    holds 48 bytes per edge. Views derived from the CSR live in one
    ``_cache``.
    """

    __slots__ = (
        "n",
        "m",
        "edge_u",
        "edge_v",
        "weights",
        "_indptr",
        "_indices",
        "_adj_edge_id",
        "_cache",
        "masked_csr_hits",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: Sequence[float] | np.ndarray | None = None,
    ):
        if n < 1:
            raise ValidationError(f"graph needs at least one node, got n={n}")
        n = int(n)
        if isinstance(edges, np.ndarray):
            edge_arr = edges.astype(np.int64, copy=False)
        else:
            edge_arr = np.asarray(list(edges), dtype=np.int64)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise ValidationError("edges must be (u, v) pairs")
        u = np.minimum(edge_arr[:, 0], edge_arr[:, 1])
        v = np.maximum(edge_arr[:, 0], edge_arr[:, 1])
        del edge_arr  # an int64 copy of a converted input dies here
        m = len(u)
        if m and (u.min() < 0 or v.max() >= n):
            raise ValidationError("edge endpoint out of range")
        if np.any(u == v):
            raise ValidationError("self-loops are not allowed in a simple graph")
        # Arc keys row·n + col are unique exactly when the graph is simple,
        # so the one argsort orders every CSR block by neighbor id (the
        # CONGEST layer's port numbering), and adjacent equal sorted keys
        # are the parallel-edge check.
        keys = np.empty(2 * m, dtype=np.int64)
        np.multiply(u, n, out=keys[:m])
        keys[:m] += v
        np.multiply(v, n, out=keys[m:])
        keys[m:] += u
        order = np.argsort(keys)
        arc_keys = keys[order]
        del keys
        if np.any(arc_keys[1:] == arc_keys[:-1]):
            raise ValidationError("parallel edges are not allowed in a simple graph")
        np.remainder(arc_keys, n, out=arc_keys)

        self.n = n
        self.m = m
        self.edge_u = u
        self.edge_v = v

        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (self.m,):
                raise ValidationError(
                    f"weights shape {w.shape} does not match m={self.m}"
                )
            if np.any(w <= 0):
                raise ValidationError("edge weights must be positive")
            self.weights = w
        else:
            self.weights = None

        # Folded in place, the sort order becomes _adj_edge_id, and the
        # keys (reduced mod n above) become _indices.
        if m:
            np.remainder(order, m, out=order)
        self._adj_edge_id = order
        self._indices = arc_keys
        deg = np.bincount(u, minlength=n)
        deg += np.bincount(v, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        self._indptr = indptr
        # Every view derived on first use: "arc_sources", "arc_twins", and
        # one frozen masked CSR per bit-packed mask (bytes keys).
        self._cache: dict = {}
        self.masked_csr_hits = 0  # cache-hit counter (observable by tests)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def degree(self, v: int) -> int:
        """Number of edges incident to ``v``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Degree of every node, as an ``(n,)`` array."""
        return np.diff(self._indptr)

    def min_degree(self) -> int:
        """The paper's δ. Zero-degree nodes are legal in subgraphs."""
        return int(self.degrees().min()) if self.n else 0

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of ``v`` (a view — do not mutate)."""
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def incident_edge_ids(self, v: int) -> np.ndarray:
        """Edge ids aligned with :meth:`neighbors` (a view)."""
        return self._adj_edge_id[self._indptr[v] : self._indptr[v + 1]]

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        """The ``(u, v)`` endpoints of edge ``eid`` with ``u < v``."""
        return int(self.edge_u[eid]), int(self.edge_v[eid])

    def edge_weight(self, eid: int) -> float:
        return 1.0 if self.weights is None else float(self.weights[eid])

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < len(nbrs) and nbrs[i] == v

    def edge_id(self, u: int, v: int) -> int:
        """Edge id of ``{u, v}``; raises ``KeyError`` if absent."""
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        if i >= len(nbrs) or nbrs[i] != v:
            raise KeyError(f"no edge {{{u}, {v}}}")
        return int(self.incident_edge_ids(u)[i])

    def arc_sources(self) -> np.ndarray:
        """Source node of each directed arc, aligned with the CSR arrays.

        ``arc_sources()[i]`` is the node whose adjacency block position
        ``i`` falls in — i.e. ``repeat(arange(n), degrees)`` — memoized
        because every whole-array sweep over the adjacency needs it.
        """
        hit = self._cache.get("arc_sources")
        if hit is None:
            hit = self._cache["arc_sources"] = np.repeat(
                np.arange(self.n), np.diff(self._indptr)
            )
        return hit

    def arc_twins(self) -> np.ndarray:
        """Index of each directed arc's reverse arc, aligned with the CSR.

        For the arc at position ``i`` from ``v`` to ``u``, ``arc_twins()[i]``
        is the position of the arc from ``u`` to ``v``. Each edge id occurs
        at exactly two positions of ``_adj_edge_id``, its two arcs, so one
        argsort of the edge ids pairs every arc with its twin. Memoized and
        built on first use: only the simulator's port table reads it.
        """
        hit = self._cache.get("arc_twins")
        if hit is None:
            pairs = np.argsort(self._adj_edge_id, kind="stable").reshape(-1, 2)
            hit = np.empty(2 * self.m, dtype=np.int64)
            hit[pairs[:, 0]] = pairs[:, 1]
            hit[pairs[:, 1]] = pairs[:, 0]
            self._cache["arc_twins"] = hit
        return hit

    def masked_csr(
        self, edge_mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices, edge_ids)`` of the subgraph keeping only
        masked edges: ``edge_ids[i]`` is the host edge of arc ``i``.

        Neighbor order inside each block is preserved (sorted by id), so the
        smallest-port tie-break of the CONGEST layer survives the filtering.
        Results are **memoized per (graph, mask) pair** because callers of
        this method come back to the same mask: a fault plan's
        dead-edge-subtracted CSR is asked for by every faulty BFS and every
        fault grid run under that plan, and a solo BFS channel mask by every
        sweep over it. Keys are bit-packed (m/8 bytes) and ``_cache`` holds
        the most recent ``_MASKED_CSR_CACHE_LIMIT`` masks, so one-shot masks
        cannot pin memory forever. ``masked_csr_hits`` counts cache hits.
        The disjoint-union builder :meth:`disjoint_masked_csrs` does not
        memoize. ``edge_mask=None`` returns the full adjacency (never
        copied).
        """
        if edge_mask is None:
            return self._indptr, self._indices, self._adj_edge_id
        mask = self._checked_mask(edge_mask)
        key = np.packbits(mask).tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            self.masked_csr_hits += 1
            obs.count("graph.masked_csr_hits")
            return hit
        allowed = mask[self._adj_edge_id]
        csr = (*self._compress_arcs(allowed), self._adj_edge_id[allowed])
        masks = [k for k in self._cache if isinstance(k, bytes)]
        for old in masks[: max(0, len(masks) + 1 - _MASKED_CSR_CACHE_LIMIT)]:
            del self._cache[old]
        # The same arrays are handed to every caller: freeze them so an
        # in-place edit cannot silently corrupt the cache.
        for arr in csr:
            arr.setflags(write=False)
        self._cache[key] = csr
        return csr

    def _checked_mask(self, edge_mask: np.ndarray) -> np.ndarray:
        """``edge_mask`` as a boolean array, checked to be one flag per edge."""
        mask = np.asarray(edge_mask, dtype=bool)
        if mask.shape != (self.m,):
            raise ValidationError(
                f"edge mask shape {mask.shape} does not match m={self.m}"
            )
        return mask

    def _compress_arcs(self, allowed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fresh CSR of the adjacency compressed to the ``allowed`` arcs."""
        obs.count("graph.masked_csr_misses")
        indices = self._indices[allowed]
        # Per-row survivor counts as a segment sum of the allowed flags over
        # each adjacency block — the arcs of node v are exactly
        # [indptr[v], indptr[v+1]), so this equals
        # bincount(arc_sources()[allowed]) without a second 2m-element
        # compress. reduceat cannot express an empty segment (it yields
        # a[start]), so it runs over the rows that have arcs: their starts
        # are strictly increasing and each segment ends where the next
        # non-empty row begins.
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        rows = np.flatnonzero(np.diff(self._indptr))
        if rows.size:
            counts = np.zeros(self.n, dtype=np.int64)
            counts[rows] = np.add.reduceat(allowed, self._indptr[rows], dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
        return indptr, indices

    def mask_labels(self, edge_masks: list[np.ndarray]) -> np.ndarray:
        """Each edge's class among pairwise-disjoint masks: ``c + 1`` for
        an edge of ``edge_masks[c]``, 0 for an edge in none.

        One pass of small-int arithmetic per mask adds its label where the
        mask holds, and the same pass counts the mask's edges. An edge in
        two masks is counted twice there but once among the nonzero labels
        (a sum of positive labels that wraps to 0 only lowers that count),
        so one comparison raises ``ValidationError`` on any overlap: the
        Theorem 2 invariant is checked rather than assumed. The dtype is
        the smallest unsigned one that holds the class count.
        """
        masks = [self._checked_mask(edge_mask) for edge_mask in edge_masks]
        dtype = np.min_scalar_type(len(masks))
        label = np.zeros(self.m, dtype=dtype)
        total = 0
        for c, mask in enumerate(masks, start=1):
            label += mask * dtype.type(c)
            total += np.count_nonzero(mask)
        if np.count_nonzero(label) != total:
            raise ValidationError("edge masks must be pairwise disjoint")
        return label

    def disjoint_masked_csrs(
        self, edge_masks: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices, arc_class)`` of the disjoint union of
        masked copies.

        Class ``c`` (the edges of ``edge_masks[c]``, which must be pairwise
        disjoint) takes nodes ``[c·n, (c+1)·n)``, so block ``c`` equals
        :meth:`masked_csr` of that mask with every index shifted by
        ``c·n``. The union is built straight into its own arrays: the
        labels of :meth:`mask_labels` (which raises on an overlap), one
        gather of them onto the arcs, then per class one ``flatnonzero``
        of its arcs, one ``searchsorted`` of those positions into the host
        ``indptr`` (the block's row boundaries) and one shifted ``take`` of
        their neighbors. Nothing is memoized: the caller, the parallel BFS
        of one packing attempt's colour classes, sweeps each decomposition
        once, so a cached entry would only hold memory. Each class block
        counts one ``graph.masked_csr_misses``.

        The union carries no edge-id array: a second array as long as
        ``indices`` would be live through the whole sweep. ``arc_class``,
        each host arc's class label (``c + 1``, or 0 for none) in the
        smallest unsigned dtype, is what :meth:`disjoint_edge_ids` needs to
        name the edge behind any adopted union arc once ``indices`` is freed.
        """
        edge_masks = list(edge_masks)
        n = self.n
        label = self.mask_labels(edge_masks)
        arc_class = label[self._adj_edge_id]
        indptr = np.zeros(len(edge_masks) * n + 1, dtype=np.int64)
        indices = np.empty(2 * np.count_nonzero(label), dtype=np.int64)
        del label
        pos = 0
        for c in range(len(edge_masks)):
            obs.count("graph.masked_csr_misses")
            arcs = np.flatnonzero(arc_class == c + 1)
            block = indices[pos : pos + arcs.size]
            np.add(
                np.searchsorted(arcs, self._indptr[1:]),
                pos,
                out=indptr[c * n + 1 : (c + 1) * n + 1],
            )
            # mode="clip": the positions are in range, and the default
            # mode would stage the output in a temporary copy.
            np.take(self._indices, arcs, out=block, mode="clip")
            block += c * n
            pos += arcs.size
        return indptr, indices, arc_class

    def disjoint_edge_ids(
        self, arc_class: np.ndarray, indptr: np.ndarray, arc: np.ndarray
    ) -> np.ndarray:
        """Host edge id of the arc each union key was adopted over, ``-1``
        kept.

        ``arc_class`` and ``indptr`` are what :meth:`disjoint_masked_csrs`
        returned, and ``arc`` holds one union arc position (or ``-1``) per
        union key, as a sweep over the union returns it. Block ``c`` lists
        the host arcs of class ``c + 1`` in host order, so its position
        ``p`` is the ``(p − indptr[c·n])``-th of them: one ``flatnonzero``
        of the class per block that holds a position recovers the host
        arcs, and ``_adj_edge_id`` their edges.
        """
        n = self.n
        out = np.full(arc.shape, -1, dtype=np.int64)
        for c in range((indptr.size - 1) // n):
            block = arc[c * n : (c + 1) * n]
            keys = np.flatnonzero(block >= 0)
            if keys.size:
                arcs = np.flatnonzero(arc_class == c + 1)
                out[c * n + keys] = self._adj_edge_id[
                    arcs[block[keys] - indptr[c * n]]
                ]
        return out

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges as ``(u, v)`` with ``u < v``."""
        for eid in range(self.m):
            yield int(self.edge_u[eid]), int(self.edge_v[eid])

    def total_weight(self) -> float:
        if self.weights is None:
            return float(self.m)
        return float(self.weights.sum())

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #

    def edge_subgraph(self, edge_mask: np.ndarray) -> "Graph":
        """Spanning-node subgraph keeping only edges where ``edge_mask`` is True.

        This is the object Theorem 2 manipulates: same node set ``V``, edge
        set ``E_i ⊆ E``. Edge ids are *renumbered* in the subgraph; use
        :meth:`edge_subgraph_with_map` when the original ids are needed.
        """
        sub, _ = self.edge_subgraph_with_map(edge_mask)
        return sub

    def edge_subgraph_with_map(
        self, edge_mask: np.ndarray
    ) -> tuple["Graph", np.ndarray]:
        """Like :meth:`edge_subgraph`, also returning original edge ids.

        Returns ``(subgraph, orig_ids)`` where ``orig_ids[i]`` is the id in
        ``self`` of the subgraph's edge ``i``.
        """
        mask = np.asarray(edge_mask, dtype=bool)
        if mask.shape != (self.m,):
            raise ValidationError(
                f"edge mask shape {mask.shape} does not match m={self.m}"
            )
        ids = np.nonzero(mask)[0]
        pairs = np.stack([self.edge_u[ids], self.edge_v[ids]], axis=1)
        w = None if self.weights is None else self.weights[ids]
        sub = Graph(self.n, pairs, weights=w)
        return sub, ids

    def reweighted(self, weights: Sequence[float] | np.ndarray) -> "Graph":
        """Copy of this graph with new per-edge weights."""
        pairs = np.stack([self.edge_u, self.edge_v], axis=1)
        return Graph(self.n, pairs, weights=np.asarray(weights, dtype=np.float64))

    def unweighted(self) -> "Graph":
        """Copy of this graph with weights dropped."""
        pairs = np.stack([self.edge_u, self.edge_v], axis=1)
        return Graph(self.n, pairs)

    # ------------------------------------------------------------------ #
    # interop
    # ------------------------------------------------------------------ #

    def to_networkx(self):
        """Convert to :class:`networkx.Graph` (weights as ``weight`` attr)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        if self.weights is None:
            g.add_edges_from(zip(self.edge_u.tolist(), self.edge_v.tolist()))
        else:
            g.add_weighted_edges_from(
                zip(self.edge_u.tolist(), self.edge_v.tolist(), self.weights.tolist())
            )
        return g

    @classmethod
    def from_networkx(cls, g) -> "Graph":
        """Build from a :class:`networkx.Graph` with integer nodes 0..n-1.

        Nodes are relabelled to ``0..n-1`` in sorted order if necessary;
        ``weight`` attributes (when present on every edge) become weights.
        """
        nodes = sorted(g.nodes())
        relabel = {u: i for i, u in enumerate(nodes)}
        edges = []
        weights = []
        weighted = all("weight" in d for _, _, d in g.edges(data=True)) and g.number_of_edges() > 0
        for u, v, data in g.edges(data=True):
            edges.append((relabel[u], relabel[v]))
            if weighted:
                weights.append(float(data["weight"]))
        return cls(len(nodes), edges, weights=weights if weighted else None)

    def to_scipy_csr(self):
        """Symmetric scipy CSR adjacency (weights, or 1s if unweighted)."""
        from scipy.sparse import csr_matrix

        w = self.weights if self.weights is not None else np.ones(self.m)
        row = np.concatenate([self.edge_u, self.edge_v])
        col = np.concatenate([self.edge_v, self.edge_u])
        dat = np.concatenate([w, w])
        return csr_matrix((dat, (row, col)), shape=(self.n, self.n))

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        kind = "weighted" if self.is_weighted else "unweighted"
        return f"Graph(n={self.n}, m={self.m}, {kind})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        a = b = slice(None)
        if not (
            np.array_equal(self.edge_u, other.edge_u)
            and np.array_equal(self.edge_v, other.edge_v)
        ):
            # Edge order may differ; compare canonical sorted edge sets.
            a = np.lexsort((self.edge_v, self.edge_u))
            b = np.lexsort((other.edge_v, other.edge_u))
            if not (
                np.array_equal(self.edge_u[a], other.edge_u[b])
                and np.array_equal(self.edge_v[a], other.edge_v[b])
            ):
                return False
        # Weights compare edge by edge in that same canonical order.
        return self.weights is None or np.array_equal(
            self.weights[a], other.weights[b], equal_nan=True
        )

    def __hash__(self):
        return hash((self.n, self.m))
