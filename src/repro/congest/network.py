"""Port-numbered communication network wrapping a :class:`Graph`.

In the CONGEST model a node does not a-priori know its neighbors' IDs; it
owns *ports* ``0..deg(v)-1``, one per incident edge. The :class:`Network`
fixes a deterministic port numbering (ports sorted by neighbor id, which the
CSR layout of :class:`Graph` already provides) and exposes the three lookups
every protocol needs:

* ``neighbor(v, port)``   — who is at the other end of a port,
* ``port_to(v, u)``       — which local port reaches a known neighbor,
* ``edge_of_port(v, port)`` — the global edge id (used to intersect with the
  Theorem 2 color classes, which are sets of *edges*).

Protocols are free to learn neighbor IDs by exchanging them in round one
(an O(1)-round, O(log n)-bit-per-edge step), matching standard CONGEST
conventions.

The lookups read per-arc Python lists built once per network: arc ``a`` of
node ``v`` is ``arc_start[v] + port``, and ``arc_head``, ``arc_edge`` and
``arc_back_port`` give its far end, its edge id and the far end's port back
to ``v``. The simulator routes every message through the same lists, so a
send costs list reads rather than numpy scalar calls. They live on the
network, not the graph, so a large host used only by whole-array sweeps
never holds them.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.graphs.graph import Graph
from repro.util.errors import ValidationError

__all__ = ["Network"]


class Network:
    """Immutable port-numbered view of a graph."""

    __slots__ = ("graph", "n", "arc_start", "arc_head", "arc_edge", "arc_back_port")

    def __init__(self, graph: Graph):
        self.graph = graph
        self.n = graph.n
        indptr, indices = graph._indptr, graph._indices
        self.arc_start: list[int] = indptr.tolist()
        self.arc_head: list[int] = indices.tolist()
        self.arc_edge: list[int] = graph._adj_edge_id.tolist()
        self.arc_back_port: list[int] = (graph.arc_twins() - indptr[indices]).tolist()

    def _check_node(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValidationError(f"node {v} out of range [0, {self.n})")

    def _arc(self, v: int, port: int) -> int:
        """Arc index of ``(v, port)``."""
        self._check_node(v)
        start = self.arc_start[v]
        if not (0 <= port < self.arc_start[v + 1] - start):
            raise ValidationError(f"node {v} has no port {port}")
        return start + port

    def degree(self, v: int) -> int:
        self._check_node(v)
        return self.arc_start[v + 1] - self.arc_start[v]

    def neighbor(self, v: int, port: int) -> int:
        """Node at the far end of ``(v, port)``."""
        return self.arc_head[self._arc(v, port)]

    def port_to(self, v: int, u: int) -> int:
        """Local port of ``v`` whose edge reaches ``u``."""
        self._check_node(v)
        lo, hi = self.arc_start[v], self.arc_start[v + 1]
        a = bisect_left(self.arc_head, u, lo, hi)
        if a == hi or self.arc_head[a] != u:
            raise ValidationError(f"{u} is not a neighbor of {v}")
        return a - lo

    def edge_of_port(self, v: int, port: int) -> int:
        """Global edge id behind ``(v, port)``."""
        return self.arc_edge[self._arc(v, port)]

    def ports_for_edges(self, v: int, edge_ids) -> list[int]:
        """Ports of ``v`` whose edges are in ``edge_ids`` (for color classes).

        ``edge_ids`` may be a boolean edge mask of shape ``(m,)`` (one fancy
        gather), or any set/sequence of edge ids (``np.isin`` over the port
        edge-id array). Both are vectorized — this is called O(n·λ') times
        during parallel-BFS setup, so the old per-port Python loop dominated
        channel construction.
        """
        self._check_node(v)
        eids = self.graph.incident_edge_ids(v)
        if isinstance(edge_ids, np.ndarray) and edge_ids.dtype == np.bool_:
            if edge_ids.shape != (self.graph.m,):
                raise ValidationError(
                    f"edge mask shape {edge_ids.shape} does not match "
                    f"m={self.graph.m}"
                )
            selected = edge_ids[eids]
        else:
            if isinstance(edge_ids, (set, frozenset)):
                edge_ids = np.fromiter(
                    edge_ids, dtype=np.int64, count=len(edge_ids)
                )
            ids = np.asarray(edge_ids, dtype=np.int64)
            if (
                ids.shape == (self.graph.m,)
                and ids.size > 2
                and np.isin(ids, (0, 1)).all()
            ):
                raise ValidationError(
                    "ambiguous edge selector: a 0/1 sequence of length m "
                    "looks like a mask but is not bool-typed; pass a bool "
                    "mask or explicit edge ids"
                )
            selected = np.isin(eids, ids)
        return np.nonzero(selected)[0].tolist()
