"""Distributed item numbering over a BFS tree (Lemma 3).

Each node ``v`` holds ``x_v`` items; the protocol assigns every item a
globally unique identifier in ``[X]``, ``X = Σ x_v``, in ``O(D)`` rounds:

1. **Up phase** — convergecast of subtree item counts: each node reports
   ``x_v + Σ (children's subtree counts)`` to its parent.
2. **Down phase** — the root takes ``[1..x_root]`` for its own items and
   splits the rest among its children's subtrees in child-port order; every
   node receiving a range ``[a, b]`` does the same.

The broadcast algorithm (Theorem 1) uses this to number the k messages
``1..k`` so that message ``j`` can be deterministically assigned to spanning
subgraph ``G_{⌈j/K⌉}`` with ``K = ⌈k/λ'⌉``.
"""

from __future__ import annotations

import numpy as np

from repro.congest.network import Network
from repro.congest.program import Context, NodeProgram
from repro.congest.simulator import Simulator
from repro.graphs.graph import Graph
from repro.primitives.bfs import BFSResult
from repro.util.errors import ProtocolError, ValidationError

__all__ = ["NumberingProgram", "assign_item_numbers", "check_numbering_tree"]

_COUNT = 0
_RANGE = 1


class NumberingProgram(NodeProgram):
    """Subtree-count convergecast followed by range-splitting downcast."""

    def __init__(
        self,
        node: int,
        own_count: int,
        parent_port: int | None,
        child_ports: list[int],
        is_root: bool,
    ):
        super().__init__()
        if own_count < 0:
            raise ValidationError("item counts must be non-negative")
        self.node = node
        self.own = own_count
        self.parent_port = parent_port
        self.child_ports = list(child_ports)
        self.waiting = set(child_ports)
        self.subtree_counts: dict[int, int] = {}
        self.is_root = is_root
        self.start: int | None = None  # first id of this node's own items

    def _subtree_total(self) -> int:
        return self.own + sum(self.subtree_counts.values())

    def _split(self, ctx: Context, start: int) -> None:
        """Take own ids first, then hand each child its subtree's range."""
        self.start = start
        self.output["start"] = start
        self.output["count"] = self.own
        cursor = start + self.own
        for p in self.child_ports:
            ctx.send(p, (_RANGE, cursor))
            cursor += self.subtree_counts[p]
        ctx.halt()

    def _maybe_fire_up(self, ctx: Context) -> None:
        if self.waiting:
            return
        if self.is_root:
            self._split(ctx, start=1)  # paper numbers items 1..X
        else:
            ctx.send(self.parent_port, (_COUNT, self._subtree_total()))

    def on_start(self, ctx: Context) -> None:
        self._maybe_fire_up(ctx)

    def on_round(self, ctx: Context) -> None:
        for port, payload in ctx.inbox:
            kind, value = payload
            if kind == _COUNT:
                if port not in self.waiting:
                    raise ProtocolError(
                        f"node {self.node}: COUNT from unexpected port {port}"
                    )
                self.waiting.discard(port)
                self.subtree_counts[port] = value
                self._maybe_fire_up(ctx)
            elif kind == _RANGE:
                self._split(ctx, start=value)
            else:
                raise ProtocolError(f"unknown numbering payload kind {kind}")


def check_numbering_tree(tree: BFSResult) -> None:
    """Raise :class:`ValidationError` unless ``tree`` has one root, its
    ``root``, and ``dist`` is the BFS layering of ``parent``. Lemma 3 splits
    the ranges from ``root`` alone, and the vectorized numbering hands them
    down one ``dist`` layer at a time."""
    if not (tree.single_rooted() and tree.layered()):
        raise ValidationError(
            "numbering requires a tree with one root, layered by dist"
        )


def assign_item_numbers(
    graph: Graph, tree: BFSResult, counts: np.ndarray
) -> tuple[np.ndarray, int]:
    """Run Lemma 3 over a spanning BFS tree.

    Returns ``(starts, rounds)`` where node ``v``'s items get the contiguous
    ids ``starts[v] .. starts[v] + counts[v] - 1`` and all ids together are
    exactly ``1..X``. Rounds = 2·depth(T) + O(1).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (graph.n,):
        raise ValidationError("need one item count per node")
    if not tree.spans():
        raise ValidationError("numbering requires a spanning tree")
    check_numbering_tree(tree)
    network = Network(graph)

    def factory(v: int) -> NumberingProgram:
        parent = int(tree.parent[v])
        parent_port = None if parent == v else network.port_to(v, parent)
        child_ports = [network.port_to(v, c) for c in tree.children[v]]
        return NumberingProgram(
            v, int(counts[v]), parent_port, child_ports, is_root=(v == tree.root)
        )

    sim = Simulator(network, factory)
    result = sim.run()
    starts = np.empty(graph.n, dtype=np.int64)
    for v, prog in enumerate(result.programs):
        if prog.start is None:
            raise ProtocolError(f"node {v} never received an id range")
        starts[v] = prog.start
    # Certify global uniqueness/contiguity (the Lemma 3 guarantee).
    ids = []
    for v in range(graph.n):
        ids.extend(range(int(starts[v]), int(starts[v] + counts[v])))
    expected = list(range(1, int(counts.sum()) + 1))
    if sorted(ids) != expected:
        raise ProtocolError("identifier ranges are not a partition of [X]")
    return starts, result.metrics.rounds
