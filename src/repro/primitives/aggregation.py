"""Tree convergecast / downcast aggregation (used by Lemma 4 and Lemma 3).

A convergecast computes an associative aggregate (min, max, or sum) of
per-node values up a rooted spanning tree in depth(T) rounds, then the root
downcasts the result in another depth(T) rounds so every node knows it.

The paper uses this shape twice in Section 2:

* Lemma 4 (first half): learn δ = min over degrees via a BFS-tree
  convergecast, then broadcast it — ``O(D)`` rounds total
  (:func:`learn_min_degree`).
* Lemma 3: subtree item-count sums on the way up, identifier-range splits on
  the way down (implemented in :mod:`repro.primitives.numbering`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.congest.network import Network
from repro.congest.program import Context, NodeProgram
from repro.congest.simulator import Simulator
from repro.graphs.graph import Graph
from repro.primitives.bfs import BFSResult, run_bfs
from repro.util.errors import ProtocolError, ValidationError

__all__ = ["ConvergecastProgram", "tree_aggregate", "learn_min_degree"]

_UP = 0
_DOWN = 1

_OPS: dict[str, Callable[[int, int], int]] = {
    "min": min,
    "max": max,
    "sum": lambda a, b: a + b,
}


class ConvergecastProgram(NodeProgram):
    """Aggregate ``value`` up a known tree, then downcast the result.

    The node-local tree structure (parent port, child ports) comes from a
    prior BFS; leaves fire immediately, internal nodes after all children
    report. The root switches to the downcast phase, after which every node
    stores the global aggregate in ``self.result``.
    """

    def __init__(
        self,
        node: int,
        value: int,
        parent_port: int | None,
        child_ports: list[int],
        op: str,
        is_root: bool,
    ):
        super().__init__()
        if op not in _OPS:
            raise ValidationError(f"unsupported op {op!r}; use one of {sorted(_OPS)}")
        self.node = node
        self.op = _OPS[op]
        self.acc = value
        self.parent_port = parent_port
        self.waiting = set(child_ports)
        self.child_ports = list(child_ports)
        self.is_root = is_root
        self.result: int | None = None

    def _maybe_fire_up(self, ctx: Context) -> None:
        if self.waiting:
            return
        if self.is_root:
            self.result = self.acc
            self.output["result"] = self.result
            msg = (_DOWN, self.result)
            for p in self.child_ports:
                ctx.send(p, msg)
            ctx.halt()
        else:
            ctx.send(self.parent_port, (_UP, self.acc))

    def on_start(self, ctx: Context) -> None:
        self._maybe_fire_up(ctx)

    def on_round(self, ctx: Context) -> None:
        for port, payload in ctx.inbox:
            kind, value = payload
            if kind == _UP:
                if port not in self.waiting:
                    raise ProtocolError(
                        f"node {self.node} got an UP from non-child port {port}"
                    )
                self.waiting.discard(port)
                self.acc = self.op(self.acc, value)
                self._maybe_fire_up(ctx)
            elif kind == _DOWN:
                self.result = value
                self.output["result"] = value
                msg = (_DOWN, value)
                for p in self.child_ports:
                    ctx.send(p, msg)
                ctx.halt()
            else:
                raise ProtocolError(f"unknown convergecast payload kind {kind}")


def tree_aggregate(
    graph: Graph,
    tree: BFSResult,
    values: np.ndarray,
    op: str = "min",
) -> tuple[int, int]:
    """Aggregate ``values`` over ``tree``; every node learns the result.

    Returns ``(aggregate, rounds)``. Rounds = 2·depth(T) + O(1).
    """
    if not tree.spans():
        raise ValidationError("aggregation requires a spanning tree")
    values = np.asarray(values)
    if values.shape != (graph.n,):
        raise ValidationError("need one value per node")
    network = Network(graph)

    def factory(v: int) -> ConvergecastProgram:
        parent = int(tree.parent[v])
        parent_port = None if parent == v else network.port_to(v, parent)
        child_ports = [network.port_to(v, c) for c in tree.children[v]]
        return ConvergecastProgram(
            v,
            int(values[v]),
            parent_port,
            child_ports,
            op,
            is_root=(v == tree.root),
        )

    sim = Simulator(network, factory)
    result = sim.run()
    answers = {p.result for p in result.programs}
    if len(answers) != 1 or None in answers:
        raise ProtocolError(f"aggregation did not converge: {answers}")
    return answers.pop(), result.metrics.rounds


def learn_min_degree(graph: Graph) -> tuple[int, int]:
    """Lemma 4 (δ half): every node learns δ in O(D) rounds.

    Returns ``(delta, total_rounds)`` where the total includes the BFS from
    node 0 that builds the aggregation tree. (The λ half of Lemma 4 relies on the
    shortcut machinery of [CPT20, GZ22]; the library instead offers the
    paper's exponential-search alternative — see
    :mod:`repro.core.lambda_search` — which needs no λ knowledge at all.)
    """
    tree = run_bfs(graph, 0)
    delta, rounds = tree_aggregate(graph, tree, graph.degrees(), op="min")
    return delta, tree.rounds + rounds
