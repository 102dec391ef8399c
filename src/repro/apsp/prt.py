"""Peleg–Roditty–Tal exact unweighted APSP via delayed BFS waves [PRT12].

The algorithm Theorem 4 simulates on the cluster graph:

1. A DFS from an arbitrary node assigns each node ``u`` the timestamp
   ``π(u)`` at which the DFS tour first reaches it (tour length ≤ 2(n-1)).
2. Every node starts a BFS *wave* at time ``2·π(u)``; waves flood one hop
   per round. PRT's theorem: **no node is hit by two different waves in the
   same round**, so each node forwards at most one wave origin per round and
   O(log n) bits per edge suffice.
3. Node ``v`` hit by a wave at time ``t`` learns ``d(u, v) = t - 2π(u)``.

We execute the schedule and *assert* the collision-freeness invariant —
i.e. the simulation is certified, not assumed. Virtual round count is
``max_{u,v} (2π(u) + d(u,v)) = O(n)``; the paper's Lemma 6 charges 3 real
CONGEST rounds per virtual round when run over the cluster graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.traversal import all_pairs_distances
from repro.util.errors import ProtocolError, ValidationError

__all__ = ["PRTResult", "dfs_timestamps", "prt_apsp"]


def dfs_timestamps(graph: Graph) -> np.ndarray:
    """First-visit times π(u) of an iterative DFS tour from node 0.

    The tour advances one edge per time unit; retreating along a tree edge
    also costs one unit (the walk is physical — it is executed by a token
    moving in the network), so all timestamps are ≤ 2(n-1).
    """
    indptr, indices = graph._indptr.tolist(), graph._indices.tolist()
    pi = [-1] * graph.n
    pi[0] = 0
    clock = 0
    # Iterative DFS keeping an explicit path for the retreat cost.
    stack = [(0, iter(indices[indptr[0] : indptr[1]]))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for nxt in it:
            if pi[nxt] < 0:
                clock += 1
                pi[nxt] = clock
                stack.append((nxt, iter(indices[indptr[nxt] : indptr[nxt + 1]])))
                advanced = True
                break
        if not advanced:
            stack.pop()
            if stack:
                clock += 1  # retreat edge
    if -1 in pi:
        raise ValidationError("DFS did not reach every node (disconnected?)")
    return np.array(pi, dtype=np.int64)


@dataclass
class PRTResult:
    """Exact APSP plus the certified schedule statistics."""

    dist: np.ndarray  # (n, n) exact hop distances
    pi: np.ndarray  # DFS timestamps
    virtual_rounds: int  # completion time of the last wave
    collisions_checked: bool

    @property
    def n(self) -> int:
        return self.dist.shape[0]


def prt_apsp(graph: Graph) -> PRTResult:
    """Run the PRT12 schedule and certify its no-collision invariant.

    Raises :class:`ProtocolError` if two waves would hit one node in the
    same round (PRT prove this cannot happen; hitting the assertion would
    mean our DFS timestamps violate their precondition).
    """
    pi = dfs_timestamps(graph)
    dist = all_pairs_distances(graph)
    if np.any(dist < 0):
        raise ValidationError("PRT needs a connected graph")

    # Row v holds the arrival time 2π(u) + d(u, v) of every wave u at node v
    # (d is symmetric); no collision means each sorted row is strictly
    # increasing.
    arrivals = dist + 2 * pi
    arrivals.sort(axis=1)
    collided = (arrivals[:, 1:] == arrivals[:, :-1]).any(axis=1)
    if collided.any():
        v = int(np.nonzero(collided)[0][0])
        raise ProtocolError(
            f"PRT collision at node {v}: two waves in one round "
            "(violates [PRT12] Lemma 3.1)"
        )
    virtual_rounds = int(arrivals[:, -1].max()) + 1
    return PRTResult(
        dist=dist, pi=pi, virtual_rounds=virtual_rounds, collisions_checked=True
    )
