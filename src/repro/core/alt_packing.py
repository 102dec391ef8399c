"""Appendix A: the alternative low-diameter tree packing (Theorem 10).

Appendix A proves *existence* of ≥ λ spanning trees of diameter
``O((n log n)/δ)`` with per-edge congestion O(log n), via two steps:

* **Lemma 9**: every simple graph with edge connectivity λ and minimum
  degree δ is ``(λ/5, 16n/δ)``-connected — any two nodes are joined by λ/5
  edge-disjoint paths of length ≤ 16n/δ.
* **Lemma 8** (CPT20): a (k, d)-connected graph packs k spanning trees of
  diameter O(d log n) with congestion O(log n).

This module makes both halves *checkable on concrete graphs* (DESIGN.md §2
documents the substitution for CPT20's internals):

* :func:`kd_connectivity_witness` constructs edge-disjoint bounded-length
  path systems by iterated shortest-path extraction (each extracted path is
  a shortest path in the remaining graph — the same greedy/exchange
  structure as the proof of Lemma 9), certifying (k, d)-connectivity
  empirically.
* :func:`greedy_low_diameter_packing` builds the Theorem 10 object: trees
  extracted one at a time as shortest-path trees under congestion-penalized
  edge lengths, so later trees avoid loaded edges. The E12 bench reports
  (#trees, max diameter, congestion) against the (λ, O(n log n/δ), O(log n))
  targets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.core.tree_packing import SpanningTree, TreePacking
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances
from repro.util.errors import ValidationError
from repro.util.rng import ensure_rng

__all__ = [
    "PathSystem",
    "kd_connectivity_witness",
    "lemma9_parameters",
    "greedy_low_diameter_packing",
]


def lemma9_parameters(graph: Graph, lam: int) -> tuple[float, float]:
    """Lemma 9's claimed (k, d): k = λ/5 paths of length ≤ d = 16n/δ."""
    delta = graph.min_degree()
    if delta < 1:
        raise ValidationError("need δ >= 1")
    return lam / 5.0, 16.0 * graph.n / delta


@dataclass
class PathSystem:
    """Edge-disjoint u–v paths extracted from a graph."""

    u: int
    v: int
    paths: list[list[int]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.paths)

    @property
    def max_length(self) -> int:
        return max((len(p) - 1 for p in self.paths), default=0)

    def is_edge_disjoint(self) -> bool:
        seen: set[tuple[int, int]] = set()
        for path in self.paths:
            for a, b in zip(path, path[1:]):
                e = (min(a, b), max(a, b))
                if e in seen:
                    return False
                seen.add(e)
        return True


def kd_connectivity_witness(
    graph: Graph, u: int, v: int, max_paths: int | None = None
) -> PathSystem:
    """Greedy edge-disjoint shortest-path extraction between u and v.

    Repeatedly BFS in the remaining graph, record the shortest u–v path,
    delete its edges. Successive path lengths are non-decreasing — the same
    monotonicity the Lemma 9 proof engineers via its exchange argument — so
    if the first ⌈λ/5⌉ paths are short, the witness certifies
    (λ/5, ·)-connectivity with the observed max length.

    Greedy shortest-augmentation is exactly Edmonds–Karp, so it extracts a
    *maximum* edge-disjoint path system when run to exhaustion.
    """
    if u == v:
        raise ValidationError("u and v must differ")
    alive = np.ones(graph.m, dtype=bool)
    system = PathSystem(u=u, v=v)
    limit = max_paths if max_paths is not None else graph.m
    while system.count < limit:
        sub = graph.edge_subgraph(alive)
        dist = bfs_distances(sub, u)
        if dist[v] < 0:
            break
        # Walk back from v along decreasing distance.
        path = [v]
        cur = v
        while cur != u:
            nbrs = sub.neighbors(cur)
            prev = nbrs[dist[nbrs] == dist[cur] - 1]
            cur = int(prev[0])
            path.append(cur)
        path.reverse()
        for a, b in zip(path, path[1:]):
            alive[graph.edge_id(a, b)] = False
        system.paths.append(path)
    if not system.is_edge_disjoint():
        raise ValidationError("internal error: extracted paths share an edge")
    return system


def _dijkstra_tree(
    graph: Graph, root: int, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shortest-path tree under per-edge ``lengths``; returns
    ``(parent, hops, parent_edge)``."""
    n = graph.n
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    hops = np.full(n, -1, dtype=np.int64)
    dist[root] = 0.0
    parent[root] = root
    hops[root] = 0
    heap = [(0.0, root)]
    done = np.zeros(n, dtype=bool)
    while heap:
        d, x = heapq.heappop(heap)
        if done[x]:
            continue
        done[x] = True
        nbrs = graph.neighbors(x)
        eids = graph.incident_edge_ids(x)
        for y, eid in zip(nbrs.tolist(), eids.tolist()):
            nd = d + lengths[eid]
            if nd < dist[y] - 1e-12:
                dist[y] = nd
                parent[y] = x
                parent_edge[y] = eid
                hops[y] = hops[x] + 1
                heapq.heappush(heap, (nd, y))
    if np.any(parent < 0):
        raise ValidationError("graph is disconnected; cannot pack spanning trees")
    return parent, hops, parent_edge


def greedy_low_diameter_packing(
    graph: Graph,
    num_trees: int,
    roots: list[int] | None = None,
    seed=None,
) -> TreePacking:
    """Theorem 10-style packing: congestion-penalized shortest-path trees.

    Tree t is the shortest-path tree from root ``r_t`` under edge lengths
    ``1 + 2 · load(e) + ε`` (ε a tiny random jitter to break ties
    diversely); ``load(e)`` counts how many earlier trees used e. Loaded
    edges become expensive, so the packing spreads across the graph; the
    multiplicative-weights flavor is what keeps congestion logarithmic in
    practice (CPT20's Lemma 8 achieves O(log n) provably).

    Roots default to independently random nodes — a *shared* root would be
    structurally congested: every shortest-path tree from one fixed root
    attaches all root-neighbors via their direct edge (any detour costs one
    more loaded first hop plus an extra edge), so all ``deg(root)`` root
    edges would appear in every tree. Distinct roots break that symmetry.
    """
    if num_trees < 1:
        raise ValidationError("need at least one tree")
    rng = ensure_rng(seed)
    if roots is None:
        roots = [int(rng.integers(graph.n)) for _ in range(num_trees)]
    if len(roots) != num_trees:
        raise ValidationError("need one root per tree")
    load = np.zeros(graph.m, dtype=np.float64)
    trees: list[SpanningTree] = []
    for root in roots:
        jitter = rng.random(graph.m) * 1e-3
        lengths = 1.0 + 2.0 * load + jitter
        parent, hops, parent_edge = _dijkstra_tree(graph, root, lengths)
        trees.append(
            SpanningTree(root=root, parent=parent, depth_of=hops, parent_edge=parent_edge)
        )
        load[parent_edge[parent_edge >= 0]] += 1.0  # a tree holds each edge once
    count = load.astype(np.int64)
    return TreePacking(
        graph=graph, trees=trees, construction_rounds=0, edge_tree_count=count
    )
