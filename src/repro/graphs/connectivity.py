"""Exact edge-connectivity computation (the paper's λ).

λ drives everything in the paper: the number of color classes in Theorem 2 is
``λ/(C log n)`` and the broadcast bound is ``Õ((n+k)/λ)``. The benchmark
harness therefore needs *certified* λ values for its workloads, not
estimates. We implement:

* :func:`local_edge_connectivity` — unit-capacity max-flow between two nodes
  (Edmonds–Karp: BFS augmenting paths, so each augmentation is a shortest
  path), with an optional ``cutoff`` for early termination;
* :func:`edge_connectivity` — global λ as ``min_v maxflow(s, v)`` from a
  minimum-degree node ``s``, with the running minimum used as the cutoff
  (the standard Even–Tarjan scheme);
* :func:`min_cut` — a concrete minimum cut ``(S, cut_edge_ids)``, the witness
  set the Theorem 3 / Theorem 8 lower-bound harnesses count bits across;
* :func:`stoer_wagner` — weighted global min cut, used by the cut-sparsifier
  validators on weighted graphs.

Cross-checks against :func:`networkx.edge_connectivity` live in the tests.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graphs.graph import Graph
from repro.util.errors import ValidationError

__all__ = [
    "local_edge_connectivity",
    "edge_connectivity",
    "min_cut",
    "stoer_wagner",
    "greedy_dominating_set",
]


class _UnitFlowNetwork:
    """Residual network for unit-capacity undirected max-flow.

    Each undirected edge becomes two directed arcs with capacity 1 each
    (the correct reduction for *edge*-connectivity in undirected graphs).
    Arc ``2e`` runs u→v, arc ``2e+1`` runs v→u; ``flow`` is +1/-1/0 per arc
    pair encoded as a single int per undirected edge: residual capacity of
    u→v is ``1 - f`` and of v→u is ``1 + f`` with ``f ∈ {-1, 0, 1}``.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.f = np.zeros(graph.m, dtype=np.int8)

    def reset(self) -> None:
        self.f[:] = 0

    def residual(self, eid: int, from_u: bool) -> int:
        return 1 - self.f[eid] if from_u else 1 + self.f[eid]

    def push(self, eid: int, from_u: bool) -> None:
        self.f[eid] += 1 if from_u else -1

    def bfs_augment(self, s: int, t: int) -> bool:
        """Find one shortest augmenting path and push a unit of flow."""
        g = self.graph
        prev_edge = np.full(g.n, -1, dtype=np.int64)
        prev_node = np.full(g.n, -1, dtype=np.int64)
        prev_edge[s] = -2
        queue = deque([s])
        while queue:
            v = queue.popleft()
            if v == t:
                break
            nbrs = g.neighbors(v)
            eids = g.incident_edge_ids(v)
            for w, eid in zip(nbrs.tolist(), eids.tolist()):
                if prev_edge[w] != -1:
                    continue
                from_u = g.edge_u[eid] == v
                if self.residual(eid, from_u) > 0:
                    prev_edge[w] = eid
                    prev_node[w] = v
                    queue.append(w)
        if prev_edge[t] == -1:
            return False
        v = t
        while v != s:
            eid = int(prev_edge[v])
            u = int(prev_node[v])
            self.push(eid, from_u=(self.graph.edge_u[eid] == u))
            v = u
        return True


def _scipy_unit_maxflow(graph: Graph, s: int, t: int):
    """Unit-capacity max flow via scipy's Cython Dinic implementation.

    Returns ``(flow_value, flow_matrix)`` where ``flow_matrix`` is the
    directed sparse flow (for residual reachability).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    row = np.concatenate([graph.edge_u, graph.edge_v])
    col = np.concatenate([graph.edge_v, graph.edge_u])
    cap = np.ones(2 * graph.m, dtype=np.int32)
    csgraph = csr_matrix((cap, (row, col)), shape=(graph.n, graph.n))
    result = maximum_flow(csgraph, s, t)
    return int(result.flow_value), result.flow


def local_edge_connectivity(
    graph: Graph,
    s: int,
    t: int,
    cutoff: int | None = None,
    method: str = "scipy",
) -> int:
    """Max number of edge-disjoint s–t paths (= s–t edge connectivity).

    ``method="scipy"`` (default) uses scipy's compiled Dinic max-flow;
    ``method="reference"`` runs the pure-Python Edmonds–Karp in this module
    (the tests cross-validate the two). ``cutoff`` (reference method only)
    stops early once the flow reaches that value.
    """
    if s == t:
        raise ValidationError("s and t must differ")
    if method == "scipy":
        value, _ = _scipy_unit_maxflow(graph, s, t)
        return value
    if method == "reference":
        net = _UnitFlowNetwork(graph)
        flow = 0
        limit = cutoff if cutoff is not None else graph.m + 1
        while flow < limit and net.bfs_augment(s, t):
            flow += 1
        return flow
    raise ValidationError(f"unknown method {method!r}")


def greedy_dominating_set(graph: Graph) -> list[int]:
    """Greedy dominating set (max-residual-coverage first).

    Matula's reduction computes λ with ``|D|`` max-flows instead of ``n``;
    for the d-regular workloads of the experiment suite ``|D| = O(n log d/d)``.
    """
    covered = np.zeros(graph.n, dtype=bool)
    dom: list[int] = []
    # Precompute coverage counts; greedy with lazy updates.
    order = np.argsort(-graph.degrees(), kind="stable")
    for v in order:
        v = int(v)
        if covered[v] and bool(covered[graph.neighbors(v)].all()):
            continue
        dom.append(v)
        covered[v] = True
        covered[graph.neighbors(v)] = True
        if covered.all():
            break
    return dom


def edge_connectivity(graph: Graph) -> int:
    """Global edge connectivity λ (0 for disconnected graphs, n=1 → 0).

    Each max-flow runs on scipy's compiled Dinic (the default method of
    :func:`local_edge_connectivity`). Uses Matula's dominating-set reduction: for any dominating set ``D`` and
    any ``s ∈ D``, ``λ = min(δ, min_{v ∈ D\\{s}} maxflow(s, v))``. The key
    fact is that when λ < δ, both sides of a minimum cut contain more than δ
    nodes and hence (every node being dominated) both sides intersect D.
    """
    if graph.n <= 1:
        return 0
    degs = graph.degrees()
    if degs.min() == 0:
        return 0
    dom = greedy_dominating_set(graph)
    s = dom[0]
    best = int(degs.min())  # λ <= δ always
    for t in dom[1:]:
        if best == 0:
            break
        best = min(best, local_edge_connectivity(graph, s, t))
    # A dominating set can be a single node (s adjacent to everyone); λ = δ
    # is then correct only if no non-degree cut is smaller, which requires
    # checking s against a second node. Handle |D| == 1 explicitly.
    if len(dom) == 1:
        for t in range(graph.n):
            if t != s:
                best = min(best, local_edge_connectivity(graph, s, t))
                break
    return best


def _residual_reachable(graph: Graph, flow, s: int) -> np.ndarray:
    """Nodes reachable from ``s`` in the residual of a scipy flow matrix."""
    from scipy.sparse import csr_matrix

    # Residual capacity of arc (u, v) = cap(u, v) - flow(u, v); with unit
    # symmetric capacities, residual(u→v) = 1 - flow[u, v] (flow is
    # antisymmetric in scipy's output).
    flow = flow.tocsr()
    seen = np.zeros(graph.n, dtype=bool)
    seen[s] = True
    stack = [s]
    while stack:
        v = stack.pop()
        nbrs = graph.neighbors(v)
        if len(nbrs) == 0:
            continue
        fv = np.asarray(flow[v, nbrs].todense()).ravel()
        usable = nbrs[(1 - fv) > 0]
        for w in usable.tolist():
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return seen


def min_cut(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """A concrete minimum edge cut: ``(side_mask, cut_edge_ids)``.

    ``side_mask`` is the boolean indicator of the source-side set ``S`` and
    ``cut_edge_ids`` the ids of the ``λ`` edges crossing ``E(S, V\\S)``.
    This is the witness the Theorem 3 information-theoretic bound is charged
    against.
    """
    if graph.n <= 1:
        raise ValidationError("min cut undefined for single-node graphs")
    degs = graph.degrees()
    if degs.min() == 0:
        side = np.zeros(graph.n, dtype=bool)
        side[int(np.argmin(degs))] = True
        return side, np.array([], dtype=np.int64)

    lam = edge_connectivity(graph)
    delta_node = int(np.argmin(degs))
    if lam == int(degs[delta_node]):
        # A minimum-degree node's star is a minimum cut.
        side = np.zeros(graph.n, dtype=bool)
        side[delta_node] = True
        cut_ids = graph.incident_edge_ids(delta_node).copy()
        return side, np.asarray(cut_ids, dtype=np.int64)

    # Otherwise find a witness pair realizing λ among dominating-set flows.
    dom = greedy_dominating_set(graph)
    s = dom[0]
    for t in dom[1:]:
        value, flow = _scipy_unit_maxflow(graph, s, t)
        if value == lam:
            side = _residual_reachable(graph, flow, s)
            crossing = side[graph.edge_u] != side[graph.edge_v]
            cut_ids = np.nonzero(crossing)[0]
            if len(cut_ids) != lam:
                raise ValidationError(
                    "max-flow/min-cut mismatch", flow=lam, cut=len(cut_ids)
                )
            return side, cut_ids
    raise ValidationError("no witness pair found for the minimum cut")


def stoer_wagner(graph: Graph) -> tuple[float, np.ndarray]:
    """Weighted global min cut (Stoer–Wagner), returns ``(value, side_mask)``.

    O(n^3) with dense numpy adjacency — intended for the validation of cut
    sparsifiers on small/medium graphs, not as a production min-cut engine
    (λ computations for the broadcast algorithm use :func:`edge_connectivity`).
    """
    n = graph.n
    if n < 2:
        raise ValidationError("min cut undefined for single-node graphs")
    w = np.zeros((n, n), dtype=np.float64)
    wts = graph.weights if graph.weights is not None else np.ones(graph.m)
    w[graph.edge_u, graph.edge_v] = wts
    w[graph.edge_v, graph.edge_u] = wts

    groups: list[list[int]] = [[v] for v in range(n)]
    active = list(range(n))
    best_val = np.inf
    best_side: list[int] = []

    while len(active) > 1:
        # Maximum adjacency (minimum cut phase) ordering.
        a = active[0]
        weights_to_a = w[a, active].copy()
        in_a = {a}
        order = [a]
        for _ in range(len(active) - 1):
            idx = int(np.argmax(weights_to_a))
            nxt = active[idx]
            while nxt in in_a:
                weights_to_a[idx] = -np.inf
                idx = int(np.argmax(weights_to_a))
                nxt = active[idx]
            in_a.add(nxt)
            order.append(nxt)
            weights_to_a[idx] = -np.inf
            weights_to_a += w[nxt, active]
        s_node, t_node = order[-2], order[-1]
        cut_of_phase = float(w[t_node, [v for v in active if v != t_node]].sum())
        if cut_of_phase < best_val:
            best_val = cut_of_phase
            best_side = list(groups[t_node])
        # Merge t into s.
        w[s_node, :] += w[t_node, :]
        w[:, s_node] += w[:, t_node]
        w[s_node, s_node] = 0.0
        groups[s_node].extend(groups[t_node])
        active.remove(t_node)

    side = np.zeros(n, dtype=bool)
    side[best_side] = True
    return best_val, side
