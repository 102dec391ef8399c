"""Workload graph families for the experiments.

The paper's theorems are parameterized by ``(n, δ, λ, D)``; the experiment
suite (DESIGN.md §5) sweeps these independently, which requires families
where each parameter is controlled by construction:

* :func:`random_regular` — the main high-connectivity workload: a random
  d-regular graph has λ = δ = d w.h.p. and diameter O(log n / log d).
* :func:`gnp_random` — Erdős–Rényi; above the connectivity threshold,
  λ ≈ δ ≈ np.
* :func:`hypercube` — λ = δ = dim, D = dim: deterministic and exactly
  analyzable.
* :func:`torus_grid` — λ = δ = 4 with D = Θ(√n): a low-connectivity,
  high-diameter stressor.
* :func:`thick_cycle` — a ring of groups with adjacent groups fully joined:
  λ = 2g with D = Θ(n/g²)·g; lets λ grow while the diameter stays large,
  the regime where the paper's algorithm wins big over the textbook bound.
* :func:`barbell` / :func:`path_of_cliques` — λ = 1 (resp. = bridge width)
  controls, where the paper *predicts no speedup*: the Ω(k/λ) bound bites.
* :func:`ghaffari_kuhn_family` — the Theorem 11/13 lower-bound family
  (λ near-disjoint s–t paths plus O(log n) shortcuts), see
  :mod:`repro.lower_bounds.gk13` for the measurement harness.

All generators take explicit seeds and return :class:`repro.graphs.Graph`.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.traversal import is_connected
from repro.util.errors import ValidationError
from repro.util.rng import ensure_rng

__all__ = [
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "hypercube",
    "torus_grid",
    "random_regular",
    "gnp_random",
    "connected_gnp",
    "thick_cycle",
    "barbell",
    "path_of_cliques",
    "ghaffari_kuhn_family",
    "random_weights",
]


def complete_graph(n: int) -> Graph:
    """K_n: λ = δ = n-1, D = 1."""
    return Graph(n, list(combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    """C_n: λ = δ = 2, D = ⌊n/2⌋."""
    if n < 3:
        raise ValidationError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """P_n: λ = 1, D = n-1 — the worst case the paper's intro motivates."""
    if n < 2:
        raise ValidationError("path needs n >= 2")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """K_{1,n-1}: λ = δ = 1, D = 2."""
    if n < 2:
        raise ValidationError("star needs n >= 2")
    return Graph(n, [(0, i) for i in range(1, n)])


def hypercube(dim: int) -> Graph:
    """The dim-dimensional hypercube: n = 2^dim, λ = δ = dim, D = dim."""
    if dim < 1:
        raise ValidationError("hypercube needs dim >= 1")
    n = 1 << dim
    edges = []
    for v in range(n):
        for b in range(dim):
            w = v ^ (1 << b)
            if v < w:
                edges.append((v, w))
    return Graph(n, edges)


def torus_grid(rows: int, cols: int) -> Graph:
    """rows×cols torus: λ = δ = 4 (for rows, cols >= 3), D = Θ(rows+cols)."""
    if rows < 3 or cols < 3:
        raise ValidationError("torus needs rows, cols >= 3")
    n = rows * cols
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            for w in (right, down):
                if v != w:
                    edges.add((min(v, w), max(v, w)))
    return Graph(n, sorted(edges))


def random_regular(n: int, d: int, seed=None) -> Graph:
    """Random d-regular simple graph (Steger–Wormald incremental pairing).

    Stubs are matched one pair at a time, always choosing among pairs that
    keep the graph simple; a deadlocked attempt (only forbidden pairs remain)
    restarts, at most 200 times. This succeeds in O(1) expected restarts for d = o(√n), unlike
    naive configuration-model rejection whose success probability decays as
    exp(-Θ(d²)). A random d-regular graph is d-connected w.h.p. [Bollobás];
    the tests verify λ = d exactly.
    """
    if n * d % 2 != 0:
        raise ValidationError("n*d must be even for a d-regular graph")
    if d >= n:
        raise ValidationError("need d < n")
    if d < 1:
        raise ValidationError("need d >= 1")
    rng = ensure_rng(seed)
    for _ in range(200):
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        rng.shuffle(stubs)
        stubs = stubs.tolist()
        seen: set[tuple[int, int]] = set()
        edges: list[tuple[int, int]] = []
        dead = False
        while stubs:
            # Try to pop a compatible pair; reshuffle-and-retry a few times
            # before declaring deadlock.
            placed = False
            for _attempt in range(30):
                if len(stubs) < 2:
                    dead = True
                    break
                i = int(rng.integers(len(stubs)))
                j = int(rng.integers(len(stubs) - 1))
                if j >= i:
                    j += 1
                a, b = stubs[i], stubs[j]
                key = (min(a, b), max(a, b))
                if a != b and key not in seen:
                    seen.add(key)
                    edges.append(key)
                    for idx in sorted((i, j), reverse=True):
                        stubs[idx] = stubs[-1]
                        stubs.pop()
                    placed = True
                    break
            if dead or not placed:
                dead = True
                break
        if dead:
            continue
        g = Graph(n, edges)
        if d >= 2 and not is_connected(g):
            continue
        return g
    raise ValidationError(
        f"failed to generate a simple {d}-regular graph on {n} nodes "
        "after 200 attempts"
    )


def gnp_random(n: int, p: float, seed=None) -> Graph:
    """Erdős–Rényi G(n, p) via geometric edge skipping (O(m) expected)."""
    if not (0.0 <= p <= 1.0):
        raise ValidationError("p must lie in [0, 1]")
    rng = ensure_rng(seed)
    edges = []
    if p >= 1.0:
        return complete_graph(n)
    if p > 0.0:
        total = n * (n - 1) // 2
        logq = math.log1p(-p)
        idx = -1
        while True:
            r = rng.random()
            skip = int(math.floor(math.log(max(r, 1e-300)) / logq))
            idx += skip + 1
            if idx >= total:
                break
            # Unrank the idx-th pair (u < v) in lexicographic order.
            u = int((2 * n - 1 - math.sqrt((2 * n - 1) ** 2 - 8 * idx)) // 2)
            base = u * n - u * (u + 1) // 2
            v = int(u + 1 + (idx - base))
            edges.append((u, v))
    return Graph(n, edges)


def connected_gnp(n: int, p: float, seed=None) -> Graph:
    """G(n, p) conditioned on connectivity (rejection sampling, at most 100
    draws)."""
    rng = ensure_rng(seed)
    for _ in range(100):
        g = gnp_random(n, p, rng)
        if is_connected(g):
            return g
    raise ValidationError(
        f"no connected G({n}, {p}) sample in 100 tries; increase p"
    )


def thick_cycle(groups: int, group_size: int) -> Graph:
    """A cycle of ``groups`` node-groups, adjacent groups completely joined.

    Properties: n = groups·group_size, δ = 2·group_size (inner-group edges
    are absent), λ = 2·group_size (cutting the ring needs two group-group
    bundles), D ≈ groups/2. This family decouples λ from the diameter: λ
    grows with ``group_size`` while D stays Θ(groups) — precisely the regime
    where Theorem 1's Õ((n+k)/λ) beats the textbook O(D+k) for large k.
    """
    if groups < 3:
        raise ValidationError("thick cycle needs >= 3 groups")
    if group_size < 1:
        raise ValidationError("group_size must be >= 1")
    n = groups * group_size
    s = group_size
    # The groups·s² edges are written straight into one array, already in
    # sorted (u, v) order — the edge ids of the original sorted(set(...))
    # Python loop — so no temporary outlives this function's set-up. Each
    # node of group 0 joins all of group 1 and then all of group G−1 (the
    # ring closes there); each node of group g in 1..G−2 joins all of group
    # g+1; group G−1 has no larger neighbor.
    node = np.arange(s, dtype=np.int64)
    edges = np.empty((groups * s * s, 2), dtype=np.int64)
    first = edges[: 2 * s * s].reshape(s, 2, s, 2)
    first[..., 0] = node[:, None, None]
    first[:, 0, :, 1] = s + node
    first[:, 1, :, 1] = (groups - 1) * s + node
    rest = edges[2 * s * s :].reshape(groups - 2, s, s, 2)
    g = np.arange(1, groups - 1, dtype=np.int64)[:, None, None]
    rest[..., 0] = g * s + node[None, :, None]
    rest[..., 1] = (g + 1) * s + node[None, None, :]
    return Graph(n, edges)


def barbell(clique_size: int, bridge_len: int = 1) -> Graph:
    """Two cliques joined by a path: λ = 1, the paper's hard control case."""
    if clique_size < 2:
        raise ValidationError("cliques need >= 2 nodes")
    if bridge_len < 1:
        raise ValidationError("bridge needs >= 1 edge")
    n = 2 * clique_size + (bridge_len - 1)
    edges = list(combinations(range(clique_size), 2))
    offset = clique_size + (bridge_len - 1)
    edges += [(offset + a, offset + b) for a, b in combinations(range(clique_size), 2)]
    chain = [clique_size - 1] + list(range(clique_size, offset)) + [offset]
    edges += [(min(a, b), max(a, b)) for a, b in zip(chain, chain[1:])]
    return Graph(n, sorted(set(edges)))


def path_of_cliques(num_cliques: int, clique_size: int, bridge_width: int) -> Graph:
    """Cliques in a row, consecutive ones joined by ``bridge_width`` edges.

    λ = bridge_width by construction (any inter-clique bundle is a cut),
    δ = clique_size - 1; D = Θ(num_cliques). Sweeping ``bridge_width``
    sweeps λ with everything else pinned.
    """
    if bridge_width > clique_size:
        raise ValidationError("bridge_width cannot exceed clique_size")
    if num_cliques < 2:
        raise ValidationError("need >= 2 cliques")
    edges = []
    for c in range(num_cliques):
        base = c * clique_size
        edges += [
            (base + a, base + b) for a, b in combinations(range(clique_size), 2)
        ]
        if c + 1 < num_cliques:
            nxt = (c + 1) * clique_size
            edges += [(base + i, nxt + i) for i in range(bridge_width)]
    return Graph(num_cliques * clique_size, edges)


def ghaffari_kuhn_family(length: int, lam: int) -> Graph:
    """The Theorem 11/13 tree-packing lower-bound family (GK13-style).

    Construction (see DESIGN.md §2 for the substitution note): a **thick
    path** of ``length`` groups with ``lam`` nodes each, consecutive groups
    completely bipartitely joined, plus *doubling shortcut* edges between
    group representatives: ``(rep(i), rep(i + 2^j))`` for every power of two.

    Resulting parameters, all verified in the tests:

    * n = length·lam; minimum degree δ = lam (the end groups).
    * Edge connectivity λ = lam: isolating one end-group node cuts ``lam``
      edges, while every "vertical" cut between positions i, i+1 is crossed
      by lam² bipartite edges plus shortcuts.
    * Diameter O(log length) thanks to the shortcut hierarchy.
    * Every vertical cut is crossed by only O(log length) shortcut edges, so
      in any spanning tree packing all but O(log n) trees must traverse the
      thick path itself, forcing diameter Ω(length) = Ω(n/λ) — the
      Theorem 13 phenomenon, measured by experiment E10.

    Node ids: position ``i`` group occupies ``i*lam .. (i+1)*lam - 1``; the
    representative of position i is node ``i*lam``.
    """
    if lam < 2 or length < 3:
        raise ValidationError("need lam >= 2 and length >= 3")

    def member(i: int, a: int) -> int:
        return i * lam + a

    edges: set[tuple[int, int]] = set()
    for i in range(length - 1):
        for a in range(lam):
            for b in range(lam):
                u, v = member(i, a), member(i + 1, b)
                edges.add((min(u, v), max(u, v)))
    jump = 2
    while jump < length:
        for i in range(0, length - jump, jump):
            u, v = member(i, 0), member(i + jump, 0)
            edges.add((min(u, v), max(u, v)))
        jump *= 2
    return Graph(length * lam, sorted(edges))


def random_weights(
    graph: Graph, low: float = 1.0, high: float = 100.0, seed=None
) -> Graph:
    """Attach i.i.d. uniform integer weights in [low, high] to a graph."""
    rng = ensure_rng(seed)
    w = rng.integers(int(low), int(high) + 1, size=graph.m).astype(np.float64)
    return graph.reweighted(w)
