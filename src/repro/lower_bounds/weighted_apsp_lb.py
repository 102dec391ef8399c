"""The Ω(n/(λ log α)) weighted-APSP lower bound instance (Theorem 9).

Theorem 9 constructs, for any (n, λ), a λ-edge-connected weighted graph
where α-approximating all distances from v₁ forces v₁ to learn the exact
random exponents ``k_3..k_n`` — ``(n−2)·log2(kmax)`` bits — through only λ
incident edges.

This module builds the instance *and* implements the decoding argument as
executable code: :func:`decode_exponents` recovers every ``k_i`` from any
α-approximate distance vector, proving (constructively, per instance) that
approximate APSP here is as hard as learning the exponents. The E5 bench
reports the resulting bound next to the measured cost of actually shipping
that much information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.util.errors import ValidationError
from repro.util.rng import ensure_rng

__all__ = ["Theorem9Instance", "theorem9_instance", "decode_exponents", "kmax_for"]


def kmax_for(n: int, alpha: float, c: int = 3) -> int:
    """Largest integer with ``(2α)^kmax < n^c`` (the paper's kmax)."""
    if alpha < 1:
        raise ValidationError("α must be >= 1")
    kmax = int(math.floor(c * math.log(max(n, 2)) / math.log(2 * alpha)))
    return max(1, kmax)


@dataclass
class Theorem9Instance:
    """The hard instance: graph + hidden exponents + parameters.

    Node roles (paper numbering shifted to 0-based): node 0 = v₁ (the
    learner), node 1 = v₂ (the conduit), nodes 2..n−1 form the clique.
    ``d(v₁, v_i) = 1 + (2α)^{k_i}`` for clique nodes i, which pins k_i.
    """

    graph: Graph
    alpha: float
    lam: int
    kmax: int
    exponents: np.ndarray  # k_i for i in 2..n-1 (index i-2)
    heavy_weight: float  # n^c

    @property
    def n(self) -> int:
        return self.graph.n

    def exact_distances_from_v1(self) -> np.ndarray:
        """d(v₁, ·) in closed form (validated against Dijkstra in tests)."""
        d = np.empty(self.n)
        d[0] = 0.0
        d[1] = 1.0
        d[2:] = 1.0 + (2.0 * self.alpha) ** self.exponents
        return d

    def information_bits(self) -> float:
        """Bits v₁ must learn: (n−2)·log2(kmax)."""
        return (self.n - 2) * math.log2(max(self.kmax, 2))

    def rounds_bound(self) -> float:
        """Ω(n/(λ log α)) with explicit constants: bits/(λ·w), where
        ``w = log2(n³)`` bits fit the heaviest weight."""
        return self.information_bits() / (self.lam * 3 * math.log2(max(self.n, 2)))


def theorem9_instance(
    n: int, lam: int, alpha: float = 2.0, seed=None
) -> Theorem9Instance:
    """Build the Theorem 9 graph with uniformly random exponents.

    Construction (paper, 0-based, c = 3): v₁–v₂ weight 1; v₁ to the first λ
    clique nodes with weight n^c; nodes 2..n−1 a clique with weight n^c; v₂
    to each clique node i with weight ``(2α)^{k_i}``.
    """
    if n < lam + 2:
        raise ValidationError("need n >= λ + 2")
    if lam < 2:
        raise ValidationError("λ must be >= 2 (v₁ needs the v₂ edge plus heavies)")
    rng = ensure_rng(seed)
    kmax = kmax_for(n, alpha)
    exponents = rng.integers(1, kmax + 1, size=n - 2)
    heavy = float(n) ** 3

    # v₁'s degree is exactly λ: the v₂ edge plus λ−1 heavy edges into the
    # clique (paper: "connect v₁ to {v₃..v_{λ+1}}"), so isolating v₁ is a
    # minimum cut and the edge connectivity equals λ.
    edges: list[tuple[int, int]] = [(0, 1)]
    weights: list[float] = [1.0]
    for i in range(2, 1 + lam):
        edges.append((0, i))
        weights.append(heavy)
    for i in range(2, n):  # clique
        for j in range(i + 1, n):
            edges.append((i, j))
            weights.append(heavy)
    for i in range(2, n):  # the information-carrying edges
        edges.append((1, i))
        weights.append((2.0 * alpha) ** int(exponents[i - 2]))
    graph = Graph(n, edges, weights=weights)
    return Theorem9Instance(
        graph=graph,
        alpha=alpha,
        lam=lam,
        kmax=kmax,
        exponents=exponents,
        heavy_weight=heavy,
    )


def decode_exponents(
    instance: Theorem9Instance, approx_from_v1: np.ndarray
) -> np.ndarray:
    """Recover every k_i exactly from *any* α-approximate distance vector.

    The decoding argument: the true distance is ``1 + (2α)^{k}`` and the
    estimate lies in ``[d, α·d]``. Candidate intervals for consecutive k are
    disjoint — ``1 + (2α)^{k+1} > α·(1 + (2α)^k)`` for (2α)^k ≥ 1, α ≥ 1 —
    so the estimate pins k uniquely. Returns the decoded exponent array;
    tests assert it equals the hidden one (i.e. the instance really forces
    learning all the bits).
    """
    a = instance.alpha
    decoded = np.empty(instance.n - 2, dtype=np.int64)
    for i in range(2, instance.n):
        est = float(approx_from_v1[i])
        best_k, best_err = None, math.inf
        for k in range(1, instance.kmax + 1):
            d = 1.0 + (2.0 * a) ** k
            if d <= est <= a * d + 1e-9:
                err = est - d
                if err < best_err:
                    best_k, best_err = k, err
        if best_k is None:
            raise ValidationError(
                f"estimate {est} for node {i} is not α-approximate for any k"
            )
        decoded[i - 2] = best_k
    return decoded
