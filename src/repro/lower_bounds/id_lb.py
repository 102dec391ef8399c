"""The universal Ω(n/λ) lower bound for learning all IDs (Theorem 8).

Theorem 8: with IDs drawn uniformly from [n^c], learning the full ID list
requires Ω(n/λ) rounds on *every* graph — which is why the paper's Õ(n/λ)
APSP algorithms are universally optimal: writing down "the distance to every
node" presupposes knowing every node's ID.

The entropy count: conditioned on the IDs inside S,
``|M| = C(n^c − |S|, |V∖S|) ≥ 2^{Ω(n log n)}`` choices remain for the other
side, and only ``λ · O(log n)`` bits/round cross the cut.
"""

from __future__ import annotations

import math

from repro.util.errors import ValidationError

__all__ = ["id_entropy_bits", "theorem8_rounds_bound"]


def id_entropy_bits(n: int, c: float = 2.0) -> float:
    """log2 |M| ≥ log2 C(n^c/2, n/2) ≥ (n/2)·log2(n^{c-1}) bits.

    Follows the display in the Theorem 8 proof:
    C(n^c/2, n/2) ≥ (n^c/2 / (n/2))^{n/2} = n^{(c-1)n/2}.
    """
    if n < 2 or c <= 1:
        raise ValidationError("need n >= 2 and c > 1")
    return (n / 2.0) * (c - 1.0) * math.log2(n)


def theorem8_rounds_bound(n: int, lam: int) -> float:
    """Explicit Theorem 8 bound: entropy / (2·λ·w) rounds.

    IDs are drawn from [n²] (c = 2), and ``w = 2·log2 n`` bits, so an ID
    fits in a message. The factor 2 accounts for both directions of each
    cut edge.
    """
    if lam < 1:
        raise ValidationError("λ must be >= 1")
    return id_entropy_bits(n) / (2.0 * lam * 2.0 * math.log2(max(n, 2)))
