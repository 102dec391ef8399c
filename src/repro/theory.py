"""Closed-form round-complexity predictions for every theorem.

The benchmark harness prints *predicted vs measured* columns; the predictors
here are the paper's bounds with the library's explicit constants:

* textbook (Lemma 1): leader + BFS + numbering + pipeline ≈ 4D + 2k,
* fast (Theorem 1): prologue O(D) + packing depth + pipeline
  ≈ 4D + 3·diam_bound + 2⌈k/λ'⌉ with diam_bound = O((n log n)/δ),
* the min-combination of Section 3.2,
* lower bounds Ω(k/λ) (Theorem 3), Ω(n/λ) (Theorem 8), Ω(n/(λ log α))
  (Theorem 9), Ω(min(K/log²n, n/λ)) (Theorem 11).

These are *predictions with explicit constants*, not asymptotics: the E-suite
checks the measured/predicted ratio stays Θ(1) across sweeps, which is what
"the shape holds" means for a theory paper.
"""

from __future__ import annotations

import math

from repro.core.decomposition import num_parts
from repro.util.errors import ValidationError

__all__ = [
    "predict_textbook_rounds",
    "predict_fast_rounds",
    "predict_combined_rounds",
    "theorem3_lower_bound",
    "theorem8_lower_bound",
    "theorem9_lower_bound",
    "theorem11_lower_bound",
    "universal_optimality_ratio",
]


def predict_textbook_rounds(D: int, k: int) -> float:
    """Lemma 1 with this library's constants: ≈ 4D + 2k.

    Leader election D + BFS D + numbering 2D would be 4D; the pipeline is
    ≤ 2·depth + 2k ≤ 2D + 2k. We fold the depth terms into 6D but keep the
    headline 2k: prediction = 6D + 2k.
    """
    return 6.0 * D + 2.0 * k


def predict_fast_rounds(
    n: int, k: int, delta: int, lam: int, C: float = 2.0
) -> float:
    """Theorem 1 with explicit constants.

    prologue 4D ≤ 4·3n/δ (Observation 1) + packing BFS depth ≤ diam bound
    + pipeline ≤ 2·diam bound + 2⌈k/λ'⌉, with the Theorem 2 diameter bound.
    The Theorem 2 bound's constant 20L is loose by design (proof bookkeeping);
    empirically measured diameters sit ≈ 50× below it, so for *prediction*
    we use the observed-scale n·ln n/δ with a constant-2 safety factor and
    let the benches report the ratio.
    """
    if delta < lam:
        raise ValidationError("δ >= λ always; check inputs")
    parts = num_parts(lam, n, C)
    diam_scale = 2.0 * n * math.log(max(n, 2)) / delta  # Θ((n log n)/δ)
    per_tree_k = math.ceil(k / parts)
    prologue = 12.0 * n / delta  # 4 phases × Observation 1's D ≤ 3n/δ
    return prologue + 3.0 * diam_scale + 2.0 * per_tree_k


def predict_combined_rounds(n: int, k: int, delta: int, lam: int, D: int) -> float:
    """Section 3.2: min(textbook, fast)."""
    return min(predict_textbook_rounds(D, k), predict_fast_rounds(n, k, delta, lam))


def theorem3_lower_bound(k: int, lam: int) -> float:
    """Ω(k/λ): with s-bit messages and w-bit edge bandwidth both Θ(log n),
    the proof needs ``2 t w λ ≥ sk/2 - 4``, i.e. t ≥ (k/λ)·(s/4w) - O(1).
    With s = w this is ``t ≥ k/(4λ) - 1``."""
    if lam < 1:
        raise ValidationError("λ must be >= 1")
    return max(0.0, k / (4.0 * lam) - 1.0)


def theorem8_lower_bound(n: int, lam: int) -> float:
    """Ω(n/λ) for learning all IDs (Theorem 8): |M| = 2^{Ω(n log n)} over a
    λ·O(log n) bits/round cut gives t ≥ n/(4λ) - O(1) with our constants."""
    if lam < 1:
        raise ValidationError("λ must be >= 1")
    return max(0.0, n / (4.0 * lam) - 1.0)


def theorem9_lower_bound(n: int, lam: int, alpha: float) -> float:
    """Ω(n/(λ log α)) for α-approximate weighted APSP (Theorem 9).

    kmax = Θ(log n / log(2α)) choices per random exponent; v₁ must learn
    (n-2)·log₂(kmax) bits over λ·log₂(n³) bits per round (weights up to n^c,
    c = 3).
    """
    if alpha < 1:
        raise ValidationError("α must be >= 1")
    kmax = max(2, int(3 * math.log(max(n, 2)) / math.log(2 * alpha)))
    bits_needed = (n - 2) * math.log2(kmax)
    bits_per_round = lam * 3 * math.log2(max(n, 2))
    return max(0.0, bits_needed / bits_per_round)


def theorem11_lower_bound(K_bits: int, n: int, lam: int) -> float:
    """Ghaffari–Kuhn: Ω(min(K/log²n, n/λ)) rounds to ship K bits s→t."""
    log2n = max(1.0, math.log2(max(n, 2)))
    return min(K_bits / (log2n**2), n / lam)


def universal_optimality_ratio(measured_rounds: int, k: int, lam: int) -> float:
    """measured / (k/λ): Theorem 1 promises this is O(log n) for k = Ω(n)."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    return measured_rounds / (k / lam)
