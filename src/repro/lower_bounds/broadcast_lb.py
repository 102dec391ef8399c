"""The universal Ω(k/λ) broadcast lower bound (Theorem 3).

Theorem 3: for *any* graph, any k, and any initial message placement, an
algorithm solving k-broadcast with probability ≥ 1/2 needs Ω(k/λ) rounds —
even knowing the topology and placement. The proof counts bits across a
minimum cut: at least k/2 of the s-bit random messages start on one side,
and per round only λ·w bits cross (w = edge bandwidth), so
``2·t·w·λ ≥ s·k/2 − 4``.

This module turns the proof into a *checkable certificate* on concrete runs:
:func:`verify_broadcast_meets_bound` finds a minimum cut and asserts the
measured rounds respect the bound — a consistency check between the
simulator, the algorithms, and the information-theoretic argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.graphs.connectivity import min_cut
from repro.graphs.graph import Graph
from repro.util.errors import ValidationError

__all__ = [
    "theorem3_rounds_bound",
    "cut_bits_required",
    "verify_broadcast_meets_bound",
    "Theorem3Certificate",
]


def theorem3_rounds_bound(
    k: int, lam: int, message_bits: int, bandwidth_bits: int
) -> float:
    """Explicit Theorem 3 bound: ``t ≥ (s·k/2 − 4) / (2·w·λ)``."""
    if lam < 1 or k < 0:
        raise ValidationError("need λ >= 1 and k >= 0")
    return max(0.0, (message_bits * k / 2.0 - 4.0) / (2.0 * bandwidth_bits * lam))


def cut_bits_required(k: int, message_bits: int) -> float:
    """Bits that must cross the cut: s·k/2 − 4 (the |B| < 2^{sk/2-4} step)."""
    return max(0.0, message_bits * k / 2.0 - 4.0)


@dataclass
class Theorem3Certificate:
    """One verified instance of the lower-bound inequality."""

    k: int
    lam: int
    cut_size: int
    measured_rounds: int
    bound_rounds: float

    @property
    def holds(self) -> bool:
        return self.measured_rounds >= self.bound_rounds

    @property
    def slack(self) -> float:
        """measured / bound (≥ 1 when the bound holds; ∞ if bound is 0)."""
        if self.bound_rounds <= 0:
            return math.inf
        return self.measured_rounds / self.bound_rounds


def verify_broadcast_meets_bound(
    graph: Graph,
    k: int,
    measured_rounds: int,
    message_bits: int,
    bandwidth_bits: int,
) -> Theorem3Certificate:
    """Check a broadcast execution against Theorem 3's bound, with λ the
    size of a concrete minimum cut."""
    _side, cut_ids = min_cut(graph)
    lam = len(cut_ids)
    bound = theorem3_rounds_bound(k, lam, message_bits, bandwidth_bits)
    cert = Theorem3Certificate(
        k=k,
        lam=lam,
        cut_size=lam,
        measured_rounds=measured_rounds,
        bound_rounds=bound,
    )
    if not cert.holds:
        raise ValidationError(
            "Theorem 3 violated?! A correct CONGEST execution cannot beat "
            "the information-theoretic bound — simulator accounting bug.",
            certificate=cert,
        )
    return cert
