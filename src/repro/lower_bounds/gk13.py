"""Tree-packing diameter lower bounds (Theorems 11 & 13, Appendix B).

Ghaffari–Kuhn [GK13] exhibit λ-edge-connected, O(log n)-diameter graphs
where *every* tree packing has all-but-O(log n) trees of diameter Ω(n/λ);
Appendix B extends the bound to packings with congestion ≤ λ/log⁴n
(Theorem 13). This shows the O((n log n)/δ) diameter of the paper's own
packing (Theorem 2) is optimal up to the log factor.

The measurement harness here runs the paper's *upper-bound* construction on
the lower-bound family (:func:`repro.graphs.generators.ghaffari_kuhn_family`)
and reports the per-tree diameter distribution: the prediction — confirmed
by experiment E10 — is that almost every tree has diameter Ω(length) =
Ω(n/λ) even though the host graph's diameter is O(log n). Only trees lucky
enough to grab shortcut edges near their root can be shallow, and there are
only O(log n) shortcuts in total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.decomposition import num_parts, random_partition
from repro.core.tree_packing import build_tree_packing
from repro.graphs.generators import ghaffari_kuhn_family
from repro.graphs.properties import approx_diameter

__all__ = ["PackingDiameterReport", "measure_packing_diameters", "theorem13_prediction"]


@dataclass
class PackingDiameterReport:
    """Per-tree diameters of a packing on the GK13 family (E10 rows)."""

    n: int
    lam: int
    length: int  # thick-path length = Θ(n/λ)
    host_diameter: int
    parts: int
    tree_diameters: list[int] = field(default_factory=list)

    def trees_above(self, fraction_of_length: float = 0.5) -> int:
        """How many trees have diameter ≥ fraction·length (the Ω(n/λ) mass)."""
        threshold = fraction_of_length * self.length
        return sum(1 for d in self.tree_diameters if d >= threshold)

    @property
    def min_tree_diameter(self) -> int:
        return min(self.tree_diameters)

    @property
    def max_tree_diameter(self) -> int:
        return max(self.tree_diameters)


def theorem13_prediction(n: int, lam: int) -> tuple[float, float]:
    """(min trees that must be deep, the Ω(n/λ) depth scale).

    All but O(log n) trees must have diameter Ω(n/λ); we report
    ``(parts − ceil(log2 n), n/λ)`` as the concrete prediction to check.
    """
    return (max(0.0, -math.ceil(math.log2(max(n, 2)))), n / lam)


def measure_packing_diameters(
    length: int, lam: int, C: float = 1.0, seed: int = 0
) -> PackingDiameterReport:
    """Build the GK13 instance, pack trees via Theorem 2, measure diameters.

    The packing uses the paper's own randomized partition — the relevant
    regime for Theorem 13, whose statement quantifies over *all* packings
    (so any packing, including ours, must exhibit the predicted shape).
    Tries up to 10 seeds while a color class fails to span (the per-class
    degree on this family sits near the connectivity threshold, so the
    w.h.p. event fails noticeably often at bench scales).
    """
    from repro.util.errors import ValidationError

    g = ghaffari_kuhn_family(length, lam)
    parts = num_parts(lam, g.n, C)
    packing = None
    for attempt in range(10):
        decomp = random_partition(g, parts, seed + attempt)
        try:
            packing = build_tree_packing(decomp, distributed=False)
            break
        except ValidationError:
            continue
    if packing is None:
        raise ValidationError(
            "no spanning partition of the GK13 family in 10 seeds; "
            "decrease parts (larger C) or increase lam"
        )
    return PackingDiameterReport(
        n=g.n,
        lam=lam,
        length=length,
        # Double-sweep BFS: a certified *lower* bound on the host diameter,
        # the safe direction for reporting "host D = O(log n) yet trees are
        # Ω(n/λ) deep".
        host_diameter=approx_diameter(g, samples=4, seed=seed),
        parts=parts,
        tree_diameters=packing.diameters(),
    )
