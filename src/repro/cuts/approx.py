"""(1+ε)-approximation of *all* cut values in Õ(n/(λε²)) rounds (Theorem 7).

Pipeline: build the Koutis–Xu sparsifier H (Õ(1/ε²) rounds charged), then
broadcast its Õ(n/ε²) edges with the Theorem 1 broadcast (real simulation,
one message per sparsifier edge — this Õ(n/(λε²)) term dominates). Every
node then holds H and can answer ``cut_G(S) ≈ cut_H(S)`` for *any* S ⊆ V
locally — simultaneously for all cuts, which is what distinguishes
Theorem 7 from prior single-min-cut results.

Validation sweeps three cut families: uniformly random sides, single-node
(degree) cuts, and the minimum cut — the mix exercises both balanced and
skewed cuts, where sparsifier error behaves differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.broadcast import fast_broadcast
from repro.cuts.sparsifier import SparsifierResult, koutis_xu_sparsifier
from repro.graphs.graph import Graph
from repro.graphs.properties import cut_value
from repro.util.errors import ValidationError
from repro.util.rng import ensure_rng

__all__ = ["CutApproxResult", "approx_all_cuts", "evaluate_cut_quality"]


@dataclass
class CutApproxResult:
    """The broadcasted sparsifier plus the round ledger."""

    sparsifier: SparsifierResult
    simulated_rounds: dict[str, int] = field(default_factory=dict)
    charged_rounds: dict[str, int] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return sum(self.simulated_rounds.values()) + sum(self.charged_rounds.values())

    def estimate_cut(self, side: np.ndarray) -> float:
        """What every node can now compute locally: cut_H(S)."""
        return cut_value(self.sparsifier.sparsifier, side)


def approx_all_cuts(
    graph: Graph,
    eps: float,
    lam: int | None = None,
    C: float = 2.0,
    seed: int = 0,
    tau: int | None = None,
    backend: str = "simulator",
) -> CutApproxResult:
    """Theorem 7: sparsify, broadcast, estimate everything locally.

    backend: ``"simulator"`` (default) runs the per-node sparsifier loops
        and the CONGEST-simulated broadcast; ``"vectorized"`` computes the
        bit-identical sparsifier and round ledgers with the numpy engine
        (:mod:`repro.engine`), which is what lets E8 scale past the
        simulator's toy sizes.
    """
    from repro.engine import validate_backend

    validate_backend(backend)
    sp = koutis_xu_sparsifier(graph, eps, seed=seed, tau=tau, backend=backend)
    # One message per sparsifier edge, held by its lower endpoint.
    counts = np.bincount(sp.sparsifier.edge_u, minlength=graph.n)
    holders = np.flatnonzero(counts)
    placement = dict(zip(holders.tolist(), counts[holders].tolist()))
    bres = fast_broadcast(
        graph,
        placement,
        lam=lam,
        C=C,
        seed=seed,
        distributed_packing=False,
        backend=backend,
    )
    return CutApproxResult(
        sparsifier=sp,
        simulated_rounds={"broadcast_sparsifier": bres.rounds},
        charged_rounds={"koutis_xu": sp.charged_rounds},
    )


def evaluate_cut_quality(
    graph: Graph,
    sparsifier: Graph,
    num_random_cuts: int = 50,
    seed=None,
) -> dict[str, float]:
    """Max relative error of cut_H vs cut_G over a diverse cut family:
    random bisections, up to 25 singleton cuts, and a minimum cut of G.

    Returns ``{"max_rel_error": ..., "mean_rel_error": ..., "cuts": ...}``;
    Theorem 7 promises max_rel_error ≤ ε for *all* cuts, so the sampled
    families give a certified lower bound on the true worst case.
    """
    if sparsifier.n != graph.n:
        raise ValidationError("sparsifier must share the node set")
    rng = ensure_rng(seed)
    sides: list[np.ndarray] = []
    for _ in range(num_random_cuts):
        side = rng.random(graph.n) < 0.5
        if side.any() and not side.all():
            sides.append(side)
    for v in range(min(graph.n, 25)):  # degree cuts
        side = np.zeros(graph.n, dtype=bool)
        side[v] = True
        sides.append(side)
    from repro.graphs.connectivity import min_cut

    side, _ = min_cut(graph)
    sides.append(side)

    errors = []
    for side in sides:
        g_val = cut_value(graph, side)
        h_val = cut_value(sparsifier, side)
        if g_val <= 0:
            continue
        errors.append(abs(h_val - g_val) / g_val)
    if not errors:
        raise ValidationError("no nontrivial cuts evaluated")
    return {
        "max_rel_error": float(max(errors)),
        "mean_rel_error": float(np.mean(errors)),
        "cuts": float(len(errors)),
    }
