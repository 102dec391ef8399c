"""(3, 2)-approximate unweighted APSP in Õ(n/λ) rounds (Theorem 4).

Pipeline (Section 4.1), with the round ledger split into *simulated* phases
(executed on the CONGEST simulator, certified counts) and *charged* phases
(cluster-graph computations the paper itself accounts analytically via its
3-rounds-per-virtual-round simulation, Lemma 6):

1. **Clustering** — 1 round (center announcement), then local choice.
2. **Cluster graph neighbor discovery** — centers gather their G_c
   neighborhoods; O(k) rounds charged (k = number of clusters = Õ(n/δ)).
3. **PRT12 APSP on G_c** — executed and certified by
   :mod:`repro.apsp.prt`; charged 3 G-rounds per virtual round (Lemma 6).
4. **Broadcast of s(·)** — n messages through the *real* Theorem 1
   broadcast on the simulator (this is where the paper's own broadcast
   result does the heavy lifting).
5. **Intra-cluster dissemination** — each center streams its k distances to
   its members over the direct member–center edges; k + O(1) rounds charged
   (all clusters in parallel, disjoint stars).
6. Locally: ``d'(u, v) = 3·d_{G_c}(s(u), s(v)) + 2`` (Lemma 7), 0 on the
   diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apsp.clustering import Clustering, build_clustering
from repro.apsp.prt import PRTResult, prt_apsp
from repro.core.broadcast import fast_broadcast
from repro.graphs.graph import Graph
from repro.graphs.traversal import all_pairs_distances
from repro.util.errors import ValidationError

__all__ = ["ApproxAPSPResult", "approx_apsp_unweighted", "check_32_approximation"]


@dataclass
class ApproxAPSPResult:
    """Distance estimates plus the complete round ledger."""

    estimate: np.ndarray  # (n, n) estimated distances
    clustering: Clustering
    prt: PRTResult
    simulated_rounds: dict[str, int] = field(default_factory=dict)
    charged_rounds: dict[str, int] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return sum(self.simulated_rounds.values()) + sum(self.charged_rounds.values())

    @property
    def k_clusters(self) -> int:
        return self.clustering.k


def approx_apsp_unweighted(
    graph: Graph,
    lam: int | None = None,
    C: float = 2.0,
    seed: int = 0,
    backend: str = "simulator",
) -> ApproxAPSPResult:
    """Theorem 4: (3, 2)-approximate APSP in Õ(n/λ) rounds.

    backend: ``"simulator"`` (default) runs the broadcast phase — the
        simulated, round-dominating part of the pipeline — on the CONGEST
        simulator; ``"vectorized"`` produces the bit-identical result
        (same estimates, same cluster assignments, same simulated + charged
        ledgers) via the numpy engine (:mod:`repro.engine`). Clustering and
        PRT are shared local computations, identical on both backends.
    """
    from repro.engine import validate_backend

    validate_backend(backend)
    clustering = build_clustering(graph, seed=seed)
    k = clustering.k

    prt = prt_apsp(clustering.cluster_graph)

    # Phase 4: broadcast s(v) for every v — n messages, one per node, via
    # the real Theorem 1 machinery.
    placement = {v: 1 for v in range(graph.n)}
    bres = fast_broadcast(
        graph,
        placement,
        lam=lam,
        C=C,
        seed=seed,
        distributed_packing=False,
        backend=backend,
    )

    s = clustering.s
    dgc = prt.dist  # exact distances on the cluster graph
    # One gather, then in place: no n×n temporaries beyond the estimate.
    estimate = dgc[np.ix_(s, s)]
    estimate *= 3
    estimate += 2
    np.fill_diagonal(estimate, 0)

    return ApproxAPSPResult(
        estimate=estimate,
        clustering=clustering,
        prt=prt,
        simulated_rounds={"broadcast_s": bres.rounds},
        charged_rounds={
            "clustering": clustering.rounds,
            "learn_cluster_neighbors": k,
            "prt_on_cluster_graph": 3 * prt.virtual_rounds,
            "intra_cluster_distances": k + 2,
        },
    )


def check_32_approximation(graph: Graph, estimate: np.ndarray) -> tuple[bool, float]:
    """Verify ``d ≤ d̃ ≤ 3d + 2`` for all pairs; returns (ok, worst ratio).

    The worst ratio reported is ``max (d̃ - 2)/d`` over pairs with d ≥ 1 —
    ≤ 3 exactly when the multiplicative part of the guarantee holds.
    """
    exact = all_pairs_distances(graph)
    if np.any(exact < 0):
        raise ValidationError("graph must be connected")
    n = graph.n
    off = ~np.eye(n, dtype=bool)
    lower_ok = bool((estimate[off] >= exact[off]).all())
    upper_ok = bool((estimate[off] <= 3 * exact[off] + 2).all())
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (estimate - 2) / np.maximum(exact, 1)
    worst = float(ratios[off & (exact >= 1)].max())
    return lower_ok and upper_ok, worst
