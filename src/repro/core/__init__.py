"""The paper's primary contribution (Section 3).

* :mod:`~repro.core.sampling` — Lemma 5: p-sampling yields spanning,
  low-diameter subgraphs.
* :mod:`~repro.core.decomposition` — Theorem 2: the zero-communication
  random edge partition.
* :mod:`~repro.core.tree_packing` — Section 3.1: BFS per color class →
  Ω(λ/log n) edge-disjoint low-diameter spanning trees.
* :mod:`~repro.core.broadcast` — Theorem 1: the Õ((n+k)/λ) k-broadcast,
  plus the Lemma 1 textbook baseline and the Section 3.2 combination.
* :mod:`~repro.core.lambda_search` — the unknown-λ exponential search.
* :mod:`~repro.core.alt_packing` — Appendix A: Lemma 9 witnesses and the
  Theorem 10 congestion-O(log n) packing.
"""

from repro.core.sampling import (
    sampling_probability,
    sample_edges,
    lemma5_diameter_bound,
    SampleReport,
    analyze_sample,
)
from repro.core.decomposition import (
    num_parts,
    theorem2_diameter_bound,
    Decomposition,
    random_partition,
    DecompositionReport,
    validate_decomposition,
)
from repro.core.tree_packing import (
    ROOT_POLICIES,
    SpanningTree,
    TreePacking,
    build_tree_packing,
    build_packing_with_retry,
    resolve_roots,
)
from repro.core.broadcast import (
    BroadcastResult,
    uniform_random_placement,
    single_source_placement,
    cut_adversarial_placement,
    textbook_broadcast,
    textbook_broadcast_batch,
    fast_broadcast,
    fast_broadcast_batch,
    combined_broadcast,
)
from repro.core.lambda_search import (
    LambdaSearchOutcome,
    find_packing_unknown_lambda,
    broadcast_unknown_lambda,
)
from repro.core.congested_clique import (
    BCCAlgorithm,
    BCCOutcome,
    simulate_bcc,
    SumAndLeaderBCC,
)
from repro.core.resilient import (
    DeliveryReport,
    FaultCell,
    RepairOutcome,
    evaluate_fault_grid,
    redundant_broadcast,
    repair_coverage,
    tree_edge_ids,
)
from repro.core.alt_packing import (
    PathSystem,
    kd_connectivity_witness,
    lemma9_parameters,
    greedy_low_diameter_packing,
)

__all__ = [
    "sampling_probability",
    "sample_edges",
    "lemma5_diameter_bound",
    "SampleReport",
    "analyze_sample",
    "num_parts",
    "theorem2_diameter_bound",
    "Decomposition",
    "random_partition",
    "DecompositionReport",
    "validate_decomposition",
    "ROOT_POLICIES",
    "SpanningTree",
    "TreePacking",
    "build_tree_packing",
    "build_packing_with_retry",
    "resolve_roots",
    "BroadcastResult",
    "uniform_random_placement",
    "single_source_placement",
    "cut_adversarial_placement",
    "textbook_broadcast",
    "textbook_broadcast_batch",
    "fast_broadcast",
    "fast_broadcast_batch",
    "combined_broadcast",
    "LambdaSearchOutcome",
    "find_packing_unknown_lambda",
    "broadcast_unknown_lambda",
    "BCCAlgorithm",
    "BCCOutcome",
    "simulate_bcc",
    "SumAndLeaderBCC",
    "DeliveryReport",
    "FaultCell",
    "RepairOutcome",
    "evaluate_fault_grid",
    "redundant_broadcast",
    "repair_coverage",
    "tree_edge_ids",
    "PathSystem",
    "kd_connectivity_witness",
    "lemma9_parameters",
    "greedy_low_diameter_packing",
]
