"""The k-broadcast algorithms: textbook (Lemma 1) and fast (Theorem 1).

**Textbook** ``O(D + k)``: elect a leader, build one BFS tree, number the
messages (Lemma 3), pipeline everything over the single tree.

**Fast (Theorem 1)** ``O((n log n)/δ + (k log n)/λ)``:

1. elect a leader and number the messages over a global BFS tree — O(D),
2. color the edges with λ' = λ/(C log n) colors (Theorem 2) — **0 rounds**,
3. BFS inside every color class concurrently — O((n log n)/δ) rounds,
4. assign messages ``[(i-1)K+1, iK]`` (K = ⌈k/λ'⌉) to class i and run the
   Lemma 1 pipeline in all classes concurrently — O((n log n)/δ + (k log n)/λ).

**Combined** (Section 3.2): run whichever of the two the closed-form
predictions favor, realizing ``min(O(D+k), O(n log n/δ + k log n/λ))`` —
the bound that nearly matches the Ghaffari–Kuhn existential lower bound for
every k.

Every phase is executed on the CONGEST simulator and its exact round count
reported per phase; nothing is estimated. Delivery of all k messages to all
n nodes is verified after the pipeline phase.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.decomposition import num_parts
from repro.core.tree_packing import TreePacking
from repro.graphs.graph import Graph
from repro.primitives.bfs import BFSResult, run_bfs
from repro.primitives.leader import elect_leader
from repro.primitives.numbering import assign_item_numbers
from repro.primitives.pipeline import run_tree_broadcast
from repro.util.errors import ValidationError, integer_ids
from repro.util.rng import ensure_rng

__all__ = [
    "BroadcastResult",
    "uniform_random_placement",
    "single_source_placement",
    "cut_adversarial_placement",
    "textbook_broadcast",
    "textbook_broadcast_batch",
    "fast_broadcast",
    "fast_broadcast_batch",
    "combined_broadcast",
]


# --------------------------------------------------------------------------- #
# message placements (the "parametric input" of the universal-optimality
# definition in Section 3.2)
# --------------------------------------------------------------------------- #

def uniform_random_placement(n: int, k: int, seed=None) -> dict[int, int]:
    """k messages at independently uniform nodes: ``{node: count}``."""
    rng = ensure_rng(seed)
    placement: dict[int, int] = {}
    for v in rng.integers(n, size=k).tolist():
        placement[v] = placement.get(v, 0) + 1
    return placement


def single_source_placement(source: int, k: int) -> dict[int, int]:
    """All k messages at one node (the classic broadcast setting)."""
    return {source: k}


def cut_adversarial_placement(
    graph: Graph, side: np.ndarray, k: int
) -> dict[int, int]:
    """All k messages on one side of a (minimum) cut — the Theorem 3 worst
    case, where Ω(k/λ) is forced by the cut's bandwidth."""
    nodes = np.nonzero(np.asarray(side, dtype=bool))[0]
    if nodes.size == 0:
        raise ValidationError("cut side is empty")
    placement: dict[int, int] = {}
    per = k // len(nodes)
    extra = k - per * len(nodes)
    for i, v in enumerate(nodes.tolist()):
        cnt = per + (1 if i < extra else 0)
        if cnt:
            placement[v] = cnt
    return placement


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #

@dataclass
class BroadcastResult:
    """Outcome of one k-broadcast execution, with per-phase round counts."""

    algorithm: str
    n: int
    k: int
    parts: int
    phases: dict[str, int] = field(default_factory=dict)
    max_congestion: int = 0
    packing_max_depth: int = 0
    delivered: bool = False

    @property
    def rounds(self) -> int:
        return sum(self.phases.values())

    def __repr__(self):
        return (
            f"BroadcastResult({self.algorithm}, n={self.n}, k={self.k}, "
            f"rounds={self.rounds}, phases={self.phases})"
        )


def _number_messages_batch(
    graph: Graph, placements: list[dict[int, int]], backend: str = "simulator"
) -> list[tuple[int, BFSResult, np.ndarray, dict[str, int]]]:
    """Shared prologue: leader election, global BFS, Lemma 3 numbering.

    Both backends produce the same leader, tree, starts, and per-phase round
    counts; the vectorized one skips the per-node state machines entirely.
    The leader and its global BFS tree are placement-independent, so a batch
    of placements pays them once and reruns only the numbering — each
    element is bit-identical to its solo call (the tree object is shared
    read-only; every placement gets its own phase ledger).
    """
    counts_list = []
    for placement in placements:
        nodes = integer_ids(list(placement), "placement node ids")
        values = integer_ids(list(placement.values()), "message counts")
        bad = nodes[(nodes < 0) | (nodes >= graph.n)]
        if bad.size:
            raise ValidationError(f"placement node {bad[0]} out of range [0, {graph.n})")
        if (values < 0).any():
            raise ValidationError("message counts must be non-negative")
        counts = np.zeros(graph.n, dtype=np.int64)
        counts[nodes] = values
        counts_list.append(counts)
    if backend == "vectorized":
        # Node 0 always wins the min-id election, so its one flood serves
        # as the global BFS and yields the election's rounds as well.
        from repro.engine.fastpath import elect_from_flood, vectorized_numbering as number

        with obs.span("global_bfs"):
            tree = run_bfs(graph, 0, backend=backend)
        with obs.span("elect"):
            leader, r_leader = elect_from_flood(graph, tree)
    else:
        number = assign_item_numbers
        with obs.span("elect"):
            leader, r_leader = elect_leader(graph)
        with obs.span("global_bfs"):
            tree = run_bfs(graph, leader, backend=backend)
    out = []
    with obs.span("numbering"):
        for counts in counts_list:
            starts, r_num = number(graph, tree, counts)
            phases = {
                "leader_election": r_leader,
                "global_bfs": tree.rounds,
                "numbering": r_num,
            }
            out.append((leader, tree, starts, phases))
    return out


def _run_pipeline(graph, trees, per_channel, backend):
    """Dispatch the Lemma 1 pipeline to the chosen backend."""
    if backend == "vectorized":
        from repro.engine.fastpath import vectorized_tree_broadcast

        return vectorized_tree_broadcast(graph, trees, per_channel)
    return run_tree_broadcast(graph, trees, per_channel)


def _placement_ids(
    counts: dict[int, int], starts: np.ndarray
) -> dict[int, list[int]]:
    return {
        v: list(range(int(starts[v]), int(starts[v]) + c))
        for v, c in counts.items()
        if c > 0
    }


def _flat_ids(
    placement: dict[int, int], starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every message as aligned ``(origins, ids)`` int64 arrays, ids ascending.

    Lemma 3 gives node v the contiguous ids ``starts[v] ..
    starts[v] + count − 1``, and the ranges of the holders partition
    ``1..k``, so listing the holders by start lists every id in ascending
    order with no per-id Python work.
    """
    nodes = np.fromiter(placement.keys(), dtype=np.int64, count=len(placement))
    counts = np.fromiter(placement.values(), dtype=np.int64, count=len(placement))
    held = counts > 0
    nodes, counts = nodes[held], counts[held]
    order = np.argsort(starts[nodes], kind="stable")
    nodes, counts = nodes[order], counts[order]
    base = np.repeat(starts[nodes] - (np.cumsum(counts) - counts), counts)
    return np.repeat(nodes, counts), base + np.arange(base.size, dtype=np.int64)


def _textbook_tail(graph, placement, tree, starts, phases, backend):
    """Per-placement remainder of the textbook algorithm (post-numbering)."""
    k = sum(placement.values())
    with obs.span("pipeline"):
        outcome = _run_pipeline(
            graph, {0: tree}, {0: _flat_ids(placement, starts)}, backend
        )
    phases["pipeline"] = outcome.rounds
    return BroadcastResult(
        algorithm="textbook",
        n=graph.n,
        k=k,
        parts=1,
        phases=phases,
        max_congestion=outcome.max_congestion,
        packing_max_depth=tree.depth,
        delivered=True,
    )


def textbook_broadcast(
    graph: Graph,
    placement: dict[int, int],
    backend: str = "simulator",
) -> BroadcastResult:
    """Lemma 1's O(D + k) pipeline over a single BFS tree."""
    return textbook_broadcast_batch(graph, [placement], backend=backend)[0]


def textbook_broadcast_batch(
    graph: Graph,
    placements,
    backend: str = "simulator",
) -> list[BroadcastResult]:
    """Many textbook broadcasts with the shared prologue paid once.

    Element ``i`` is bit-identical to
    ``textbook_broadcast(graph, placements[i], ...)`` — same phase ledger,
    congestion, and delivery flags. Leader election and the global BFS are
    placement-independent and run once; numbering and the pipeline run per
    placement.
    """
    from repro.engine import validate_backend

    validate_backend(backend)
    placements = list(placements)
    with obs.span("textbook_broadcast"):
        numbered = _number_messages_batch(graph, placements, backend)
        return [
            _textbook_tail(graph, placement, tree, starts, phases, backend)
            for placement, (_leader, tree, starts, phases) in zip(
                placements, numbered
            )
        ]


def fast_broadcast(
    graph: Graph,
    placement: dict[int, int],
    lam: int | None = None,
    C: float = 2.0,
    seed: int = 0,
    distributed_packing: bool = True,
    packing: TreePacking | None = None,
    backend: str = "simulator",
) -> BroadcastResult:
    """Theorem 1's Õ((n + k)/λ)-round broadcast.

    Parameters
    ----------
    lam: edge connectivity (common knowledge per the paper's Remark; pass
        ``None`` to have it computed centrally for convenience — use
        :func:`repro.core.lambda_search.broadcast_with_unknown_lambda` for
        the fully distributed unknown-λ variant).
    C: the constant in λ' = λ/(C log n); smaller C → more trees but a
        larger failure probability for the w.h.p. events.
    packing: a pre-built Theorem 2 packing to reuse (it is
        input-independent, so amortizing it across many broadcast instances
        is exactly what Section 1 suggests); its construction rounds are
        then charged as 0 here, and λ is not needed.
    distributed_packing: build the trees on the simulator (certified
        rounds) or with the packing's certified vectorized twin (the same
        trees and rounds, fast path for sweeps); only consulted under
        ``backend="simulator"``.
    backend: ``"simulator"`` executes every phase on the CONGEST simulator;
        ``"vectorized"`` computes the identical phase ledger with the numpy
        engine (see :mod:`repro.engine`).

    A batch of one (:func:`fast_broadcast_batch`).
    """
    return fast_broadcast_batch(
        graph,
        [placement],
        lam=lam,
        C=C,
        seeds=seed,
        distributed_packing=distributed_packing,
        packing=packing,
        backend=backend,
    )[0]


def _message_trees(ids: np.ndarray, k: int, parts: int, redundancy: int = 1) -> np.ndarray:
    """Theorem 1's message-to-tree rule, one row per id: id j of ``1..k``
    has the home tree ``h = min((j − 1) // ⌈k/parts⌉, parts − 1)`` and rides
    the trees ``(h + i) mod parts`` for ``i < redundancy``."""
    home = np.minimum((ids - 1) // max(1, math.ceil(k / parts)), parts - 1)
    return (home[:, None] + np.arange(redundancy)) % parts


def _fast_tail(graph, placement, starts, phases, packing, backend):
    """Per-placement remainder of Theorem 1 (channel split + pipeline)."""
    k = sum(placement.values())
    parts = packing.size

    # The ids come ascending, so their home trees are sorted and one
    # searchsorted cuts the flat pair into per-channel views.
    with obs.span("channel_split"):
        origins, ids = _flat_ids(placement, starts)
        channel = _message_trees(ids, k, parts)[:, 0]
        cuts = np.searchsorted(channel, np.arange(1, parts))
        per_channel = dict(enumerate(zip(np.split(origins, cuts), np.split(ids, cuts))))
        trees = dict(enumerate(packing.trees))
    with obs.span("pipeline"):
        outcome = _run_pipeline(graph, trees, per_channel, backend)
    phases["pipeline"] = outcome.rounds
    return BroadcastResult(
        algorithm="fast",
        n=graph.n,
        k=k,
        parts=parts,
        phases=phases,
        max_congestion=outcome.max_congestion,
        packing_max_depth=packing.max_depth,
        delivered=True,
    )


def fast_broadcast_batch(
    graph: Graph,
    placements,
    lam: int | None = None,
    C: float = 2.0,
    seeds=0,
    distributed_packing: bool = True,
    packing: TreePacking | None = None,
    backend: str = "simulator",
) -> list[BroadcastResult]:
    """Many Theorem 1 broadcasts with all placement-independent work shared.

    Element ``i`` is bit-identical to ``fast_broadcast(graph,
    placements[i], seed=seeds[i], ...)``: edge connectivity, the leader and
    its global tree, and the tree packing of each distinct seed are computed
    once; numbering, the channel split, and the pipeline run per placement.
    ``seeds`` is one integer (any :class:`numbers.Integral`) for all
    placements or a per-placement list. A given ``packing`` serves every
    placement, charged 0 rounds, and λ is then not computed.
    """
    from repro.engine import validate_backend
    from repro.graphs.connectivity import edge_connectivity

    validate_backend(backend)
    placements = list(placements)
    if isinstance(seeds, numbers.Integral):
        seed_list = [int(seeds)] * len(placements)
    else:
        seed_list = [int(s) for s in seeds]
        if len(seed_list) != len(placements):
            raise ValidationError(
                f"seeds length {len(seed_list)} != placements length {len(placements)}"
            )
    with obs.span("fast_broadcast"):
        if lam is None and packing is None:
            with obs.span("connectivity"):
                lam = edge_connectivity(graph)
        numbered = _number_messages_batch(graph, placements, backend)
        packings: dict[int, TreePacking] = {}
        results = []
        for placement, seed, (leader, _gtree, starts, phases) in zip(
            placements, seed_list, numbered
        ):
            if packing is not None:
                phases["tree_packing"] = 0
                results.append(
                    _fast_tail(graph, placement, starts, phases, packing, backend)
                )
                continue
            built = packings.get(seed)
            if built is None:
                from repro.core.tree_packing import build_packing_with_retry

                with obs.span("tree_packing"):
                    built, _attempts = build_packing_with_retry(
                        graph,
                        num_parts(lam, graph.n, C),
                        seed,
                        root=leader,
                        distributed=distributed_packing,
                        backend=backend,
                    )
                packings[seed] = built
            phases["tree_packing"] = built.construction_rounds
            results.append(
                _fast_tail(graph, placement, starts, phases, built, backend)
            )
        return results


def combined_broadcast(
    graph: Graph,
    placement: dict[int, int],
    lam: int | None = None,
    C: float = 2.0,
    seed: int = 0,
    backend: str = "simulator",
) -> BroadcastResult:
    """Section 3.2's min(textbook, fast): predict, then run the winner.

    The prediction uses the closed forms of :mod:`repro.theory`; the chosen
    algorithm's *measured* rounds are returned (algorithm name records the
    choice as ``combined/textbook`` or ``combined/fast``).
    """
    from repro.graphs.connectivity import edge_connectivity
    from repro.graphs.properties import approx_diameter
    from repro.theory import predict_fast_rounds, predict_textbook_rounds

    if lam is None:
        with obs.span("connectivity"):
            lam = edge_connectivity(graph)
    k = sum(placement.values())
    D = approx_diameter(graph, samples=4, seed=seed)
    delta = graph.min_degree()
    t_text = predict_textbook_rounds(D, k)
    t_fast = predict_fast_rounds(graph.n, k, delta, lam, C)
    if t_text <= t_fast:
        result = textbook_broadcast(graph, placement, backend=backend)
        result.algorithm = "combined/textbook"
    else:
        result = fast_broadcast(
            graph,
            placement,
            lam=lam,
            C=C,
            seed=seed,
            backend=backend,
        )
        result.algorithm = "combined/fast"
    return result
