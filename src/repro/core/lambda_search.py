"""Broadcast without knowing λ: the exponential-search remark of Section 1.1.

The paper's Remark: guess ``λ̃ = δ, δ/2, δ/4, …`` and for each guess build
the Theorem 2 decomposition with λ̃ and *check* it — every class must be a
connected spanning subgraph of depth ``O((n log n)/δ)``, verifiable by the
parallel BFS itself in ``O((n log n)/δ)`` rounds. The first valid guess is
used; since the true λ validates w.h.p., at most ``O(log(δ/λ))`` iterations
run and the total check cost telescopes to ``O((n log n)/λ)``.

The validity predicate needs an explicit constant: we accept a guess when
every class BFS spans and has depth ≤ ``4 · (n ln n)/δ`` (depth ≤
diameter, so this is the conservative direction: a class that passes is
certainly usable by the pipeline with the claimed cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.broadcast import BroadcastResult, fast_broadcast
from repro.core.decomposition import num_parts, random_partition
from repro.core.tree_packing import TreePacking, packing_from_bfs_results
from repro.graphs.graph import Graph
from repro.primitives.bfs import run_parallel_bfs
from repro.util.errors import ValidationError

__all__ = ["LambdaSearchOutcome", "find_packing_unknown_lambda", "broadcast_unknown_lambda"]


@dataclass
class LambdaSearchOutcome:
    """Trace of the exponential search (experiment E9 rows).

    ``seeds[i]`` is the partition seed used by iteration ``i`` — recorded so
    failed iterations are auditable and reproducible individually.
    """

    guesses: list[int] = field(default_factory=list)
    validation_rounds: list[int] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    accepted_guess: int = 0
    packing: TreePacking | None = None

    @property
    def iterations(self) -> int:
        return len(self.guesses)

    @property
    def total_validation_rounds(self) -> int:
        return sum(self.validation_rounds)


def find_packing_unknown_lambda(
    graph: Graph,
    seed: int = 0,
    C: float = 2.0,
    backend: str = "simulator",
) -> LambdaSearchOutcome:
    """Exponential search for a valid Theorem 2 packing without knowing λ.

    Each iteration's validation is a genuine parallel BFS from node 0 (on
    the simulator, or the equivalent vectorized backend); its certified
    round count is recorded. Depth acceptance threshold: ``4 · (n ln n)/δ``
    (and for tiny graphs at least n, so the predicate is never vacuously
    unsatisfiable).

    Each iteration draws a *fresh* partition seed (``seed + 7919·iteration``,
    recorded in :attr:`LambdaSearchOutcome.seeds` — the same decorrelation
    stride as :func:`repro.core.tree_packing.build_packing_with_retry`, so
    sweeps over consecutive base seeds do not share partitions): reusing one
    seed for every guess would mean a guess that fails due to an unlucky
    partition is never re-randomized, so the w.h.p. argument would silently
    lean on the guess halving alone.
    """
    delta = graph.min_degree()
    if delta < 1:
        raise ValidationError("graph must have minimum degree >= 1")
    depth_bound = max(float(graph.n), 4 * graph.n * math.log(max(graph.n, 2)) / delta)

    outcome = LambdaSearchOutcome()
    guess = delta
    iteration = 0
    while True:
        parts = num_parts(guess, graph.n, C)
        iter_seed = seed + 7919 * iteration
        decomp = random_partition(graph, parts, iter_seed)
        results, rounds = run_parallel_bfs(
            graph, decomp.masks(), roots=[0] * parts, backend=backend
        )
        outcome.guesses.append(guess)
        outcome.validation_rounds.append(rounds)
        outcome.seeds.append(iter_seed)
        ok = all(r.spans() and r.depth <= depth_bound for r in results)
        if ok:
            outcome.accepted_guess = guess
            # The validation BFS we just ran *is* the packing construction
            # (same trees, same rounds): adopt its results instead of
            # re-traversing, and charge exactly its certified cost.
            outcome.packing = packing_from_bfs_results(graph, results, rounds)
            return outcome
        if guess == 1:
            raise ValidationError(
                "exponential search exhausted: even λ̃=1 failed validation "
                "(is the graph disconnected?)"
            )
        guess = max(1, guess // 2)
        iteration += 1


def broadcast_unknown_lambda(
    graph: Graph,
    placement: dict[int, int],
    seed: int = 0,
    C: float = 2.0,
    backend: str = "simulator",
) -> tuple[BroadcastResult, LambdaSearchOutcome]:
    """k-broadcast in O(((n+k)/λ) log n) rounds with λ unknown (§1.1 Remark).

    Returns the broadcast result (with the search's validation rounds charged
    in a ``lambda_search`` phase) alongside the search trace.
    """
    search = find_packing_unknown_lambda(graph, seed=seed, C=C, backend=backend)
    result = fast_broadcast(graph, placement, packing=search.packing, backend=backend)
    # The accepted iteration's BFS *is* the packing construction; earlier
    # failed iterations are pure overhead, charged explicitly.
    result.phases["lambda_search"] = search.total_validation_rounds
    result.algorithm = "fast/unknown-lambda"
    return result, search
