"""Simulating the broadcast congested clique (Section 1.2, [DKO14]).

The *broadcast congested clique* (BCC) is the all-to-all model where, per
round, every node broadcasts one O(log n)-bit message to **all** other
nodes. The paper observes that Theorem 1 with k = n messages (one per node)
simulates one BCC round on any λ-connected graph in `O((n log n)/λ)` rounds
— universally optimal up to the log factor, since Theorem 8's Ω(n/λ)
ID-learning bound applies verbatim to BCC simulation.

This module provides:

* :class:`BCCAlgorithm` — the abstract per-node BCC program (round hook
  receives *all* n messages of the previous round),
* :func:`simulate_bcc` — runs a BCC algorithm over a physical λ-connected
  graph, one Theorem 1 broadcast per BCC round, with certified round
  accounting and an amortization option (the tree packing is built once and
  reused across BCC rounds — decompositions are input-independent),
* a reference BCC algorithm (:class:`MinimumSpanningForestBCC` is overkill
  here; we ship :class:`SumAndLeaderBCC`) used by tests and the example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.broadcast import fast_broadcast
from repro.core.decomposition import num_parts
from repro.core.tree_packing import TreePacking, build_packing_with_retry
from repro.graphs.graph import Graph
from repro.util.errors import ValidationError

__all__ = ["BCCAlgorithm", "BCCOutcome", "simulate_bcc", "SumAndLeaderBCC"]


class BCCAlgorithm:
    """A broadcast-congested-clique algorithm, one instance per node.

    Per BCC round the driver calls :meth:`broadcast_message` to collect this
    node's outgoing message (any payload of O(log n) bits — an int or a
    small tuple), then delivers the full message vector of the round to
    :meth:`on_messages`. Return ``True`` from :meth:`on_messages` to halt.
    """

    def __init__(self, node: int, n: int):
        self.node = node
        self.n = n
        self.output: dict[str, Any] = {}

    def broadcast_message(self, bcc_round: int) -> Any:  # pragma: no cover
        raise NotImplementedError

    def on_messages(self, bcc_round: int, messages: Sequence[Any]) -> bool:
        raise NotImplementedError  # pragma: no cover


@dataclass
class BCCOutcome:
    """Result of simulating a BCC algorithm on a physical network."""

    bcc_rounds: int
    congest_rounds: int
    per_bcc_round_cost: list[int] = field(default_factory=list)
    packing: TreePacking | None = None


def simulate_bcc(
    graph: Graph,
    algorithms: Sequence[BCCAlgorithm],
    lam: int,
    max_bcc_rounds: int = 64,
    C: float = 2.0,
    seed: int = 0,
) -> BCCOutcome:
    """Run a BCC algorithm over ``graph``, one n-broadcast per BCC round.

    The Theorem 2 tree packing is built **once** (it does not depend on the
    messages) and reused by every round's broadcast — the amortization the
    paper's "any subsequent k-broadcast instance" phrasing points at. Each
    BCC round then costs one pipelined n-message broadcast:
    `O((n log n)/λ)` CONGEST rounds, measured exactly.

    The simulation is semantically faithful: message *contents* flow through
    the real broadcast id-space (message j of round r carries node j's
    payload, which the driver maps back), so a BCC algorithm cannot peek at
    data the physical network has not yet delivered.
    """
    if len(algorithms) != graph.n:
        raise ValidationError("need one BCCAlgorithm per node")
    parts = num_parts(lam, graph.n, C)
    packing, _ = build_packing_with_retry(graph, parts, seed, distributed=False)

    total = packing.construction_rounds
    per_round: list[int] = []
    placement = {v: 1 for v in range(graph.n)}
    halted = [False] * graph.n
    bcc_round = 0
    while bcc_round < max_bcc_rounds and not all(halted):
        # Collect the round's messages (local computation, 0 rounds). Each
        # must fit the O(log n)-bit BCC message size, same budget as the
        # physical links that will carry it.
        from repro.util.bits import bits_for_payload, message_bit_budget

        budget = message_bit_budget(graph.n)
        messages = []
        for alg in algorithms:
            msg = alg.broadcast_message(bcc_round)
            if bits_for_payload(msg) > budget:
                raise ValidationError(
                    f"BCC message of node {alg.node} exceeds the O(log n) "
                    f"budget ({bits_for_payload(msg)} > {budget} bits)"
                )
            messages.append(msg)
        # One n-message broadcast ships them everywhere.
        res = fast_broadcast(graph, placement, packing=packing, seed=seed)
        per_round.append(res.rounds)
        total += res.rounds
        # Deliver the full vector to every node.
        done = True
        for v, alg in enumerate(algorithms):
            if halted[v]:
                continue
            halted[v] = bool(alg.on_messages(bcc_round, messages))
            done = done and halted[v]
        bcc_round += 1
        if done:
            break
    return BCCOutcome(
        bcc_rounds=bcc_round,
        congest_rounds=total,
        per_bcc_round_cost=per_round,
        packing=packing,
    )


class SumAndLeaderBCC(BCCAlgorithm):
    """Reference BCC algorithm: 2 rounds to agree on (sum, argmax) of inputs.

    Round 0: everyone broadcasts its input; round 1: everyone broadcasts the
    (sum, argmax) it computed — unanimity is checked and recorded. Used by
    tests to verify the simulation is semantically faithful end to end.
    """

    def __init__(self, node: int, n: int, value: int):
        super().__init__(node, n)
        self.value = value
        self._verdict: tuple[int, int] | None = None

    def broadcast_message(self, bcc_round: int) -> Any:
        if bcc_round == 0:
            return self.value
        return self._verdict

    def on_messages(self, bcc_round: int, messages: Sequence[Any]) -> bool:
        if bcc_round == 0:
            total = sum(messages)
            arg = max(range(self.n), key=lambda v: (messages[v], -v))
            self._verdict = (total, arg)
            self.output["sum"] = total
            self.output["argmax"] = arg
            return False
        # Round 1: cross-check unanimity.
        self.output["unanimous"] = all(m == self._verdict for m in messages)
        return True
