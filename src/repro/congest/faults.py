"""Fault injection for the CONGEST simulator.

The paper's tree packing is the input to resilient-computation compilers
(Section 1.2, Fischer–Parter [FP23]): with λ edge-disjoint trees, an
adversary controlling fewer than a tree-count's worth of edges cannot stop
information that is replicated across trees. To *demonstrate* that on real
executions, :class:`FaultySimulator` drops messages:

* on a static set of **dead edges** (a crashed link / a sabotaged color
  class), and/or
* independently at a given **drop rate** (a lossy network), and/or
* on a per-round adversarial schedule (``mobile`` mapping rounds to edge
  sets — the FP23 mobile-adversary shape).

Faults act at delivery time, so metrics still count the send (the bandwidth
was spent); protocols built for the fault-free model may stall — that is
the point, and :func:`repro.core.resilient.redundant_broadcast` shows how
tree redundancy buys the deliveries back.

Scenarios are usually described as an
:class:`~repro.congest.adversary.AdversarySchedule` compiled to a
:class:`~repro.congest.adversary.FaultPlan` (pass it as ``plan=``); the
vectorized fault engine (:mod:`repro.engine.faults`) consumes the same plan
and replicates this class's delivery decisions — including the fault RNG
stream, drawn in delivery order — bit for bit.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Mapping

from repro import obs
from repro.congest.adversary import FaultPlan
from repro.congest.network import Network
from repro.congest.simulator import Simulator
from repro.util.rng import ensure_rng

__all__ = ["FaultySimulator"]


class FaultySimulator(Simulator):
    """A :class:`Simulator` whose deliveries can fail.

    Each round's delivery batch, in delivery order, loses its messages on
    dead edges, then those on the round's mobile edges; the survivors then
    draw one fault coin each, all in one call on the fault RNG, in
    delivery order, and a coin below ``drop_rate`` drops its message.

    Parameters (beyond the base class):

    dead_edges:
        Edge ids that never deliver (static link failures).
    drop_rate:
        Independent per-message drop probability, in the closed interval
        [0, 1] — ``1.0`` is the total-loss boundary adversary (every
        delivery fails; no redundancy can help, by design).
    mobile:
        Optional ``round -> iterable of edge ids`` mapping: edges controlled
        by the adversary in that round only.
    plan:
        A compiled :class:`~repro.congest.adversary.FaultPlan`; merged with
        the explicit ``dead_edges``/``drop_rate``/``mobile`` arguments
        (rates combine as independent coins).
    fault_seed:
        Seed for the drop-rate coin flips. Kept on a dedicated stream,
        independent of the protocol RNG (``seed=``), so varying it never
        changes protocol behavior — only which deliveries fail.
    """

    def __init__(
        self,
        network: Network,
        program_factory,
        dead_edges: Iterable[int] = (),
        drop_rate: float = 0.0,
        mobile: Mapping[int, Iterable[int]] | None = None,
        plan: FaultPlan | None = None,
        fault_seed=0,
        **kwargs,
    ):
        super().__init__(network, program_factory, **kwargs)
        merged = FaultPlan(
            dead_edges=frozenset(int(e) for e in dead_edges),
            drop_rate=float(drop_rate),
            mobile=dict(mobile or {}),
        )
        if plan is not None:
            merged = merged.merged(plan)
        self.plan = merged.validate_for(network.graph.m)
        self.dead_edges = merged.dead_edges
        self.drop_rate = merged.drop_rate
        self._mobile = merged.mobile
        self._fault_rng = ensure_rng(fault_seed)
        self.dropped = 0

    def _deliver(self, rnd: int, batch: list) -> list:
        """Drop the round's messages on dead edges, then those on the
        round's mobile edges, then each survivor whose coin falls below
        the drop rate; one call draws every coin of the round."""
        dead, spot = self.dead_edges, self._mobile.get(rnd)
        if spot:
            kept = [msg for msg in batch if msg[1] not in dead and msg[1] not in spot]
        elif dead:
            kept = [msg for msg in batch if msg[1] not in dead]
        else:
            kept = batch
        if self.drop_rate > 0.0 and kept:
            obs.count("rng.fault_coins", len(kept))
            coins = self._fault_rng.random(len(kept))
            kept = list(compress(kept, (coins >= self.drop_rate).tolist()))
        dropped = len(batch) - len(kept)
        if dropped:
            self.dropped += dropped
            obs.count("faults.dropped", dropped)
        return kept
