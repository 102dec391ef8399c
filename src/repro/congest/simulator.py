"""Synchronous round-driven CONGEST simulator.

The simulator *is* the model (DESIGN.md §2): per round every node may send
one message of at most ``B = 8·⌈log₂ n⌉`` bits per incident edge
(:func:`repro.util.bits.message_bit_budget`); messages sent in round r are
delivered at the start of round r+1. Oversized payloads and double-sends
raise :class:`BandwidthExceeded` — round counts reported by a completed run
are therefore certified CONGEST executions, never estimates.

Performance notes: the loop maintains an **active set**, so rounds where
only a frontier of nodes acts cost O(frontier), not O(n). Transport works
per round: each node's sends go straight into the round's batch, routed
by three reads of the :class:`Network`'s per-arc lists and priced by one
pass over their ints (other payload shapes go through a type-aware memo),
and a payload object a node sends on several ports is priced once. One
fault-hook call per round decides the batch's deliveries, and the run's
message, bit and per-edge totals are written into :class:`Metrics` once,
so no numpy or tracer call is made per message. On the fast and lossy
redundant broadcasts of the repo benchmark's ``reference`` workload
(``thick_cycle(16, 10)``, k = 2n, a 2-core VM, Python 3.11) a message
costs about 1.8 µs of simulator time, against 2.9 µs with per-message
calls (traced medians of three runs each). The node programs' hooks,
``Context.send`` included, take about 43% of it (27% before); delivery,
activation, pricing, routing and the per-edge counts share the rest.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.congest.metrics import Metrics
from repro.congest.network import Network
from repro.congest.program import Context, NodeProgram
from repro.util.bits import bits_for_payload, message_bit_budget
from repro.util.errors import BandwidthExceeded, ReproError
from repro.util.rng import child_rng, ensure_rng, spawn_seeds

__all__ = ["Simulator", "SimulationResult"]

#: Stands for "no payload priced yet" while a node's sends are drained.
_UNPRICED = object()


def _typed_cache_key(payload):
    """Hashable cache key distinguishing equal-but-differently-typed values.

    ``bits_for_payload`` prices by type (bool: 1 bit, int: magnitude+sign),
    so the memo key must carry element types, not just values.
    """
    cls = payload.__class__
    if cls is tuple or cls is list:
        return (cls.__name__, tuple(_typed_cache_key(item) for item in payload))
    return (cls.__name__, payload)


class SimulationResult:
    """Outcome of one run: per-node programs (with outputs) plus metrics."""

    __slots__ = ("programs", "metrics", "halted")

    def __init__(self, programs: Sequence[NodeProgram], metrics: Metrics, halted: bool):
        self.programs = list(programs)
        self.metrics = metrics
        self.halted = halted

    def outputs(self, key: str) -> list:
        """Collect ``program.output[key]`` from every node."""
        return [p.output.get(key) for p in self.programs]

    def __repr__(self):
        return f"SimulationResult({self.metrics!r}, halted={self.halted})"


class Simulator:
    """Run a :class:`NodeProgram` per node on a :class:`Network`.

    Each message may carry at most ``B = 8·⌈log₂ n⌉`` bits
    (:func:`~repro.util.bits.message_bit_budget`, floored at 32 bits).

    Parameters
    ----------
    network:
        The communication topology.
    program_factory:
        Callable ``node_id -> NodeProgram`` building each node's state
        machine (one fresh instance per node).
    shared:
        Common-knowledge mapping exposed to every node (``n`` is always
        added). The paper's algorithms assume nodes know ``δ`` and ``λ``
        (learnable in Õ(n/δ) rounds, Lemma 4); callers model that by
        placing them here and, if they want end-to-end counts, adding the
        Lemma 4 cost to their round totals.
    seed:
        Root seed for the per-node independent random streams: node ``v``
        draws what ``spawn_rngs(ensure_rng(seed), n)[v]`` would, from a
        generator built when its program first reads ``ctx.rng``.
    """

    def __init__(
        self,
        network: Network,
        program_factory: Callable[[int], NodeProgram],
        shared: dict | None = None,
        seed=None,
    ):
        self.network = network
        self.n = network.n
        self.budget = message_bit_budget(self.n)
        shared = dict(shared or {})
        shared.setdefault("n", self.n)
        self.shared = shared

        rng = ensure_rng(seed)
        node_seeds = spawn_seeds(rng, self.n)
        self.programs: list[NodeProgram] = []
        self.contexts: list[Context] = []
        for v in range(self.n):
            prog = program_factory(v)
            if not isinstance(prog, NodeProgram):
                raise ReproError(
                    f"program_factory returned {type(prog).__name__}, "
                    "expected a NodeProgram"
                )
            self.programs.append(prog)
            self.contexts.append(
                Context(
                    v,
                    self.n,
                    network.degree(v),
                    self.shared,
                    partial(child_rng, rng, node_seeds[v]),
                )
            )
        self._bitsize_cache: dict = {}

    # ------------------------------------------------------------------ #

    def _payload_bits(self, payload) -> int:
        """Bit size of ``payload``, equal to ``bits_for_payload(payload)``.

        A tuple of exact ``int`` elements — what every protocol in this
        library sends — is priced in one pass over its elements. Anything
        else goes through a memo (payloads are overwhelmingly repeated
        shapes) whose key is *type-aware*: plain value keys would conflate
        payloads that compare equal across types — ``hash(True) == hash(1)``
        and ``(0, 1) == (False, True)`` — and a bool-carrying payload would
        be charged the cached bit size of an equal int payload (1 bit vs 2).
        ``bool`` subclasses ``int``, so the fast path tests ``type(x) is
        int`` and leaves bools to the memo.
        """
        if type(payload) is tuple:
            bits = 0
            for x in payload:
                if type(x) is not int:
                    break
                bits += (x.bit_length() or 1) + 1
            else:
                return bits or 1
        try:
            key = _typed_cache_key(payload)
            cached = self._bitsize_cache.get(key)
        except TypeError:  # unhashable payload: compute directly
            return bits_for_payload(payload)
        if cached is None:
            cached = bits_for_payload(payload)
            self._bitsize_cache[key] = cached
        return cached

    def run(self, max_rounds: int = 1_000_000) -> SimulationResult:
        """Execute until quiescence, all-halt, or ``max_rounds``.

        Quiescence = no message in flight and no node requesting a wakeup.
        Raises :class:`ReproError` if ``max_rounds`` is hit (a protocol that
        should have terminated didn't — always a bug, never swallowed).
        """
        with obs.span("simulate.run"):
            result = self._run_rounds(max_rounds)
        metrics = result.metrics
        obs.count("simulate.rounds", metrics.rounds)
        obs.count("simulate.messages", metrics.total_messages)
        obs.count("simulate.bits", metrics.total_bits)
        return result

    def _run_rounds(self, max_rounds: int) -> SimulationResult:
        net = self.network
        arc_start, heads, edges, back_ports = (
            net.arc_start, net.arc_head, net.arc_edge, net.arc_back_port
        )
        programs, contexts = self.programs, self.contexts
        price, budget = self._payload_bits, self.budget
        # The run's totals, written into Metrics once at the end.
        edge_messages = array("q", [0]) * net.graph.m
        total_messages = total_bits = activations = active_peak = 0

        # Round 0 runs on_start everywhere; round r > 0 runs on_round at
        # the nodes that received a message or asked to wake.
        rnd = 0
        active: Iterable[int] = range(self.n)
        inboxes: dict[int, list[tuple[int, object]]] = {}
        wake_set: set[int] = set()
        pending: list[tuple[int, int, tuple[int, object]]] = []
        while True:
            for v in active:
                ctx = contexts[v]
                if ctx._halted:
                    # Messages to halted nodes are dropped (they produced
                    # their output already); this matches the convention
                    # that a terminated node ignores its links.
                    continue
                ctx.round = rnd
                if rnd:
                    ctx.inbox = inboxes.get(v, [])
                    programs[v].on_round(ctx)
                    ctx.inbox = []
                else:
                    programs[v].on_start(ctx)
                outbox = ctx._outbox
                if outbox:
                    # Price and route the sends into the round's batch.
                    # Context.send has checked each port, so arc
                    # arc_start[v] + port exists. A payload object sent on
                    # several ports is priced (and budget-checked) once.
                    ctx._outbox = {}
                    start = arc_start[v]
                    last = _UNPRICED
                    for port, payload in outbox.items():
                        if payload is not last:
                            bits = price(payload)
                            if bits > budget:
                                raise BandwidthExceeded(
                                    f"node {v} round {rnd}: payload of {bits} bits "
                                    f"exceeds budget {budget} (payload={payload!r})"
                                )
                            last = payload
                        total_bits += bits
                        a = start + port
                        eid = edges[a]
                        edge_messages[eid] += 1
                        pending.append((heads[a], eid, (back_ports[a], payload)))
                    total_messages += len(outbox)
                if ctx._wake:
                    if not ctx._halted:
                        wake_set.add(v)
                    ctx._wake = False
            if not (pending or wake_set):
                break
            rnd += 1
            if rnd > max_rounds:
                raise ReproError(
                    f"simulation exceeded max_rounds={max_rounds}; "
                    "protocol failed to terminate"
                )
            # Deliver the previous round's sends that the fault hook keeps
            # (the base simulator keeps all of them), in send order.
            inboxes = {}
            for dst, _eid, item in self._deliver(rnd, pending):
                box = inboxes.get(dst)
                if box is None:
                    inboxes[dst] = [item]
                else:
                    box.append(item)
            pending = []
            # Canonical activation order (ascending node id). Protocol
            # outputs never depend on it (per-node state is isolated), but
            # the order of the sends it produces fixes next round's delivery
            # order — and therefore the fault RNG consumption order of
            # :class:`repro.congest.faults.FaultySimulator` — so it must be
            # deterministic for the vectorized fault engine
            # (:mod:`repro.engine.faults`) to replicate it bit for bit.
            active = sorted(inboxes.keys() | wake_set)
            wake_set = set()
            activations += len(active)
            active_peak = max(active_peak, len(active))

        if rnd:
            obs.count("simulate.activations", activations)
            obs.count("simulate.active_peak", active_peak, "max")
        metrics = Metrics(
            m=net.graph.m,
            rounds=rnd,
            total_messages=total_messages,
            total_bits=total_bits,
            edge_messages=np.frombuffer(edge_messages, dtype=np.int64),
        )
        halted = all(ctx._halted for ctx in contexts)
        return SimulationResult(programs, metrics, halted)

    def _deliver(
        self, rnd: int, batch: list[tuple[int, int, tuple[int, object]]]
    ) -> list[tuple[int, int, tuple[int, object]]]:
        """Fault hook: the messages of ``batch`` that arrive in round
        ``rnd``, in batch order.

        ``batch`` holds every message sent in round ``rnd - 1``, in send
        order (sender ascending, then the sender's send order), each as
        ``(receiver, edge id, (receiver's port, payload))``. The base
        simulator is fault-free and delivers the whole batch; see
        :class:`repro.congest.faults.FaultySimulator`.
        """
        return batch
