"""Synchronous round-driven CONGEST simulator.

The simulator *is* the model (DESIGN.md §2): per round every node may send
one message of at most ``B = bandwidth_factor · ⌈log₂ n⌉`` bits per incident
edge; messages sent in round r are delivered at the start of round r+1.
Oversized payloads and double-sends raise :class:`BandwidthExceeded` — round
counts reported by a completed run are therefore certified CONGEST
executions, never estimates.

Performance notes: the loop maintains an **active set**, so rounds where
only a frontier of nodes acts cost O(frontier), not O(n). Transport is
table-driven: a send is routed by three reads of the :class:`Network`'s
per-arc lists and priced by one pass over its ints (other payload shapes
go through a type-aware memo), so no numpy call is made per message beyond
the per-edge count in :class:`Metrics`. On the fast and lossy redundant
broadcasts of the repo benchmark's ``reference`` workload
(``thick_cycle(16, 10)``, k = 2n, a 2-core VM) a message costs about
2.7 µs of simulator time. The node programs take about 30% of it; delivery,
activation, pricing, routing and the per-edge counts share the rest.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro import obs
from repro.congest.metrics import Metrics
from repro.congest.network import Network
from repro.congest.program import Context, NodeProgram
from repro.util.bits import bits_for_payload, message_bit_budget
from repro.util.errors import BandwidthExceeded, ReproError
from repro.util.rng import ensure_rng, spawn_rngs

__all__ = ["Simulator", "SimulationResult"]


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
    bandwidth_factor:
        Hidden constant of the O(log n) bandwidth; see
        :func:`repro.util.bits.message_bit_budget`.
    seed:
        Root seed for the per-node independent random streams.
    """

    def __init__(
        self,
        network: Network,
        program_factory: Callable[[int], NodeProgram],
        shared: dict | None = None,
        bandwidth_factor: int = 8,
        seed=None,
    ):
        self.network = network
        self.n = network.n
        self.budget = message_bit_budget(self.n, bandwidth_factor)
        shared = dict(shared or {})
        shared.setdefault("n", self.n)
        self.shared = shared

        rng = ensure_rng(seed)
        node_rngs = spawn_rngs(rng, self.n)
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
                Context(v, self.n, network.degree(v), self.shared, node_rngs[v])
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
        net = self.network
        graph = net.graph
        metrics = Metrics(m=graph.m)
        budget = self.budget

        with obs.span("simulate.run"):
            result = self._run_rounds(max_rounds, metrics, budget)
        obs.count("simulate.rounds", metrics.rounds)
        obs.count("simulate.messages", metrics.total_messages)
        obs.count("simulate.bits", metrics.total_bits)
        return result

    def _run_rounds(
        self, max_rounds: int, metrics: Metrics, budget: int
    ) -> SimulationResult:
        # round 0: on_start everywhere
        pending: list[tuple[int, int, object, int]] = []  # (dst, port, payload, eid)
        for v in range(self.n):
            ctx = self.contexts[v]
            ctx.round = 0
            self.programs[v].on_start(ctx)
            pending.extend(self._drain_outbox(v, ctx, metrics, budget))
        metrics.rounds = 0

        wake_set = {
            v for v in range(self.n) if self.contexts[v]._wake and not self.contexts[v]._halted
        }
        for ctx in self.contexts:
            ctx._wake = False

        rnd = 0
        while pending or wake_set:
            rnd += 1
            if rnd > max_rounds:
                raise ReproError(
                    f"simulation exceeded max_rounds={max_rounds}; "
                    "protocol failed to terminate"
                )
            # Deliver round (rnd-1) messages; the fault hook may drop some
            # (base implementation delivers everything).
            inboxes: dict[int, list[tuple[int, object]]] = {}
            for dst, dst_port, payload, eid in pending:
                if self._deliverable(rnd, eid):
                    inboxes.setdefault(dst, []).append((dst_port, payload))
            pending = []

            # Canonical activation order (ascending node id). Protocol
            # outputs never depend on it (per-node state is isolated), but
            # the order of the sends it produces fixes next round's delivery
            # order — and therefore the fault RNG consumption order of
            # :class:`repro.congest.faults.FaultySimulator` — so it must be
            # deterministic for the vectorized fault engine
            # (:mod:`repro.engine.faults`) to replicate it bit for bit.
            active = sorted(set(inboxes) | wake_set)
            obs.count("simulate.activations", len(active))
            obs.count("simulate.active_peak", len(active), "max")
            wake_set = set()
            for v in active:
                ctx = self.contexts[v]
                if ctx._halted:
                    # Messages to halted nodes are dropped (they produced
                    # their output already); this matches the convention
                    # that a terminated node ignores its links.
                    continue
                ctx.round = rnd
                ctx.inbox = inboxes.get(v, [])
                self.programs[v].on_round(ctx)
                pending.extend(self._drain_outbox(v, ctx, metrics, budget))
                if ctx._wake and not ctx._halted:
                    wake_set.add(v)
                ctx._wake = False
                ctx.inbox = []
            metrics.rounds = rnd

        halted = all(ctx._halted for ctx in self.contexts)
        return SimulationResult(self.programs, metrics, halted)

    def _drain_outbox(self, v: int, ctx: Context, metrics: Metrics, budget: int):
        """Price and route node ``v``'s sends; returns delivery quadruples.

        ``Context.send`` has already checked each port, so arc
        ``arc_start[v] + port`` exists and three list reads route it.
        """
        net = self.network
        start = net.arc_start[v]
        heads, edges, back_ports = net.arc_head, net.arc_edge, net.arc_back_port
        out = []
        for port, payload in ctx._outbox.items():
            bits = self._payload_bits(payload)
            if bits > budget:
                raise BandwidthExceeded(
                    f"node {v} round {ctx.round}: payload of {bits} bits exceeds "
                    f"budget {budget} (payload={payload!r})"
                )
            a = start + port
            eid = edges[a]
            metrics.record_message(eid, bits)
            out.append((heads[a], back_ports[a], payload, eid))
        ctx._outbox = {}
        return out

    def _deliverable(self, rnd: int, eid: int) -> bool:
        """Fault hook: return False to drop a message on edge ``eid`` at
        delivery time. The base simulator is fault-free; see
        :class:`repro.congest.faults.FaultySimulator`."""
        return True
