"""Redundant broadcast over the tree packing: resilience from edge-disjointness.

The paper's packing feeds the Fischer–Parter compiler (Section 1.2); the
underlying mechanism is elementary and worth demonstrating directly: the
λ' trees are **edge-disjoint**, so an adversary must invest in *every* tree
carrying a message to suppress it. Assigning each message to ``r`` distinct
trees makes it survive the total loss of any ``r − 1`` color classes, at an
r× pipeline cost — rounds ≈ 2·depth + 2·r·k/λ'.

:func:`redundant_broadcast` runs exactly that on the (optionally faulty)
simulator and reports per-message delivery coverage, so experiments can
show the full redundancy/resilience trade-off: r = 1 loses precisely the
sabotaged tree's messages; r = 2 delivers everything through a dead class.

Scenarios come from :mod:`repro.congest.adversary` (static saboteur,
sweeping mobile adversary, i.i.d. loss, targeted-cut attacker), and
``backend="vectorized"`` replays the identical execution on the fault-aware
numpy engine (:mod:`repro.engine.faults`) — bit-identical
:class:`DeliveryReport`, same fault RNG stream — at n = 10⁵ scale
(benchmark E16: about 550× over the simulator at n = 10⁴, leaf ``e16c``).
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro import obs
from repro.congest.adversary import AdversarySchedule, FaultPlan
from repro.congest.faults import FaultySimulator
from repro.congest.network import Network
from repro.congest.program import Context, NodeProgram
from repro.core.broadcast import _bfs_view, _number_messages, _placement_ids
from repro.core.tree_packing import TreePacking
from repro.graphs.graph import Graph
from repro.primitives.pipeline import ChannelSpec
from repro.util.errors import ProtocolError, ValidationError

__all__ = [
    "DeliveryReport",
    "FaultCell",
    "RepairOutcome",
    "evaluate_fault_grid",
    "redundant_broadcast",
    "repair_coverage",
    "tree_edge_ids",
]

_UP = 0
_DOWN = 1


def tree_edge_ids(packing: TreePacking, index: int) -> set[int]:
    """Edge ids (in the host graph) of one packed tree — a sabotage target."""
    tree = packing.trees[index]
    return {
        packing.graph.edge_id(u, v) for u, v in tree.edges()
    }


class _TrackingProgram(NodeProgram):
    """Pipelined broadcast that records the exact id set each node received.

    A fault-tolerant variant of
    :class:`repro.primitives.pipeline.PipelinedBroadcastProgram`: receipts
    are sets (idempotent under the duplicate deliveries redundancy causes),
    and the node keeps pumping as long as any queue is non-empty, so drops
    upstream cannot wedge it.
    """

    def __init__(self, node: int, channels: dict[int, ChannelSpec]):
        super().__init__()
        self.node = node
        self.specs = channels
        self.up_queue: dict[int, deque[int]] = {}
        self.down_queue: dict[int, deque[int]] = {}
        self.received: set[int] = set()
        for cid, spec in channels.items():
            if spec.parent_port is None:
                self.up_queue[cid] = deque()
                self.down_queue[cid] = deque(spec.own)
                self.received.update(spec.own)
            else:
                self.up_queue[cid] = deque(spec.own)
                self.down_queue[cid] = deque()

    def _pump(self, ctx: Context) -> None:
        busy = False
        for cid, spec in self.specs.items():
            uq, dq = self.up_queue[cid], self.down_queue[cid]
            if uq and spec.parent_port is not None:
                ctx.send(spec.parent_port, (_UP, cid, uq.popleft()))
                busy = busy or bool(uq)
            if dq:
                mid = dq.popleft()
                for p in spec.child_ports:
                    ctx.send(p, (_DOWN, cid, mid))
                busy = busy or bool(dq)
        if busy:
            ctx.wake()

    def on_start(self, ctx: Context) -> None:
        self._pump(ctx)

    def on_round(self, ctx: Context) -> None:
        for _port, payload in ctx.inbox:
            kind, cid, mid = payload
            spec = self.specs.get(cid)
            if spec is None:
                raise ProtocolError(f"unknown channel {cid}")
            if kind == _UP:
                if spec.parent_port is None:
                    if mid not in self.received:
                        self.received.add(mid)
                    self.down_queue[cid].append(mid)
                else:
                    self.up_queue[cid].append(mid)
            elif kind == _DOWN:
                self.received.add(mid)
                self.down_queue[cid].append(mid)
            else:
                raise ProtocolError(f"unknown payload kind {kind}")
        self._pump(ctx)


@dataclass
class DeliveryReport:
    """Coverage statistics of a (possibly faulted) redundant broadcast.

    Both backends produce bit-identical reports: same rounds, same dropped
    count, same coverage fractions — and, when ``collect_receipts=True`` was
    passed, the same exact per-message receipt sets. ``fault_rng_state`` is
    the fault generator's final PCG64 state, recorded so the equivalence
    harness can assert the two backends consumed the stream identically.
    """

    k: int
    redundancy: int
    rounds: int
    dropped_messages: int
    per_message_coverage: dict[int, float] = field(default_factory=dict)
    backend: str = "simulator"
    receipts: dict[int, frozenset[int]] | None = None
    fault_rng_state: dict | None = None
    #: Certified send totals (drops included — a dropped message spent its
    #: bandwidth): the simulator's ``Metrics`` counters, matched bit for bit
    #: by the vectorized engine's send-time accounting.
    total_messages: int = 0
    total_bits: int = 0

    @property
    def fully_delivered(self) -> int:
        """Messages that reached *every* node."""
        return sum(1 for c in self.per_message_coverage.values() if c >= 1.0)

    @property
    def min_coverage(self) -> float:
        return min(self.per_message_coverage.values()) if self.k else 1.0


def _check_redundancy(redundancy, parts: int) -> None:
    if not isinstance(redundancy, numbers.Integral) or not 1 <= redundancy <= parts:
        raise ValidationError(
            f"redundancy must be an integer in [1, #trees], got {redundancy!r}"
        )


@obs.traced("redundant_broadcast")
def redundant_broadcast(
    graph: Graph,
    placement: dict[int, int],
    packing: TreePacking,
    redundancy: int = 1,
    dead_edges: Iterable[int] | None = None,
    drop_rate: float = 0.0,
    mobile: Mapping[int, Iterable[int]] | None = None,
    seed: int = 0,
    fault_seed: int | None = None,
    adversary: AdversarySchedule | None = None,
    backend: str = "simulator",
    collect_receipts: bool = False,
) -> DeliveryReport:
    """Broadcast with each message assigned to ``redundancy`` distinct trees.

    Message id j rides trees ``(h + i) mod parts`` for i < redundancy, where
    ``h = (j-1) // ⌈k/parts⌉`` is the Theorem 1 home tree — so redundant
    copies land on *distinct* edge-disjoint trees. Faults are injected at
    delivery time (see :class:`repro.congest.faults.FaultySimulator`);
    the report states, per message, the fraction of nodes that got it.

    Scenarios come from the explicit ``dead_edges`` / ``drop_rate`` /
    ``mobile`` triple, an :class:`~repro.congest.adversary.AdversarySchedule`
    (compiled against this graph and packing, then merged in), or both.
    ``fault_seed`` drives only the drop-rate coins (defaults to ``seed``;
    varying it alone never changes which messages exist, only which
    deliveries fail). ``backend="vectorized"`` runs the whole experiment on
    the fault-aware numpy engine (:mod:`repro.engine.faults`) and returns a
    bit-identical report — same receipts, drops, rounds, and fault RNG
    stream — at orders of magnitude larger n.
    """
    from repro.engine import validate_backend

    validate_backend(backend)
    parts = packing.size
    _check_redundancy(redundancy, parts)
    plan = FaultPlan(
        dead_edges=frozenset(int(e) for e in (dead_edges or ())),
        drop_rate=float(drop_rate),
        mobile=dict(mobile or {}),
    )
    if adversary is not None:
        plan = plan.merged(adversary.compile(graph, packing=packing))
    if fault_seed is None:
        fault_seed = seed
    k = sum(placement.values())
    leader, _gtree, starts, _phases = _number_messages(graph, placement, backend)
    ids = _placement_ids(placement, starts)

    import math

    K = max(1, math.ceil(k / parts))
    per_channel: dict[int, dict[int, list[int]]] = {c: {} for c in range(parts)}
    for v, mids in ids.items():
        for j in mids:
            home = min((j - 1) // K, parts - 1)
            for i in range(redundancy):
                c = (home + i) % parts
                per_channel[c].setdefault(v, []).append(j)

    trees = {c: _bfs_view(packing, c) for c in range(parts)}
    all_ids = [j for mids in ids.values() for j in mids]

    if backend == "vectorized":
        from repro.engine.faults import vectorized_faulty_broadcast

        out = vectorized_faulty_broadcast(
            graph, trees, per_channel, plan=plan, fault_seed=fault_seed
        )
        import numpy as np

        rows = np.searchsorted(out.mids, np.asarray(all_ids, dtype=np.int64))
        coverage = {
            j: int(out.receipt_counts[r]) / graph.n
            for j, r in zip(all_ids, rows.tolist())
        }
        receipts = out.receipts() if collect_receipts else None
        return DeliveryReport(
            k=k,
            redundancy=redundancy,
            rounds=out.rounds,
            dropped_messages=out.dropped,
            per_message_coverage=coverage,
            backend=backend,
            receipts=receipts,
            fault_rng_state=out.fault_rng_state,
            total_messages=out.total_messages,
            total_bits=out.total_bits,
        )

    network = Network(graph)
    programs: list[_TrackingProgram] = []

    def factory(v: int) -> _TrackingProgram:
        specs: dict[int, ChannelSpec] = {}
        for cid, tree in trees.items():
            parent = int(tree.parent[v])
            specs[cid] = ChannelSpec(
                parent_port=None if parent == v else network.port_to(v, parent),
                child_ports=[network.port_to(v, c) for c in tree.children[v]],
                own=list(per_channel.get(cid, {}).get(v, [])),
                total=0,
            )
        prog = _TrackingProgram(v, specs)
        programs.append(prog)
        return prog

    sim = FaultySimulator(
        network,
        factory,
        plan=plan,
        fault_seed=fault_seed,
        seed=seed,
    )
    result = sim.run()

    coverage = {
        j: sum(1 for p in programs if j in p.received) / graph.n for j in all_ids
    }
    receipts = None
    if collect_receipts:
        receipts = {
            j: frozenset(v for v, p in enumerate(programs) if j in p.received)
            for j in all_ids
        }
    return DeliveryReport(
        k=k,
        redundancy=redundancy,
        rounds=result.metrics.rounds,
        dropped_messages=sim.dropped,
        per_message_coverage=coverage,
        backend=backend,
        receipts=receipts,
        fault_rng_state=sim._fault_rng.bit_generator.state,
        total_messages=result.metrics.total_messages,
        total_bits=result.metrics.total_bits,
    )


# --------------------------------------------------------------------------- #
# Grid evaluation — many (scenario × defense × seed) cells, one shared setup
# --------------------------------------------------------------------------- #

@dataclass
class FaultCell:
    """One cell of a resilience grid: scenario × defense × coin seed.

    ``fault_seed=None`` inherits the grid's base ``seed``, exactly like
    :func:`redundant_broadcast`'s default.
    """

    redundancy: int = 1
    dead_edges: Iterable[int] = ()
    drop_rate: float = 0.0
    mobile: Mapping[int, Iterable[int]] | None = None
    adversary: AdversarySchedule | None = None
    fault_seed: int | None = None


@obs.traced("fault_grid")
def evaluate_fault_grid(
    graph: Graph,
    placement: dict[int, int],
    packing: TreePacking,
    cells: Iterable[FaultCell],
    seed: int = 0,
    backend: str = "vectorized",
    collect_receipts: bool = False,
) -> list[DeliveryReport]:
    """Evaluate a whole resilience grid with the broadcast setup paid once.

    Report ``i`` is bit-identical to the corresponding solo
    :func:`redundant_broadcast` call with ``cells[i]``'s scenario, defense,
    and fault seed — same coverage, drops, rounds, send totals, and fault
    RNG state. The per-cell work a naive loop repeats — leader election and
    message numbering, placement-id assignment, the per-tree BFS views, and
    the per-redundancy message-to-tree split — is hoisted and shared across
    every cell that agrees on it; only the faulty broadcast engine itself
    runs per cell. The simulator backend has no shareable setup (the
    network is rebuilt per run by construction) and loops the solo calls.
    """
    from repro.engine import validate_backend

    cells = list(cells)
    if validate_backend(backend) != "vectorized":
        return [
            redundant_broadcast(
                graph,
                placement,
                packing,
                redundancy=c.redundancy,
                dead_edges=c.dead_edges,
                drop_rate=c.drop_rate,
                mobile=c.mobile,
                seed=seed,
                fault_seed=c.fault_seed,
                adversary=c.adversary,
                backend=backend,
                collect_receipts=collect_receipts,
            )
            for c in cells
        ]

    import math

    import numpy as np

    from repro.engine.faults import vectorized_faulty_broadcast

    parts = packing.size
    k = sum(placement.values())
    leader, _gtree, starts, _phases = _number_messages(graph, placement, backend)
    ids = _placement_ids(placement, starts)
    trees = {c: _bfs_view(packing, c) for c in range(parts)}
    all_ids = [j for mids in ids.values() for j in mids]
    K = max(1, math.ceil(k / parts))

    splits: dict[int, dict[int, dict[int, list[int]]]] = {}

    def split(redundancy: int) -> dict[int, dict[int, list[int]]]:
        pc = splits.get(redundancy)
        if pc is None:
            pc = {c: {} for c in range(parts)}
            for v, mids in ids.items():
                for j in mids:
                    home = min((j - 1) // K, parts - 1)
                    for i in range(redundancy):
                        pc[(home + i) % parts].setdefault(v, []).append(j)
            splits[redundancy] = pc
        return pc

    reports: list[DeliveryReport] = []
    for cell in cells:
        redundancy = cell.redundancy
        _check_redundancy(redundancy, parts)
        plan = FaultPlan(
            dead_edges=frozenset(int(e) for e in (cell.dead_edges or ())),
            drop_rate=float(cell.drop_rate),
            mobile=dict(cell.mobile or {}),
        )
        if cell.adversary is not None:
            plan = plan.merged(cell.adversary.compile(graph, packing=packing))
        fault_seed = seed if cell.fault_seed is None else cell.fault_seed
        out = vectorized_faulty_broadcast(
            graph, trees, split(redundancy), plan=plan, fault_seed=fault_seed
        )
        rows = np.searchsorted(out.mids, np.asarray(all_ids, dtype=np.int64))
        coverage = {
            j: int(out.receipt_counts[r]) / graph.n
            for j, r in zip(all_ids, rows.tolist())
        }
        reports.append(
            DeliveryReport(
                k=k,
                redundancy=redundancy,
                rounds=out.rounds,
                dropped_messages=out.dropped,
                per_message_coverage=coverage,
                backend=backend,
                receipts=out.receipts() if collect_receipts else None,
                fault_rng_state=out.fault_rng_state,
                total_messages=out.total_messages,
                total_bits=out.total_bits,
            )
        )
    return reports


# --------------------------------------------------------------------------- #
# Coverage repair — graceful degradation after a structural attack
# --------------------------------------------------------------------------- #

@dataclass
class RepairOutcome:
    """What the coverage-repair loop detected, did, and paid.

    ``repair_rounds`` is the certified CONGEST price of the repair itself
    (validity BFS per re-root attempt — charged even when the attempt
    fails — plus the fallback rebuild's construction rounds); the rerun's
    broadcast rounds are in ``final.rounds`` as usual.
    """

    initial: DeliveryReport
    final: DeliveryReport
    broken_channels: list[int]
    rerooted: dict[int, int]
    rebuilt: bool
    repair_rounds: int
    attempts: int
    packing: TreePacking

    @property
    def recovered(self) -> bool:
        """Did repair restore full delivery?"""
        return self.final.min_coverage >= 1.0

    @property
    def improvement(self) -> float:
        return self.final.min_coverage - self.initial.min_coverage


@obs.traced("coverage_repair")
def repair_coverage(
    graph: Graph,
    placement: dict[int, int],
    packing: TreePacking,
    redundancy: int = 1,
    dead_edges: Iterable[int] | None = None,
    drop_rate: float = 0.0,
    mobile: Mapping[int, Iterable[int]] | None = None,
    seed: int = 0,
    fault_seed: int | None = None,
    adversary: AdversarySchedule | None = None,
    backend: str = "simulator",
    max_reroots: int = 4,
    initial_report: DeliveryReport | None = None,
) -> RepairOutcome:
    """Detect dead color classes and rebuild only what broke (Section 1.2).

    Runs :func:`redundant_broadcast`, reads the :class:`DeliveryReport`, and
    if delivery is incomplete repairs the packing before one rerun:

    1. **Detect** — a channel is *broken* when it carried a message with
       coverage < 1 **and** its tree uses a statically dead edge. Transient
       loss (``drop_rate``/``mobile``) is not structural damage; nothing to
       re-root, so those channels are left alone.
    2. **Re-root** — for each broken channel (at most ``max_reroots``), one
       validity BFS on the class's *live* edges (``class_masks[c]`` minus the
       dead set), rooted at the highest-live-degree node (ties: smallest id)
       — the spot the damage touches least. A spanning result replaces the
       tree; the BFS rounds are charged either way.
    3. **Rebuild fallback** — when the certificate is truly broken (no class
       masks, more than ``max_reroots`` dead classes, or a live class that no
       longer spans), rebuild a whole packing on the live host graph with
       spread roots. If even that fails (the damage disconnected the graph),
       the partial repairs stand and the rerun reports how far they got.

    Both backends execute the identical repair: the detection reads the
    bit-identical report, the re-root BFS and rebuild are the certified
    packing primitives, and the rerun is :func:`redundant_broadcast` again —
    so the full :class:`RepairOutcome` matches across backends bit for bit.

    ``initial_report`` lets a caller that already evaluated this exact
    scenario (e.g. one :func:`evaluate_fault_grid` cell) hand the report in
    instead of paying the initial broadcast again — it must come from the
    same (graph, placement, packing, scenario, seeds, backend) tuple, which
    the grid guarantees bit-identically.
    """
    import numpy as np

    from repro.core.tree_packing import (
        SpanningTree,
        _packing_from_trees,
        build_packing_with_retry,
    )
    from repro.primitives.bfs import run_parallel_bfs

    parts = packing.size
    plan = FaultPlan(
        dead_edges=frozenset(int(e) for e in (dead_edges or ())),
        drop_rate=float(drop_rate),
        mobile=dict(mobile or {}),
    )
    if adversary is not None:
        plan = plan.merged(adversary.compile(graph, packing=packing))

    def run(pk: TreePacking) -> DeliveryReport:
        return redundant_broadcast(
            graph,
            placement,
            pk,
            redundancy=redundancy,
            dead_edges=plan.dead_edges,
            drop_rate=plan.drop_rate,
            mobile=plan.mobile,
            seed=seed,
            fault_seed=fault_seed,
            backend=backend,
        )

    initial = initial_report if initial_report is not None else run(packing)
    done = RepairOutcome(
        initial=initial, final=initial, broken_channels=[], rerooted={},
        rebuilt=False, repair_rounds=0, attempts=0, packing=packing,
    )
    if initial.min_coverage >= 1.0:
        return done

    dead_mask = np.zeros(graph.m, dtype=bool)
    if plan.dead_edges:
        dead_mask[np.fromiter(plan.dead_edges, dtype=np.int64)] = True

    # Detect: report-driven suspects ∩ structurally damaged trees.
    import math

    k = initial.k
    K = max(1, math.ceil(k / parts))
    suspects: set[int] = set()
    for j, cov in initial.per_message_coverage.items():
        if cov < 1.0:
            home = min((j - 1) // K, parts - 1)
            suspects.update((home + i) % parts for i in range(redundancy))
    structural = {
        c for c in suspects
        if any(dead_mask[e] for e in tree_edge_ids(packing, c))
    }
    broken = sorted(structural)
    if not broken:
        return done  # purely transient loss — nothing structural to repair

    trees = list(packing.trees)
    masks = packing.class_masks
    rerooted: dict[int, int] = {}
    repair_rounds = 0
    attempts = 0
    need_rebuild = masks is None or len(broken) > max_reroots
    if not need_rebuild:
        for c in broken:
            live = masks[c] & ~dead_mask
            deg = np.zeros(graph.n, dtype=np.int64)
            eids = np.nonzero(live)[0]
            np.add.at(deg, graph.edge_u[eids], 1)
            np.add.at(deg, graph.edge_v[eids], 1)
            new_root = int(np.lexsort((np.arange(graph.n), -deg))[0])
            attempts += 1
            results, rounds = run_parallel_bfs(
                graph, [live], roots=[new_root], backend=backend
            )
            repair_rounds += rounds
            if not results[0].spans():
                need_rebuild = True  # class certificate broken beyond re-rooting
                break
            res = results[0]
            trees[c] = SpanningTree(
                root=new_root, parent=res.parent.copy(), depth_of=res.dist.copy()
            )
            rerooted[c] = new_root

    rebuilt = False
    if need_rebuild:
        live_host = ~dead_mask
        sub, orig = graph.edge_subgraph_with_map(live_host)
        try:
            live_packing, _ = build_packing_with_retry(
                sub, parts, seed=seed, roots="spread", backend=backend
            )
        except ValidationError:
            pass  # damage disconnected the graph — partial repairs stand
        else:
            rebuilt = True
            rerooted = {}
            trees = live_packing.trees
            repair_rounds += live_packing.construction_rounds
            masks = None
            if live_packing.class_masks is not None:
                masks = []
                for lm in live_packing.class_masks:
                    hm = np.zeros(graph.m, dtype=bool)
                    hm[orig[np.nonzero(lm)[0]]] = True
                    masks.append(hm)

    if not rerooted and not rebuilt:
        return RepairOutcome(
            initial=initial, final=initial, broken_channels=broken, rerooted={},
            rebuilt=False, repair_rounds=repair_rounds, attempts=attempts,
            packing=packing,
        )
    repaired = _packing_from_trees(
        graph, trees, packing.construction_rounds, class_masks=masks
    )
    final = run(repaired)
    return RepairOutcome(
        initial=initial,
        final=final,
        broken_channels=broken,
        rerooted=rerooted,
        rebuilt=rebuilt,
        repair_rounds=repair_rounds,
        attempts=attempts,
        packing=repaired,
    )
