"""Redundant broadcast over the tree packing: resilience from edge-disjointness.

The paper's packing feeds the Fischer–Parter compiler (Section 1.2); the
underlying mechanism is elementary and worth demonstrating directly: the
λ' trees are **edge-disjoint**, so an adversary must invest in *every* tree
carrying a message to suppress it. Assigning each message to ``r`` distinct
trees makes it survive the total loss of any ``r − 1`` color classes, at an
r× pipeline cost — rounds ≈ 2·depth + 2·r·k/λ'.

:func:`redundant_broadcast` runs exactly that on the (optionally faulty)
simulator, with the one Lemma 1 node program
(:class:`~repro.primitives.pipeline.PipelinedBroadcastProgram`), and
reports per-message delivery coverage, so experiments can show the full
redundancy/resilience trade-off: r = 1 loses precisely the sabotaged
tree's messages; r = 2 delivers everything through a dead class.

Scenarios come from :mod:`repro.congest.adversary` (static saboteur,
sweeping mobile adversary, i.i.d. loss, targeted-cut attacker), and
``backend="vectorized"`` replays the identical execution on the fault-aware
numpy engine (:mod:`repro.engine.faults`) — bit-identical
:class:`DeliveryReport`, same fault RNG stream — at n = 10⁵ scale
(benchmark E16: 1,744× over the simulator at n = 10⁴, leaf ``e16c``).
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro import obs
from repro.congest.adversary import AdversarySchedule, FaultPlan
from repro.congest.faults import FaultySimulator
from repro.congest.network import Network
from repro.core.broadcast import (
    _message_trees,
    _number_messages_batch,
    _placement_ids,
)
from repro.core.tree_packing import TreePacking, packing_from_bfs_results
from repro.engine.faults import (
    FaultyBroadcastOutcome,
    _popcount_rows,
    vectorized_faulty_broadcast,
)
from repro.engine.kernels import arc_edge_ids
from repro.graphs.graph import Graph
from repro.primitives.bfs import BFSResult
from repro.primitives.pipeline import checked_messages, simulate_pipelines
from repro.util.errors import ValidationError

__all__ = [
    "DeliveryReport",
    "FaultCell",
    "RepairOutcome",
    "evaluate_fault_grid",
    "redundant_broadcast",
    "repair_coverage",
    "split_messages",
    "tree_edge_ids",
]


def tree_edge_ids(packing: TreePacking, index: int) -> set[int]:
    """Edge ids (in the host graph) of one packed tree — a sabotage target,
    read off the tree's carried ``parent_edge``. ``index`` must be an
    integer in ``[0, packing.size)``; a negative one would name a tree
    counted from the end."""
    if not isinstance(index, numbers.Integral) or not 0 <= index < packing.size:
        raise ValidationError(
            f"tree index must be an integer in [0, {packing.size}), got {index!r}"
        )
    pe = packing.trees[index].parent_edge
    return set(pe[pe >= 0].tolist())


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
    stream — at orders of magnitude larger n. A grid of one
    (:func:`evaluate_fault_grid`).
    """
    cell = FaultCell(
        redundancy=redundancy,
        dead_edges=dead_edges or (),
        drop_rate=drop_rate,
        mobile=mobile,
        adversary=adversary,
        fault_seed=fault_seed,
    )
    return evaluate_fault_grid(
        graph, placement, packing, [cell], seed=seed, backend=backend,
        collect_receipts=collect_receipts,
    )[0]


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

    def plan(self, graph: Graph, packing: TreePacking) -> FaultPlan:
        """The cell's scenario as one :class:`FaultPlan`: the explicit
        triple, merged with the adversary compiled against ``packing``."""
        plan = FaultPlan(
            dead_edges=self.dead_edges or (),
            drop_rate=float(self.drop_rate),
            mobile=self.mobile or {},
        )
        if self.adversary is not None:
            plan = plan.merged(self.adversary.compile(graph, packing=packing))
        return plan


def _simulate_cell(
    network: Network,
    trees: dict[int, BFSResult],
    split: dict[int, tuple[np.ndarray, np.ndarray]],
    mids: np.ndarray,
    plan: FaultPlan,
    fault_seed,
    seed,
) -> FaultyBroadcastOutcome:
    """One cell: the Lemma 1 pipeline on a :class:`FaultySimulator`, each
    node's receipts ORed into a matrix packed like the vectorized engine's."""
    n = network.n
    result, sim = simulate_pipelines(
        network, trees, checked_messages(network.graph, trees, split),
        simulator=FaultySimulator, plan=plan, fault_seed=fault_seed, seed=seed,
    )
    recv = np.zeros((mids.size, max(1, (n + 7) // 8)), dtype=np.uint8)
    for v, prog in enumerate(result.programs):
        got = np.fromiter(
            itertools.chain.from_iterable(st.received for st in prog.ch.values()),
            dtype=np.int64,
        )
        recv[np.searchsorted(mids, got), v >> 3] |= np.uint8(1 << (v & 7))
    metrics = result.metrics
    return FaultyBroadcastOutcome(
        rounds=metrics.rounds,
        dropped=sim.dropped,
        mids=mids,
        receipt_counts=_popcount_rows(recv),
        receipt_bits=recv,
        n=n,
        fault_rng_state=sim._fault_rng.bit_generator.state,
        total_messages=metrics.total_messages,
        total_bits=metrics.total_bits,
    )


def split_messages(
    ids: dict[int, list[int]], parts: int, redundancy: int
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Each message on its home tree and the ``redundancy - 1`` trees after
    it, as ``{tree: (origins, ids)}`` in the order of ``ids``: the ids
    ``1..k`` fill the trees in blocks of ⌈k / parts⌉, the last tree taking
    any remainder (:func:`~repro.core.broadcast._message_trees`)."""
    counts = [len(vids) for vids in ids.values()]
    origins = np.repeat(np.fromiter(ids, dtype=np.int64, count=len(ids)), counts)
    flat = np.fromiter(
        itertools.chain.from_iterable(ids.values()), dtype=np.int64, count=sum(counts)
    )
    rides = _message_trees(flat, flat.size, parts, redundancy)
    pc = {}
    for c in range(parts):
        hit = (rides == c).any(axis=1)
        pc[c] = (origins[hit], flat[hit])
    return pc


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

    Report ``i`` is the :func:`redundant_broadcast` of ``cells[i]``'s
    scenario, defense, and fault seed — coverage, drops, rounds, send
    totals, and fault RNG state. The setup is shared by every cell, on
    both backends: leader election and message numbering, placement-id
    assignment, and the message-to-tree split of each redundancy level.
    Only the faulty broadcast itself runs per cell:
    on a :class:`~repro.congest.faults.FaultySimulator`, or on the
    vectorized engine (:func:`~repro.engine.faults.vectorized_faulty_broadcast`).
    """
    from repro.engine import validate_backend

    validate_backend(backend)
    cells = list(cells)
    parts = packing.size
    for cell in cells:
        _check_redundancy(cell.redundancy, parts)
    k = sum(placement.values())
    _leader, _gtree, starts, _phases = _number_messages_batch(
        graph, [placement], backend
    )[0]
    ids = _placement_ids(placement, starts)
    trees = dict(enumerate(packing.trees))
    all_ids = [j for vids in ids.values() for j in vids]
    mids = np.unique(np.asarray(all_ids, dtype=np.int64))
    rows = np.searchsorted(mids, np.asarray(all_ids, dtype=np.int64))
    network = Network(graph) if backend == "simulator" else None

    splits: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]] = {}

    def split(redundancy: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        if redundancy not in splits:
            splits[redundancy] = split_messages(ids, parts, redundancy)
        return splits[redundancy]

    reports: list[DeliveryReport] = []
    for cell in cells:
        plan = cell.plan(graph, packing)
        fault_seed = seed if cell.fault_seed is None else cell.fault_seed
        if backend == "vectorized":
            out = vectorized_faulty_broadcast(
                graph, trees, split(cell.redundancy), plan=plan, fault_seed=fault_seed
            )
        else:
            out = _simulate_cell(
                network, trees, split(cell.redundancy), mids, plan, fault_seed, seed
            )
        coverage = out.receipt_counts[rows] / graph.n
        reports.append(
            DeliveryReport(
                k=k,
                redundancy=cell.redundancy,
                rounds=out.rounds,
                dropped_messages=out.dropped,
                per_message_coverage=dict(zip(all_ids, coverage.tolist())),
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
    seed: int = 0,
    fault_seed: int | None = None,
    adversary: AdversarySchedule | None = None,
    backend: str = "simulator",
    initial_report: DeliveryReport | None = None,
) -> RepairOutcome:
    """Detect dead color classes and rebuild only what broke (Section 1.2).

    Runs :func:`redundant_broadcast`, reads the :class:`DeliveryReport`, and
    if delivery is incomplete repairs the packing before one rerun:

    1. **Detect** — a channel is *broken* when it carried a message with
       coverage < 1 **and** its tree uses a statically dead edge. Transient
       loss (``drop_rate`` or a mobile adversary) is not structural damage;
       nothing to re-root, so those channels are left alone.
    2. **Re-root** — for each broken channel (at most four), one
       validity BFS on the class's *live* edges (``class_masks[c]`` minus the
       dead set), rooted at the highest-live-degree node (ties: smallest id)
       — the spot the damage touches least. A spanning result replaces the
       tree; the BFS rounds are charged either way.
    3. **Rebuild fallback** — when the certificate is truly broken (no class
       masks, more than four dead classes, or a live class that no
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
    from repro.core.tree_packing import build_packing_with_retry
    from repro.primitives.bfs import run_parallel_bfs

    parts = packing.size
    plan = FaultCell(
        dead_edges=dead_edges or (), drop_rate=drop_rate, adversary=adversary
    ).plan(graph, packing)

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
    lost = np.fromiter(
        (j for j, cov in initial.per_message_coverage.items() if cov < 1.0),
        dtype=np.int64,
    )
    suspects = np.unique(_message_trees(lost, initial.k, parts, redundancy))
    broken = [
        c for c in suspects.tolist()
        if dead_mask[list(tree_edge_ids(packing, c))].any()
    ]
    if not broken:
        return done  # purely transient loss — nothing structural to repair

    trees = list(packing.trees)
    masks = packing.class_masks
    rerooted: dict[int, int] = {}
    repair_rounds = 0
    attempts = 0
    need_rebuild = masks is None or len(broken) > 4
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
            trees[c] = results[0]
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
            # The rebuilt trees name edges of the live subgraph; orig maps
            # them back to host ids.
            trees = [
                BFSResult(
                    t.root,
                    t.parent,
                    t.dist,
                    None,
                    t.rounds,
                    arc_edge_ids(orig, t.parent_edge.copy()),
                )
                for t in live_packing.trees
            ]
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
    repaired = packing_from_bfs_results(
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
