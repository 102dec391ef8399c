"""Fault-aware vectorized engine: drop masks threaded through the sweeps.

The fault-free fast path (:mod:`repro.engine.fastpath`) never materializes
messages — round counts collapse to closed forms because *no delivery can
fail*. Under a :class:`~repro.congest.adversary.FaultPlan` that shortcut is
gone: which message is on which edge in which round decides what survives,
so this module re-runs the protocols' queue dynamics round by round, but as
whole-network numpy batches instead of per-node Python state machines:

* :func:`vectorized_faulty_bfs` — the Lemma 2 flood with per-round edge
  drop masks applied to each frontier sweep (an announce that dies leaves
  the subtree to adopt later, or never);
* :func:`vectorized_faulty_broadcast` — the Lemma 1 upcast/downcast queue
  recurrence with drops at delivery time, tracking exact per-node receipt
  sets for :func:`repro.core.resilient.redundant_broadcast`. A plan that
  draws no coins pays only for the trees it touches: an edge-disjoint tree
  with no dead or mobile edge delivers exactly as the fault-free pipeline
  does, so it takes the closed form of
  :func:`repro.engine.fastpath.pipeline_closed_form`. The other channels'
  state is arrays throughout: their up-queues live in one flat
  :class:`_UpQueue` that all three paths (rate-0 spans, total loss, the
  per-round replay) read. The replay numbers every possible crossing once,
  in the simulator's delivery order, and builds each round's batch from
  that round's senders alone: it sorts them and expands their slot ranges.

**Bit-identical contract.** Both kernels replicate the corresponding
:class:`~repro.congest.faults.FaultySimulator` execution exactly: the same
deliveries fail, the same receipt sets result, the same round totals are
reported, and the fault RNG stream is consumed *in the simulator's delivery
order* (node id ascending, then channel, then the node's send order), so
the final RNG state matches bit for bit. This works because the simulator
activates nodes in canonical ascending order and NumPy's ``Generator.random``
consumes the PCG64 stream identically whether drawn one-by-one or batched.
The contract is enforced by :mod:`repro.engine.verify` checks
(``check_faulty_bfs``, ``check_redundant_broadcast``, ``check_fault_paths``)
in the CI sweep.

Like the fault-free engine, sends are still "bit-priced" in the sense that
faults act at delivery time only — a dropped message spent its bandwidth,
which is why :class:`DeliveryReport` drop counts agree with the simulator's
``Metrics`` (which records every send).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro import obs
from repro.congest.adversary import FaultPlan
from repro.congest.faults import FaultySimulator
from repro.engine.fastpath import pipeline_channels, pipeline_closed_form
from repro.engine.kernels import expand_csr_rows
from repro.graphs.graph import Graph
from repro.primitives.bfs import BFSResult, check_roots, run_bfs_batch, simulate_floods
from repro.util.bits import bits_for_int_array
from repro.util.errors import ValidationError
from repro.util.rng import ensure_rng

__all__ = [
    "FaultStream",
    "FaultyBFSOutcome",
    "FaultyBroadcastOutcome",
    "faulty_bfs",
    "faulty_bfs_grid",
    "vectorized_faulty_bfs",
    "vectorized_faulty_broadcast",
]


class FaultStream:
    """Applies a :class:`FaultPlan` to one round's ordered delivery batch.

    Mirrors ``FaultySimulator._deliver`` exactly, as an independent
    implementation: dead edges first, then the round's mobile set, then one
    fault-RNG coin per *surviving* message, drawn in delivery order in one
    batch, as the simulator draws them.
    """

    def __init__(self, graph: Graph, plan: FaultPlan, fault_seed=0):
        plan.validate_for(graph.m)
        self.rng = ensure_rng(fault_seed)
        self.rate = plan.drop_rate
        self.mobile = plan.mobile
        self.m = graph.m
        self.dead = np.zeros(graph.m, dtype=bool)
        if plan.dead_edges:
            self.dead[
                np.fromiter(plan.dead_edges, dtype=np.int64, count=len(plan.dead_edges))
            ] = True
        self.any_dead = bool(plan.dead_edges)
        self.dropped = 0

    def drops_edges(self, rnd: int) -> bool:
        """Whether a dead or mobile edge can drop a delivery of round ``rnd``."""
        return self.any_dead or bool(self.mobile.get(rnd))

    def deliver_mask(self, rnd: int, eids: np.ndarray | int) -> np.ndarray:
        """True where the message on ``eids[i]`` survives delivery round ``rnd``.

        In a round where no edge drops (:meth:`drops_edges` is false) only
        the batch's size matters, and ``eids`` may be that size.
        """
        if self.drops_edges(rnd):
            alive = ~self.dead[eids]
            spot = self.mobile.get(rnd)
            if spot:
                mob = np.ones(self.m, dtype=bool)
                mob[np.fromiter(spot, dtype=np.int64, count=len(spot))] = False
                alive &= mob[eids]
            live = np.flatnonzero(alive)
            if self.rate > 0.0 and live.size:
                alive[live] = self._coins(live.size)
        else:
            size = eids if isinstance(eids, int) else eids.size
            alive = self._coins(size) if self.rate > 0.0 and size else np.ones(size, dtype=bool)
        n_dropped = alive.size - int(np.count_nonzero(alive))
        self.dropped += n_dropped
        if n_dropped:
            obs.count("faults.dropped", n_dropped)
        return alive

    def _coins(self, size: int) -> np.ndarray:
        """Draw ``size`` fault coins, in order; True where one spares its message."""
        obs.count("rng.fault_coins", size)
        return self.rng.random(size) >= self.rate

    @property
    def rng_state(self) -> dict:
        return self.rng.bit_generator.state

    @cached_property
    def mobile_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The mobile schedule flattened into one ``(round, edge)`` pair per
        entry, as two aligned arrays."""
        mob = self.mobile
        rounds = np.repeat(
            np.fromiter(mob, dtype=np.int64, count=len(mob)),
            [len(es) for es in mob.values()],
        )
        edges = np.fromiter(
            itertools.chain.from_iterable(mob.values()), dtype=np.int64, count=rounds.size
        )
        return rounds, edges


def _popcount_rows(bits: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a packed uint8 matrix."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
    out = np.zeros(bits.shape[0], dtype=np.int64)  # pragma: no cover - numpy<2
    for lo in range(0, bits.shape[0], 4096):
        chunk = bits[lo : lo + 4096]
        out[lo : lo + chunk.shape[0]] = np.unpackbits(chunk, axis=1).sum(
            axis=1, dtype=np.int64
        )
    return out


# --------------------------------------------------------------------------- #
# Lemma 2 under faults — BFS flood with per-round drop masks
# --------------------------------------------------------------------------- #

@dataclass
class FaultyBFSOutcome:
    """A (possibly partial) BFS forest grown under faults."""

    result: BFSResult
    dropped: int
    fault_rng_state: dict


_KIND_CHILD = 0  # canonical per-node send order: CHILD notice first,
_KIND_ANNOUNCE = 1  # then layer announces on the remaining ports ascending


@obs.traced("faulty_bfs")
def vectorized_faulty_bfs(
    graph: Graph,
    root: int,
    plan: FaultPlan | None = None,
    fault_seed=0,
    edge_mask: np.ndarray | None = None,
) -> FaultyBFSOutcome:
    """Fast-path twin of the Lemma 2 flood on a :class:`FaultySimulator`.

    Per round, the frontier's announces and child-notices form one ordered
    delivery batch; the drop mask is applied to the whole batch at once. A
    node adopts the smallest *surviving* announcing neighbor of the round it
    first hears one — which may be rounds later than the fault-free flood,
    with a larger dist, or never (``dist = -1``). A dropped child-notice
    leaves the child out of its parent's ``children`` list even though the
    child keeps the parent pointer, exactly like the simulator.

    Every plan takes the per-round replay below; under pure total loss it
    ends after one round, the root's announces drawn and dropped.
    :func:`faulty_bfs_grid`, the one dispatcher, sends coin-free static
    plans to :func:`_static_floods` instead. A root that is not an integer
    in ``[0, n)`` raises :class:`ValidationError`.
    """
    (root,) = check_roots(graph, [root])
    plan = plan if plan is not None else FaultPlan()
    n = graph.n
    stream = FaultStream(graph, plan, fault_seed)
    indptr, indices, arc_eids = graph.masked_csr(
        None if edge_mask is None else np.asarray(edge_mask, dtype=bool)
    )

    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    adopted = np.zeros(n, dtype=bool)
    dist[root] = 0
    parent[root] = root
    adopted[root] = True
    child_src: list[np.ndarray] = []
    child_dst: list[np.ndarray] = []

    def expand(adopters: np.ndarray):
        """Canonically ordered send batch of freshly adopted nodes.

        Per node: CHILD to the parent first (the root sends none), then an
        announce on every other usable port in ascending-neighbor order —
        the exact outbox insertion order of ``BFSProgram``.
        """
        sel, counts = expand_csr_rows(indptr, adopters)
        if sel.size == 0:
            return None
        src = np.repeat(adopters, counts)
        dst = indices[sel]
        eid = arc_eids[sel]
        is_parent_arc = dst == parent[src]
        kind = np.where(is_parent_arc, _KIND_CHILD, _KIND_ANNOUNCE)
        keep = ~(is_parent_arc & (src == root))  # root: no parent, no CHILD
        src, dst, eid, kind, sub = (
            src[keep],
            dst[keep],
            eid[keep],
            kind[keep],
            sel[keep],  # rises within each node's block: the port order
        )
        if not src.size:
            return None
        order = np.lexsort((sub, kind, src))
        return src[order], dst[order], eid[order], kind[order]

    batch = expand(np.array([root], dtype=np.int64))
    rnd = 0
    rounds = 0
    while batch is not None:
        rnd += 1
        rounds = rnd
        src, dst, eid, kind = batch
        alive = stream.deliver_mask(rnd, eid)
        notice = alive & (kind == _KIND_CHILD)
        if notice.any():
            child_src.append(src[notice])
            child_dst.append(dst[notice])
        ann = alive & (kind == _KIND_ANNOUNCE) & ~adopted[dst]
        batch = None
        if ann.any():
            a_src = src[ann]
            a_dst = dst[ann]
            order = np.lexsort((a_src, a_dst))
            a_src, a_dst, a_eid = a_src[order], a_dst[order], eid[ann][order]
            first = np.ones(a_dst.size, dtype=bool)
            first[1:] = a_dst[1:] != a_dst[:-1]
            winners = a_dst[first]
            announcers = a_src[first]  # smallest port == smallest neighbor id
            dist[winners] = dist[announcers] + 1
            parent[winners] = announcers
            parent_edge[winners] = a_eid[first]
            adopted[winners] = True
            batch = expand(winners)

    children: list[list[int]] = [[] for _ in range(n)]
    if child_src:
        cs = np.concatenate(child_src)
        cd = np.concatenate(child_dst)
        for p, c in zip(cd.tolist(), cs.tolist()):
            children[p].append(c)
        for lst in children:
            lst.sort()  # canonical order, as simulate_floods does
    result = BFSResult(
        root=root,
        parent=parent,
        dist=dist,
        children=children,
        rounds=rounds,
        parent_edge=parent_edge,
    )
    return FaultyBFSOutcome(
        result=result, dropped=stream.dropped, fault_rng_state=stream.rng_state
    )


def faulty_bfs(
    graph: Graph,
    root: int,
    plan: FaultPlan | None = None,
    fault_seed=0,
    edge_mask: np.ndarray | None = None,
    backend: str = "simulator",
) -> FaultyBFSOutcome:
    """Lemma 2's flood under a fault plan, on either backend.

    ``backend="simulator"`` runs :class:`~repro.primitives.bfs.BFSProgram`
    on a :class:`~repro.congest.faults.FaultySimulator`;
    ``backend="vectorized"`` produces the bit-identical outcome (forest,
    round count, drop count, fault RNG state). A grid of one
    (:func:`faulty_bfs_grid`).
    """
    return faulty_bfs_grid(
        graph, [root], plan=plan, fault_seeds=[fault_seed], edge_mask=edge_mask,
        backend=backend,
    )[0]


@obs.traced("faulty_bfs_grid")
def faulty_bfs_grid(
    graph: Graph,
    roots,
    plan: FaultPlan | None = None,
    fault_seeds=None,
    edge_mask: np.ndarray | None = None,
    backend: str = "vectorized",
) -> list[FaultyBFSOutcome]:
    """A whole (root × fault-seed) grid of faulty floods.

    Element ``i`` is the flood from ``roots[i]`` under ``fault_seeds[i]``
    alone — forest, rounds, drop count, and fault RNG state. The plan and
    the backend pick one path for the whole grid: the simulator runs each
    query on a :class:`~repro.congest.faults.FaultySimulator`; on the
    vectorized backend, a plan that draws no coins and has no mobile set
    (the static dead-edge regime) runs as one plane sweep over the distinct
    roots (:func:`_static_floods`), and every other plan runs
    :func:`vectorized_faulty_bfs` per query.

    ``fault_seeds`` defaults to all zeros; when given it must match
    ``roots`` in length.
    """
    from repro.engine import validate_backend

    validate_backend(backend)
    plan = plan if plan is not None else FaultPlan()
    root_list = check_roots(graph, roots)
    seeds = list(fault_seeds) if fault_seeds is not None else [0] * len(root_list)
    if len(seeds) != len(root_list):
        raise ValidationError(
            f"fault_seeds length {len(seeds)} != roots length {len(root_list)}"
        )
    mask = None if edge_mask is None else np.asarray(edge_mask, dtype=bool)
    if backend == "vectorized" and not plan.mobile and plan.drop_rate == 0.0:
        return _static_floods(graph, root_list, plan, seeds, mask)
    out = []
    for r, s in zip(root_list, seeds):
        if backend == "vectorized":
            out.append(vectorized_faulty_bfs(graph, r, plan, s, mask))
            continue
        (res,), sim = simulate_floods(
            graph, [r], [mask], FaultySimulator, plan=plan, fault_seed=s
        )
        out.append(
            FaultyBFSOutcome(
                result=res,
                dropped=sim.dropped,
                fault_rng_state=sim._fault_rng.bit_generator.state,
            )
        )
    return out


def _static_floods(
    graph: Graph,
    roots: list[int],
    plan: FaultPlan,
    fault_seeds: list,
    edge_mask: np.ndarray | None,
) -> list[FaultyBFSOutcome]:
    """Faulty floods under a coin-free, static plan, as one BFS batch.

    With no coin drops and no mobile set, the adversary is a static edge
    deletion: adoption is plain BFS on the masked graph *minus* the dead
    edges (:func:`~repro.primitives.bfs.run_bfs_batch`, no per-round loop),
    every surviving child-notice arrives (the notice rides the adoption
    edge, which is by definition alive), and the drop count is exactly one
    crossing per (dead masked edge, adopted endpoint) pair — an adopted
    node sends on *every* masked port exactly once. The clock runs off the
    *masked* graph: a root whose only ports are dead still sends its
    round-1 batch. The coin RNG is untouched, so outcomes across fault
    seeds differ only in their (pristine) recorded RNG state.
    """
    plan.validate_for(graph.m)
    indptr = graph.masked_csr(edge_mask)[0]
    live = np.ones(graph.m, dtype=bool) if edge_mask is None else edge_mask.copy()
    dead = np.zeros(graph.m, dtype=bool)
    if plan.dead_edges:
        dead[np.fromiter(plan.dead_edges, dtype=np.int64, count=len(plan.dead_edges))] = True
        dead &= live
        live &= ~dead
    results = run_bfs_batch(
        graph, roots, edge_mask=live if dead.any() else edge_mask, backend="vectorized"
    )
    eu, ev = graph.edge_u[dead], graph.edge_v[dead]
    out: list[FaultyBFSOutcome] = []
    for res, s in zip(results, fault_seeds):
        r = res.root
        res.rounds = res.rounds or int(indptr[r + 1] > indptr[r])
        out.append(
            FaultyBFSOutcome(
                result=res,
                dropped=int((res.dist[eu] >= 0).sum() + (res.dist[ev] >= 0).sum()),
                fault_rng_state=ensure_rng(s).bit_generator.state,
            )
        )
    return out


# --------------------------------------------------------------------------- #
# Lemma 1 under faults — tracking upcast/downcast queue recurrence
# --------------------------------------------------------------------------- #

@dataclass
class FaultyBroadcastOutcome:
    """Exact delivery bookkeeping of one faulted multi-tree broadcast.

    ``total_messages``/``total_bits`` charge every *send* (drops included —
    a dropped message spent its bandwidth) with the simulator's exact
    :func:`~repro.util.bits.bits_for_payload` price of the ``(kind, cid,
    mid)`` tuples :class:`~repro.primitives.pipeline.PipelinedBroadcastProgram`
    puts on the wire, so they equal the ``Metrics`` totals of the twin
    simulator run bit for bit.
    """

    rounds: int
    dropped: int
    mids: np.ndarray  # sorted distinct message ids
    receipt_counts: np.ndarray  # distinct receiving nodes per mid
    receipt_bits: np.ndarray  # packed (len(mids), ceil(n/8)) receipt matrix
    n: int
    fault_rng_state: dict
    total_messages: int = 0
    total_bits: int = 0

    def coverage(self) -> dict[int, float]:
        return {
            int(m): int(c) / self.n
            for m, c in zip(self.mids.tolist(), self.receipt_counts.tolist())
        }

    def receipts(self) -> dict[int, frozenset[int]]:
        """Exact per-message receipt sets (unpacked on demand)."""
        out: dict[int, frozenset[int]] = {}
        for i, m in enumerate(self.mids.tolist()):
            nodes = np.nonzero(
                np.unpackbits(self.receipt_bits[i], bitorder="little")[: self.n]
            )[0]
            out[int(m)] = frozenset(nodes.tolist())
        return out


class _Channel:
    """Tree arrays of one broadcast channel and its root's down queue.

    The tree's edges come from its carried ``parent_edge``: the up arc of
    ``v`` and the down arc into child ``c`` are ``v``'s and ``c``'s parent
    edges. Collected child lists (a faulty flood's) may leave children
    out, and :func:`~repro.primitives.pipeline.checked_messages` has
    checked that each listed child's parent is the node listing it.
    """

    __slots__ = (
        "root",
        "parent",
        "dist",
        "up_eid",
        "cindptr",
        "cind",
        "ceid",
        "root_dq",
    )

    def __init__(self, tree: BFSResult):
        self.root = int(tree.root)
        self.parent = np.asarray(tree.parent, dtype=np.int64)
        self.dist = np.asarray(tree.dist, dtype=np.int64)
        self.up_eid = np.asarray(tree.parent_edge, dtype=np.int64)
        self.cindptr, self.cind = tree.children_as_csr()
        self.ceid = self.up_eid[self.cind]
        # Rows of mid_index the root sends down, in order: its own items
        # first, then every up arrival.
        self.root_dq: list[int] = []


class _UpQueue:
    """Every channel's up-queue in two flat arrays, shared by all paths.

    Item ``i`` waits in queue ``qid[i] = ci·n + v`` (channel ``ci``, node
    ``v``) and carries row ``row[i]`` of ``mid_index``. Items stay sorted by
    queue id and FIFO within a queue, so a queue's head is the first item
    of its run and one mask pops every head. ``to[q]`` is the queue of q's
    tree parent (a root's queue maps to itself) and ``eid[q]`` the edge
    between them.
    """

    __slots__ = ("n", "chans", "to", "eid", "qid", "row")

    def __init__(self, n: int, chans: list[_Channel]):
        c = len(chans)
        self.n = n
        self.chans = chans
        self.to = (
            np.array([st.parent for st in chans], dtype=np.int64).reshape(c, n)
            + n * np.arange(c, dtype=np.int64)[:, None]
        ).ravel()
        self.eid = np.array([st.up_eid for st in chans], dtype=np.int64).ravel()
        self.qid = self.row = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.qid.size)

    def pop_heads(self) -> tuple[np.ndarray, np.ndarray]:
        """Remove every queue's head; returns ``(queue ids, rows)``, ascending."""
        head = np.ones(self.qid.size, dtype=bool)
        head[1:] = self.qid[1:] != self.qid[:-1]
        heads = self.qid[head], self.row[head]
        self.qid, self.row = self.qid[~head], self.row[~head]
        return heads

    def push(self, qid: np.ndarray, row: np.ndarray) -> None:
        """Queue items behind their queues' items; same-queue items keep
        their given order (one stable sort by queue id)."""
        if qid.size:
            qid = np.concatenate((self.qid, qid))
            order = np.argsort(qid, kind="stable")
            self.qid, self.row = qid[order], np.concatenate((self.row, row))[order]

    def arrive(self, qid: np.ndarray, row: np.ndarray, recv: np.ndarray) -> np.ndarray:
        """Deliver up items, in delivery order, into queues ``qid``.

        An item reaching a root is received there and joins the back of
        the root's down queue; returns those items' channels, in order.
        Every other item is pushed.
        """
        at_root = self.to[qid] == qid
        rq, rr = qid[at_root], row[at_root]
        v = rq % self.n
        # One round can bring a message to two roots in one receipt byte;
        # a buffered |= would keep only one of the two bits.
        np.bitwise_or.at(recv, (rr, v >> 3), (1 << (v & 7)).astype(np.uint8))
        rc = rq // self.n
        for ci in np.unique(rc).tolist():
            self.chans[ci].root_dq.extend(rr[rc == ci].tolist())
        self.push(qid[~at_root], row[~at_root])
        return rc


def _span_broadcast_viable(n: int, chans: list[_Channel], kmax: list[int]) -> bool:
    """Preconditions of the closed-form downcast, checked per channel.

    The span path needs a proper BFS layering of the children arcs (root
    depth 0, child depth = parent depth + 1, all depths known; checked
    child lists name each node once, under its parent) so emissions
    pipeline at exactly one layer per round, and a bounded packed hole
    matrix (n × ceil(K/8) bytes, capped at ~256 MB using the a-priori
    bound K ≤ items placed on the channel). Anything else falls back to
    the per-round replay.
    """
    for st, k in zip(chans, kmax):
        if n * ((k + 7) // 8) > (1 << 28):
            return False
        if st.dist[st.root] != 0 or np.any(st.dist < 0):
            return False
        if st.cind.size:
            arc_parent = np.repeat(np.arange(n, dtype=np.int64), np.diff(st.cindptr))
            if not np.array_equal(st.dist[st.cind], st.dist[arc_parent] + 1):
                return False
    return True


def _mobile_down_kills(
    st: _Channel,
    mob_r: np.ndarray,
    mob_e: np.ndarray,
    r_emit: np.ndarray,
    arc_dead: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Mobile-adversary hits on the downcast, as (arc index, emission index).

    ``(mob_r, mob_e)`` is the plan's mobile schedule flattened into one
    (round, edge) pair per entry. The crossing of emission ``i`` on the arc
    into a depth-``d`` child happens in round ``r_emit[i] + d - 1``, so a
    mobile fault at round ρ on that arc's edge kills emission
    ``i = r_emit⁻¹(ρ - d + 1)`` — if that round is an actual emission round
    and the arc is not already dead (dead edges drop first; the crossing
    must not double-count). Each pair appears once, so the kills are
    distinct and their order does not matter.
    """
    if not mob_e.size or not st.ceid.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(st.ceid, kind="stable")
    sc = st.ceid[order]
    pos = np.minimum(np.searchsorted(sc, mob_e), sc.size - 1)
    hit = sc[pos] == mob_e  # ≤ one arc per edge per tree
    arcs = order[pos[hit]]
    t = mob_r[hit] - st.dist[st.cind[arcs]] + 1
    i = np.minimum(np.searchsorted(r_emit, t), r_emit.size - 1)
    ok = (r_emit[i] == t) & (t >= 1) & ~arc_dead[arcs]
    return arcs[ok], i[ok]


def _span_faulty_broadcast(
    n: int,
    chans: list[_Channel],
    up: _UpQueue,
    stream: FaultStream,
    price: np.ndarray,
    cid_bits: np.ndarray,
    recv: np.ndarray,
) -> tuple[int, int, int]:
    """Event-batched twin of the per-round faulty broadcast (rate-0 plans).

    It runs the channels the plan touches; the others take the fault-free
    closed form beside it. Phase 1 runs the upcast on the shared up-queue,
    all of its channels at once:
    each round pops every head, prices it, and drops with one
    :meth:`FaultStream.deliver_mask` call — exact at rate 0, where no coin
    is drawn. A root arrival is received and joins the root's down queue
    (channel order, then sender order), poppable from the next round;
    every other survivor is pushed behind its parent's queue. Its volume is
    the sum of origin depths — the cheap part. Phase 2 is closed-form per
    channel: the root's emission rounds follow ``r_i = max(avail_i,
    r_{i-1}+1)``, every emission pipelines down one layer per round, and
    which emissions reach which node is propagated layer-by-layer through
    a packed *hole matrix* ``H`` (bit set = emission missing): a live arc
    copies the parent's holes, a dead arc keeps the child all-holes
    (charging one drop per emission the parent forwards), and each mobile
    hit punches one extra hole. Receipt rows, drop totals, send-time
    message/bit charges, and the final round all read off ``H`` — with the
    fault RNG untouched, exactly like the per-round replay at rate 0.
    Returns ``(rounds, total_messages, total_bits)``.
    """
    total_messages = 0
    total_bits = 0
    rounds = 0  # the last round with an up-send, until phase 2

    # ---- phase 1: upcast on the shared queue ----------------------------- #
    avails: list[list[int]] = [[1] * len(st.root_dq) for st in chans]
    while len(up):
        rounds += 1
        hq, hrow = up.pop_heads()
        total_messages += hq.size
        total_bits += int((price[hrow] + cid_bits[hq // n]).sum())
        alive = stream.deliver_mask(rounds, up.eid[hq])
        rc = up.arrive(up.to[hq[alive]], hrow[alive], recv)
        for ci, got in enumerate(np.bincount(rc, minlength=len(chans)).tolist()):
            avails[ci] += [rounds + 1] * got  # poppable from the next round

    # ---- phase 2: closed-form downcast per channel ----------------------- #
    mob_r, mob_e = stream.mobile_pairs
    for ci, st in enumerate(chans):
        K = len(st.root_dq)
        if K == 0:
            continue
        drows = np.asarray(st.root_dq, dtype=np.int64)
        av = np.asarray(avails[ci], dtype=np.int64)
        ar = np.arange(K, dtype=np.int64)
        r_emit = ar + np.maximum.accumulate(av - ar)  # r_i = max(a_i, r_{i-1}+1)
        nchild = np.diff(st.cindptr)
        if int(nchild[st.root]) == 0:
            # Childless root (single-node graph): no sends, but draining the
            # queue keeps the simulator's busy flag up for K - 1 more rounds.
            rounds = max(rounds, K - 1)
            continue
        bits_w = price[drows] + int(cid_bits[ci])
        dep = st.dist
        Kb = (K + 7) // 8
        H = np.full((n, Kb), 0xFF, dtype=np.uint8)  # bit set = emission missing
        seed = np.zeros(Kb, dtype=np.uint8)
        if K & 7:
            seed[-1] = np.uint8((0xFF << (K & 7)) & 0xFF)  # padding stays holes
        H[st.root] = seed
        R = np.zeros(n, dtype=np.int64)  # received-emission count per node
        B = np.zeros(n, dtype=np.int64)  # received-emission bit-price sum
        R[st.root] = K
        B[st.root] = int(bits_w.sum())

        arc_parent = np.repeat(np.arange(n, dtype=np.int64), nchild)
        arc_dead = stream.dead[st.ceid]
        kill_arc, kill_i = _mobile_down_kills(st, mob_r, mob_e, r_emit, arc_dead)
        kill_dep = dep[st.cind[kill_arc]]
        arc_dep = dep[st.cind]
        order = np.argsort(arc_dep, kind="stable")
        sdep = arc_dep[order]
        for d in range(1, int(arc_dep.max()) + 1):
            la = order[np.searchsorted(sdep, d) : np.searchsorted(sdep, d + 1)]
            if not la.size:
                continue
            dead = arc_dead[la]
            if dead.any():
                # The parent forwards everything it received on dead arcs
                # too; every one of those crossings is a counted drop.
                stream.dropped += int(R[arc_parent[la[dead]]].sum())
            live = la[~dead]
            if live.size:
                cs = st.cind[live]
                ps = arc_parent[live]
                H[cs] = H[ps]
                R[cs] = R[ps]
                B[cs] = B[ps]
            ks = np.nonzero(kill_dep == d)[0]
            if ks.size:
                ka = kill_arc[ks]
                ki = kill_i[ks]
                ps = arc_parent[ka]
                cs = st.cind[ka]
                # A mobile hit only drops a crossing the parent made.
                sent = (H[ps, ki >> 3] >> (ki & 7)) & 1 == 0
                np.bitwise_or.at(H, (cs, ki >> 3), (1 << (ki & 7)).astype(np.uint8))
                stream.dropped += int(sent.sum())
                np.subtract.at(R, cs[sent], 1)
                np.subtract.at(B, cs[sent], bits_w[ki[sent]])
        total_messages += int((R * nchild).sum())
        total_bits += int((B * nchild).sum())

        # Receipts: transpose ~H into the packed (mid, node) matrix. The
        # OR-accumulate handles duplicate mids within and across channels.
        chanrecv = np.zeros((K, recv.shape[1]), dtype=np.uint8)
        for lo in range(0, n, 4096):
            hi = min(lo + 4096, n)
            bits = np.unpackbits(~H[lo:hi], axis=1, bitorder="little")[:, :K]
            pk = np.packbits(bits.T, axis=1, bitorder="little")
            chanrecv[:, lo >> 3 : (lo >> 3) + pk.shape[1]] |= pk
        np.bitwise_or.at(recv, drows, chanrecv)

        # Last crossing: every sender forwards its latest-received emission
        # j at round r_emit[j] + depth (crossings on dead arcs included).
        senders = np.nonzero((nchild > 0) & (R > 0))[0]
        for lo in range(0, senders.size, 4096):
            vs = senders[lo : lo + 4096]
            bits = np.unpackbits(~H[vs], axis=1, bitorder="little")[:, :K]
            j = K - 1 - np.argmax(bits[:, ::-1], axis=1)
            rounds = max(rounds, int((r_emit[j] + dep[vs]).max()))
    return rounds, total_messages, total_bits


def _span_faulty_broadcast_total_loss(
    n: int,
    chans: list[_Channel],
    up: _UpQueue,
    stream: FaultStream,
    price: np.ndarray,
    cid_bits: np.ndarray,
    recv: np.ndarray,
) -> tuple[int, int, int]:
    """Closed-form faulty broadcast under pure uniform total loss (rate 1.0).

    Nothing ever crosses an edge, so the queue dynamics collapse: a non-root
    node with ``L`` own items pumps its up-queue head in rounds ``1..L``
    (each crossing dropped, never re-sent, never received), and the root
    pops one own item per round, emitting it to each tree child in rounds
    ``1..K`` — a childless root (single-node graph) still drains for
    ``K - 1`` extra busy rounds with no sends, exactly like the per-round
    replay's wake condition. Receipts stay at the roots' pre-marked own
    items, every crossing is both a counted send and a counted drop, and
    one batched coin draw consumes the same PCG64 stream the per-round
    batches would (``random(a)`` then ``random(b)`` equals
    ``random(a + b)``). Returns ``(rounds, total_messages, total_bits)``.

    Only the total-loss boundary admits this: rates in
    (0, 1) make each round's coin count depend on earlier survivals, and
    dead edges / mobile schedules shrink the per-round coin batch. Those
    plans keep the per-round replay (or the rate-0 span path).
    """
    crossings = len(up)
    total_bits = int((price[up.row] + cid_bits[up.qid // n]).sum())
    rounds = int(np.unique(up.qid, return_counts=True)[1].max()) if crossings else 0
    for ci, st in enumerate(chans):
        K = len(st.root_dq)
        nchild_root = int(st.cindptr[st.root + 1] - st.cindptr[st.root])
        if K and nchild_root:
            crossings += K * nchild_root
            total_bits += nchild_root * int((price[st.root_dq] + cid_bits[ci]).sum())
        rounds = max(rounds, K if nchild_root else K - 1)
    if crossings:
        stream.rng.random(crossings)
        stream.dropped += crossings
    return rounds, crossings, total_bits


def _replay_faulty_broadcast(
    n: int,
    chans: list[_Channel],
    up: _UpQueue,
    stream: FaultStream,
    price: np.ndarray,
    cid_bits: np.ndarray,
    recv: np.ndarray,
) -> tuple[int, int, int]:
    """Round-by-round twin of the Lemma 1 pipeline on a faulty simulator.

    Every possible crossing gets a slot, numbered once in the simulator's
    delivery order: sender node ascending, then channel, the up-send before
    the down-sends, children in tree order. ``sptr`` cuts the slots into
    sender ranges: queue ``q`` (channel ``ci``, node ``v``) up-sends from
    range ``key[q] = 2·(v·c + ci)`` and down-sends from range ``key[q] + 1``.
    Each round lists its senders (every up-queue head, each root's next
    item, and the internal nodes that received a down item last round),
    sorts only their keys and expands their ranges, so the batch comes out
    in delivery order and the plan drops from it exactly as
    ``FaultySimulator._deliver`` would, coin for coin. Bits are priced per
    sender, and the batch's edge ids are gathered only in a round where an
    edge can drop. Returns ``(rounds, total_messages, total_bits)``.
    """
    c = len(chans)
    qids = np.arange(c * n, dtype=np.int64)
    nchild = np.array([np.diff(st.cindptr) for st in chans], dtype=np.int64).ravel()
    nonroot = up.to != qids
    key = 2 * ((qids % n) * c + qids // n)
    width = np.empty(2 * c * n, dtype=np.int64)
    width[key], width[key + 1] = nonroot, nchild
    sptr = np.concatenate(([0], np.cumsum(width)))
    size = int(sptr[-1])
    slot_eid = np.empty(size, dtype=np.int64)
    # An up slot's receiving queue; a down slot's receiver as a sender (its
    # down key), or -1 at a leaf. Down slots also carry the receiver's
    # receipt bit: its byte within a receipt row, and the bit's mask.
    slot_dst = np.empty(size, dtype=np.int64)
    slot_byte = np.zeros(size, dtype=np.int64)
    slot_bit = np.zeros(size, dtype=np.uint8)
    q = np.flatnonzero(nonroot)
    s = sptr[key[q]]
    slot_eid[s], slot_dst[s] = up.eid[q], up.to[q]
    for ci, st in enumerate(chans):
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(st.cindptr))
        s = sptr[key[ci * n + src] + 1] + np.arange(st.cind.size) - st.cindptr[src]
        to = ci * n + st.cind
        slot_eid[s], slot_dst[s] = st.ceid, np.where(nchild[to] > 0, key[to] + 1, -1)
        slot_byte[s], slot_bit[s] = st.cind >> 3, 1 << (st.cind & 7)
    flat, stride = recv.reshape(-1), recv.shape[1]
    root_key = [int(key[ci * n + st.root]) + 1 for ci, st in enumerate(chans)]
    root_head = [0] * c

    total_messages = 0
    total_bits = 0
    rounds = 0
    dkey = drow = np.empty(0, dtype=np.int64)
    while True:
        # Pump every nonempty queue once. The clock runs while a round has
        # crossings or any queue still holds items: the simulator's wake
        # condition, which counts a pop that sends nothing (a single-node
        # root draining its own list).
        hq, hrow = up.pop_heads()
        busy = len(up) > 0
        rkey, rrow = [], []
        for ci, st in enumerate(chans):
            if root_head[ci] < len(st.root_dq):
                rkey.append(root_key[ci])
                rrow.append(st.root_dq[root_head[ci]])
                root_head[ci] += 1
                busy = busy or root_head[ci] < len(st.root_dq)
        keys = np.concatenate((key[hq], np.array(rkey, dtype=np.int64), dkey))
        order = np.argsort(keys)
        keys = keys[order]
        rows = np.concatenate((hrow, np.array(rrow, dtype=np.int64), drow))[order]
        s, cnt = expand_csr_rows(sptr, keys)
        if not (s.size or busy):
            return rounds, total_messages, total_bits
        rounds += 1
        total_messages += s.size
        total_bits += int((price[rows] + cid_bits[(keys >> 1) % c]) @ cnt)
        alive = stream.deliver_mask(
            rounds, slot_eid[s] if stream.drops_edges(rounds) else s.size
        )
        # An up-sender's one crossing sits at its offset into the batch.
        is_up = np.flatnonzero((keys & 1) == 0)
        at = (np.cumsum(cnt) - cnt)[is_up]
        got = alive[at]
        up.arrive(slot_dst[s[at[got]]], rows[is_up][got], recv)
        alive[at] = False
        s, row = s[alive], np.repeat(rows, cnt)[alive]
        # One round can bring a row to several nodes of one receipt byte;
        # a buffered |= would keep only one of their bits.
        np.bitwise_or.at(flat, row * stride + slot_byte[s], slot_bit[s])
        dkey = slot_dst[s]
        inner = np.flatnonzero(dkey >= 0)
        dkey, drow = dkey[inner], row[inner]


@obs.traced("faulty_broadcast")
def vectorized_faulty_broadcast(
    graph: Graph,
    trees: dict[int, BFSResult],
    messages: dict,
    plan: FaultPlan | None = None,
    fault_seed=0,
) -> FaultyBroadcastOutcome:
    """Fast-path twin of the Lemma 1 pipeline on a faulty simulator.

    Replays the pump-while-busy dynamics of
    :class:`repro.primitives.pipeline.PipelinedBroadcastProgram` on array
    state, as the redundant broadcast's grid cells run it: every
    nonempty up-queue sends its head to the parent, every nonempty
    down-queue pops one id (forwarded to all tree children), and the fault
    plan drops exactly as ``FaultySimulator._deliver`` would (same
    drops, same RNG stream). Queues carry rows of the sorted message-id
    index rather than ids. Receipts are tracked in a packed bitset, one row
    per message id.

    ``trees``/``messages`` take the same shapes as
    :func:`repro.engine.fastpath.vectorized_tree_broadcast` and are checked
    by the same :func:`~repro.engine.fastpath.pipeline_channels`: messages
    as :func:`~repro.primitives.pipeline.checked_messages` checks them (ids
    in int64), edge-disjoint trees, and the bandwidth budget. Channels are processed in sorted-cid order, which matches
    any driver that builds its per-node channel specs over ``{0: ..., 1:
    ..., ...}`` in cid order.

    The plan and the trees pick the path. When the plan draws no coins
    (``drop_rate == 0``), the channels split in two. A channel is
    *untouched* when its tree is BFS-layered, its child lists are the ones
    its parents imply, and none of its tree edges is dead or in any mobile
    round: channels never interact and no coin is drawn, so it runs exactly
    the fault-free Lemma 1 pipeline and takes its closed form
    (:func:`~repro.engine.fastpath.pipeline_closed_form`) with full receipt
    rows and no drops. Only the touched channels get up-queues, on one
    shared :class:`_UpQueue`. They run :func:`_span_faulty_broadcast`'s
    per-round upcast and closed-form downcast when their trees are
    BFS-layered and the hole matrix fits its memory gate, and the per-round
    replay otherwise; the call's rounds are the later of the two groups'.
    Pure uniform total loss (``drop_rate == 1.0``, no dead edges, no mobile
    set) runs every channel via :func:`_span_faulty_broadcast_total_loss`.
    Every other plan runs every channel on the per-round replay
    (:func:`_replay_faulty_broadcast`), the only path for coin rates in
    (0, 1): how many coins a round draws depends on which earlier sends
    survived.
    """
    plan = plan if plan is not None else FaultPlan()
    n = graph.n
    ch = pipeline_channels(graph, trees, messages)
    ids = [
        ch.flat[cid][1] if cid in ch.flat else np.empty(0, dtype=np.int64)
        for cid in ch.cids
    ]
    stream = FaultStream(graph, plan, fault_seed)
    mid_index = np.unique(np.concatenate(ids)) if ids else np.empty(0, dtype=np.int64)
    rows = [np.searchsorted(mid_index, x) for x in ids]
    recv = np.zeros((mid_index.size, max(1, (n + 7) // 8)), dtype=np.uint8)

    closed = np.zeros(len(ch.cids), dtype=bool)
    if plan.drop_rate == 0.0:
        hit = stream.dead.copy()
        hit[stream.mobile_pairs[1]] = True
        layered = ch.layered()
        for ci, eids in enumerate(ch.tree_eids):
            closed[ci] = (
                layered[ci]
                and not hit[eids].any()
                and trees[ch.cids[ci]].children_follow_parents()
            )
        obs.count("faults.closed_form_channels", int(closed.sum()))
    rounds = total_messages = total_bits = 0
    if closed.any():
        rounds, total_messages, total_bits = pipeline_closed_form(ch, np.flatnonzero(closed))
        full = np.packbits(np.ones(n, dtype=bool), bitorder="little")
        for ci in np.flatnonzero(closed).tolist():
            recv[rows[ci]] = full

    touched = np.flatnonzero(~closed).tolist()
    chans = [_Channel(trees[ch.cids[ci]]) for ci in touched]
    up = _UpQueue(n, chans)
    # Seed the queues like the node program does: a root's own items go
    # straight to its down queue (and count as received); every other
    # node's own items start in its up queue, in placement order.
    qids, qrows = [], []
    for ti, ci in enumerate(touched):
        st, origins, r = chans[ti], ch.origins(ci), rows[ci]
        own = origins == st.root
        st.root_dq = r[own].tolist()
        np.bitwise_or.at(recv, (r[own], st.root >> 3), np.uint8(1 << (st.root & 7)))
        qids.append(ti * n + origins[~own])
        qrows.append(r[~own])
    if qids:
        up.push(np.concatenate(qids), np.concatenate(qrows))
    kmax = [ch.origins(ci).size for ci in touched]
    # Send-time bit pricing: bits_for_payload((kind, cid, mid)) with
    # kind ∈ {0, 1} → 2 bits, plus the cid's and the mid's integer sizes.
    price = 2 + bits_for_int_array(mid_index)
    cid_bits = bits_for_int_array(np.asarray([ch.cids[ci] for ci in touched], dtype=np.int64))

    if plan.drop_rate == 0.0 and _span_broadcast_viable(n, chans, kmax):
        path = _span_faulty_broadcast
    elif plan.drop_rate == 1.0 and not plan.mobile and not stream.dead.any():
        path = _span_faulty_broadcast_total_loss
    else:
        path = _replay_faulty_broadcast
    path_rounds, path_messages, path_bits = path(
        n, chans, up, stream, price, cid_bits, recv
    )
    return FaultyBroadcastOutcome(
        rounds=max(rounds, path_rounds),
        dropped=stream.dropped,
        mids=mid_index,
        receipt_counts=_popcount_rows(recv),
        receipt_bits=recv,
        n=n,
        fault_rng_state=stream.rng_state,
        total_messages=total_messages + path_messages,
        total_bits=total_bits + path_bits,
    )
