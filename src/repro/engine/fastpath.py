"""Whole-frontier numpy kernels replicating the simulator protocols exactly.

Every function here is a drop-in for a simulator-driven primitive and must
return *bit-identical* results — same parents, same dists, same certified
round counts, same metrics — on every input. The equivalence contract is
enforced by :mod:`repro.engine.verify` and ``tests/test_engine_equivalence.py``;
see the package docstring for the round-count derivations.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.congest.metrics import Metrics
from repro.engine.kernels import (
    expand_csr_rows,
    frontier_sweep,
    last_send_round_spans,
    upcast_spans,
)
from repro.engine.plane import masked_union_bfs
from repro.graphs.graph import Graph
from repro.primitives.bfs import BFSResult
from repro.primitives.leader import disconnected_error
from repro.primitives.pipeline import TreeBroadcastOutcome
from repro.util.bits import bits_for_int, bits_for_int_array, message_bit_budget
from repro.util.errors import BandwidthExceeded, ValidationError

__all__ = [
    "expand_csr_rows",  # re-exported from repro.engine.kernels
    "vectorized_bfs",
    "vectorized_parallel_bfs",
    "vectorized_elect_leader",
    "vectorized_numbering",
    "vectorized_tree_broadcast",
]


# BFS sweeps and tree-children construction live in repro.engine.kernels
# (frontier_sweep / children_lists), shared with repro.engine.faults;
# expand_csr_rows is re-exported above for callers that imported it from
# here.


# --------------------------------------------------------------------------- #
# Lemma 2 — BFS flood
# --------------------------------------------------------------------------- #

def vectorized_bfs(
    graph: Graph, root: int, edge_mask: np.ndarray | None = None
) -> BFSResult:
    """Fast-path :func:`repro.primitives.bfs.run_bfs` (single channel).

    Rounds = depth + 1: the deepest layer adopts in round ``depth`` and its
    child-notifications drain in one further round — or 0 when the root has
    no usable port and the flood never starts.
    """
    if not (0 <= root < graph.n):
        raise ValidationError(f"root {root} out of range")
    indptr, indices = graph.masked_csr(edge_mask)
    parent, dist = frontier_sweep(graph.n, indptr, indices, root)
    depth = int(dist.max())
    rounds = depth + 1 if indptr[root + 1] > indptr[root] else 0
    return BFSResult(
        root=root,
        parent=parent,
        dist=dist,
        children=None,  # derived lazily from parent — identical lists
        rounds=rounds,
    )


def vectorized_parallel_bfs(
    graph: Graph,
    edge_masks: list[np.ndarray],
    roots: list[int],
) -> tuple[list[BFSResult], int]:
    """Fast-path :func:`repro.primitives.bfs.run_parallel_bfs`, which
    validates the masks and roots before dispatching here.

    Every channel runs in one :func:`~repro.engine.plane.masked_union_bfs`
    sweep. All channels share one clock, so the joint execution costs the
    *max* channel depth + 1 — the Section 3.1 claim that edge-disjoint
    floods run concurrently for free.
    """
    results = masked_union_bfs(graph, edge_masks, roots)
    rounds = max((r.rounds for r in results), default=0)
    for r in results:
        r.rounds = rounds
    return results, rounds


# --------------------------------------------------------------------------- #
# Leader election — min-ID flood
# --------------------------------------------------------------------------- #

def vectorized_elect_leader(graph: Graph) -> tuple[int, int]:
    """Fast-path :func:`repro.primitives.leader.elect_leader`.

    The global minimum id (node 0) always wins; its value reaches a node at
    distance d in round d, triggering that node's last improvement-and-send,
    so the final delivery lands in round ecc(0) + 1.
    """
    from repro.graphs.traversal import bfs_distances, connected_components

    dist = bfs_distances(graph, 0)
    if np.any(dist < 0):
        raise disconnected_error(connected_components(graph).tolist())
    rounds = int(dist.max()) + 1 if graph.n > 1 else 0
    return 0, rounds


# --------------------------------------------------------------------------- #
# Lemma 3 — item numbering over a BFS tree
# --------------------------------------------------------------------------- #

def _layer_slices(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes grouped by BFS layer: (order, bounds) with layer d at
    ``order[bounds[d]:bounds[d+1]]``, each layer sorted by node id."""
    order = np.argsort(dist, kind="stable")
    maxd = int(dist.max())
    bounds = np.searchsorted(dist[order], np.arange(maxd + 2))
    return order, bounds


def _subtree_sums(parent: np.ndarray, dist: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-node sum of ``values`` over the node's subtree (layer-wise
    convergecast: deepest layer first, each layer folded into its parents)."""
    acc = np.asarray(values, dtype=np.int64).copy()
    order, bounds = _layer_slices(dist)
    for d in range(int(dist.max()), 0, -1):
        layer = order[bounds[d] : bounds[d + 1]]
        np.add.at(acc, parent[layer], acc[layer])
    return acc


def vectorized_numbering(
    graph: Graph, tree: BFSResult, counts: np.ndarray
) -> tuple[np.ndarray, int]:
    """Fast-path :func:`repro.primitives.numbering.assign_item_numbers`.

    Up phase: a node fires its subtree count at round height(v), so the root
    splits at round depth(T); the RANGE wave then takes depth(T) more rounds
    to reach the deepest leaves — 2·depth(T) rounds total. Ranges are handed
    to children in increasing child id, matching the simulator's child-port
    order (ports are sorted by neighbor id).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (graph.n,):
        raise ValidationError("need one item count per node")
    if np.any(counts < 0):
        raise ValidationError("item counts must be non-negative")
    if not tree.spans():
        raise ValidationError("numbering requires a spanning tree")

    n = graph.n
    parent = tree.parent
    dist = tree.dist
    order, bounds = _layer_slices(dist)
    maxd = int(dist.max())

    subtree = _subtree_sums(parent, dist, counts)

    starts = np.zeros(n, dtype=np.int64)
    starts[tree.root] = 1
    for d in range(1, maxd + 1):
        vs = order[bounds[d] : bounds[d + 1]]  # ascending ids within the layer
        sibling = np.argsort(parent[vs], kind="stable")
        vs = vs[sibling]
        ps = parent[vs]
        cum = np.cumsum(subtree[vs]) - subtree[vs]
        head = np.ones(vs.size, dtype=bool)
        head[1:] = ps[1:] != ps[:-1]
        group_base = cum[head][np.cumsum(head) - 1]
        starts[vs] = starts[ps] + counts[ps] + (cum - group_base)

    # Certify the Lemma 3 guarantee (ids are exactly the partition 1..X),
    # mirroring the simulator driver's post-check. Zero-count nodes hold an
    # empty range and may share a cursor position, so only positive ranges
    # participate.
    holders = np.nonzero(counts > 0)[0]
    by_start = holders[np.argsort(starts[holders], kind="stable")]
    expected = np.cumsum(counts[by_start]) - counts[by_start] + 1
    if not np.array_equal(starts[by_start], expected):
        raise ValidationError("identifier ranges are not a partition of [X]")
    return starts, 2 * maxd


# --------------------------------------------------------------------------- #
# Lemma 1 / Theorem 1 step 4 — pipelined tree broadcast
# --------------------------------------------------------------------------- #

def vectorized_tree_broadcast(
    graph: Graph,
    trees: dict[int, BFSResult],
    messages: dict[int, dict[int, list[int] | np.ndarray]],
    verify: bool = True,
    bandwidth_factor: int = 8,
) -> TreeBroadcastOutcome:
    """Fast-path :func:`repro.primitives.pipeline.run_tree_broadcast`.

    The pipeline's round count depends only on per-node queue *lengths*
    (message identity never influences when a queue drains): each round,
    every nonempty up-queue sends one message to its parent and every
    nonempty down-queue pops one (forwarded to children, if any); arrivals
    land one round after sends. The count is reproduced exactly without
    pumping every queue every round: the layer-batched span algebra
    (:func:`~repro.engine.kernels.upcast_spans`) yields the root's arrival
    stream, the root's service is the closed-form
    :func:`~repro.engine.kernels.last_send_round_spans`, and the downcast
    is a pure pipeline (non-root down-queues never exceed one item),
    finishing ``depth(T)`` rounds after the root's last send. Every tree
    must be BFS-layered (``dist`` is the depth layering of ``parent``), as
    every tree producer in the library guarantees; anything else raises
    :class:`~repro.util.errors.ValidationError`.

    Metrics are closed-form: each message crosses every tree edge once on the
    downcast and its origin-to-root path once on the upcast, so the edge
    ``(parent(v), v)`` in channel c carries ``k_c + (messages originating in
    subtree(v))`` messages in total.

    ``verify`` is accepted for signature parity; delivery holds by
    construction once every tree spans (checked below), which the
    equivalence suite cross-validates against the simulator's counters.
    """
    n = graph.n
    cids = sorted(trees)
    per_channel_k: dict[int, int] = {}
    # One pass over each channel's placement caches (origin nodes, queue
    # lengths, flat id array): validation here, the own-matrix fill, and
    # the bit ledger below all reuse them instead of re-flattening k
    # Python ints per consumer. Placement values may be lists or int64
    # arrays (the vectorized broadcast split hands over numpy views).
    # ids_arr is None only when an id exceeds int64 — those channels are
    # priced individually through Python ints, as before.
    chan_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray | None]] = {}
    for cid, placement in messages.items():
        if cid not in trees:
            raise ValidationError(f"messages given for unknown channel {cid}")
        node_ids = np.fromiter(placement.keys(), dtype=np.int64, count=len(placement))
        lens = np.fromiter(
            (len(msgs) for msgs in placement.values()),
            dtype=np.int64,
            count=len(placement),
        )
        ids_arr: np.ndarray | None
        try:
            ids_arr = (
                np.concatenate(
                    [np.asarray(msgs, dtype=np.int64) for msgs in placement.values()]
                )
                if placement
                else np.empty(0, dtype=np.int64)
            )
            ids_sorted = np.sort(ids_arr)
            dup = bool((ids_sorted[1:] == ids_sorted[:-1]).any())
            k_c = int(ids_arr.size)
        except OverflowError:  # ids beyond int64: fall back to Python ints
            ids_arr = None
            ids = [m for msgs in placement.values() for m in msgs]
            dup = len(set(ids)) != len(ids)
            k_c = len(ids)
        if dup:
            raise ValidationError(f"duplicate message ids on channel {cid}")
        per_channel_k[cid] = k_c
        chan_cache[cid] = (node_ids, lens, ids_arr)
    for cid in cids:
        per_channel_k.setdefault(cid, 0)
        if not trees[cid].spans():
            raise ValidationError(f"channel {cid} tree does not span the graph")

    metrics = Metrics(m=graph.m)
    if not cids:
        return TreeBroadcastOutcome(
            rounds=0, metrics=metrics, k_total=0, per_channel_k=per_channel_k
        )

    C = len(cids)
    parents = np.empty((C, n), dtype=np.int64)
    dists = np.empty((C, n), dtype=np.int64)
    own = np.zeros((C, n), dtype=np.int64)
    nonroot = np.empty((C, n), dtype=bool)
    for ci, cid in enumerate(cids):
        tree = trees[cid]
        parents[ci] = tree.parent
        dists[ci] = tree.dist
        nonroot[ci] = tree.parent != np.arange(n)
        cached = chan_cache.get(cid)
        if cached is not None and cached[0].size:
            own[ci, cached[0]] = cached[1]

    # Tree-edge ids, computed once in a single batched query (one
    # searchsorted over all channels' tree edges): the disjointness gate
    # and the congestion ledger below both consume them.
    tree_vs = [np.nonzero(nonroot[ci])[0] for ci in range(C)]
    eids_flat = graph.edge_ids_for_pairs(
        np.concatenate([parents[ci][tree_vs[ci]] for ci in range(C)]),
        np.concatenate(tree_vs),
    )
    eid_bounds = np.zeros(C + 1, dtype=np.int64)
    np.cumsum([vs.size for vs in tree_vs], out=eid_bounds[1:])
    tree_eids = [
        eids_flat[eid_bounds[ci] : eid_bounds[ci + 1]] for ci in range(C)
    ]

    # The simulator would raise BandwidthExceeded on the first double-send
    # over a shared edge; the fast path rejects overlap up front. Any edge
    # used twice — across channels or within one malformed tree — is a
    # duplicate in the flat id array, so sorting the O(Σ|V|) tree edges
    # replaces the old O(m) per-edge counting pass.
    if n > 1 and C > 1 and eids_flat.size:
        eids_sorted = np.sort(eids_flat)
        if bool((eids_sorted[1:] == eids_sorted[:-1]).any()):
            raise ValidationError(
                "trees must be edge-disjoint (the simulator would refuse the "
                "double-send)"
            )

    # Per-channel message-id arrays, one pass each: they feed both the
    # bandwidth gate here and the closed-form bit totals below. Every id is
    # eventually sent (the downcast reaches every tree edge), priced as the
    # (kind, channel, id) tuple the simulator transports.
    budget = message_bit_budget(n, bandwidth_factor)
    chan_origins: list[np.ndarray] = []
    chan_bits: list[np.ndarray] = []
    for cid in cids:
        k_c = per_channel_k[cid]
        if not k_c:
            chan_origins.append(np.empty(0, dtype=np.int64))
            chan_bits.append(np.empty(0, dtype=np.int64))
            continue
        node_ids, lens, ids_arr = chan_cache[cid]
        if ids_arr is not None:
            bits = 2 + bits_for_int(cid) + bits_for_int_array(ids_arr)
        else:  # ids beyond int64: price individually
            ids_list = [m for msgs in messages[cid].values() for m in msgs]
            bits = np.array(
                [2 + bits_for_int(cid) + bits_for_int(m) for m in ids_list],
                dtype=np.int64,
            )
        if n > 1 and int(bits.max()) > budget:
            worst = (
                int(ids_arr[int(np.argmax(bits))])
                if ids_arr is not None
                else ids_list[int(np.argmax(bits))]
            )
            raise BandwidthExceeded(
                f"payload of {int(bits.max())} bits exceeds budget {budget} "
                f"(payload={(1, cid, worst)!r})"
            )
        chan_origins.append(np.repeat(node_ids, lens))
        chan_bits.append(bits)

    # ---- exact round count: batched upcast + closed-form downcast -------- #
    # The dense (channel, node) queue recurrence this replaces cost
    # O(rounds · n · C) — it pumped every queue every round. Three structural
    # facts collapse it while keeping the count bit-identical:
    #   1. channels never interact (queues are per (channel, node); the
    #      shared clock is just the max of the per-channel finish times);
    #   2. a non-root DOWN queue never exceeds one item (arrivals ≤ 1/round
    #      from the parent, service 1/round), so the downcast is a pure
    #      pipeline: the root's last down-send at round t_last drains at the
    #      deepest leaf in round t_last + depth(T), which is the round the
    #      simulator goes quiet;
    #   3. the upcast therefore only needs the *root's arrival stream*,
    #      which kernels.upcast_spans batches whole tree layers through the
    #      event-span algebra (no per-round Python iteration at all).
    up = np.where(nonroot, own, 0).ravel()
    flat_parents = (parents + (np.arange(C) * n)[:, None]).ravel()
    flat_dist = dists.ravel()
    nr = nonroot.ravel()
    if not (
        np.all(flat_dist[~nr] == 0)
        and np.all(flat_dist[nr] == flat_dist[flat_parents[nr]] + 1)
    ):
        raise ValidationError("tree dist is not the BFS layering of its parents")

    root_own = own[~nonroot]  # one entry per channel, in channel order
    rounds = 0
    with obs.span("upcast"):
        sn, sb, se, sr = upcast_spans(up, flat_parents, flat_dist)
        span_chan = sn // n
        for ci, cid in enumerate(cids):
            if per_channel_k[cid] == 0:
                continue  # no sends on this channel at all
            sel = span_chan == ci
            starts = sb[sel]  # disjoint spans, sorted by start
            ends = se[sel]
            rates = sr[sel]
            if root_own[ci]:
                zero = np.zeros(1, dtype=np.int64)
                starts = np.concatenate([zero, starts])
                ends = np.concatenate([zero, ends])
                rates = np.concatenate([[int(root_own[ci])], rates])
            t_last = last_send_round_spans(starts, ends, rates)
            rounds = max(rounds, t_last + int(dists[ci].max()))

    # ---- exact metrics: closed-form congestion and totals ---------------- #
    # One flattened convergecast covers every channel at once (channel
    # blocks are disjoint in flat space), replacing C per-channel layer
    # loops — at depth ~10³ and C trees those Python loops were the
    # dominant metrics cost.
    with obs.span("downcast_metrics"):
        sub_flat = _subtree_sums(flat_parents, flat_dist, own.ravel())
        total_bits = 0
        for ci, cid in enumerate(cids):
            k_c = per_channel_k[cid]
            vs = tree_vs[ci]
            if vs.size == 0:
                continue
            sub = sub_flat[ci * n : (ci + 1) * n]
            # A tree visits each edge once, so the ids are distinct and a plain
            # fancy-indexed add lands every update (no unbuffered ufunc.at).
            metrics.edge_messages[tree_eids[ci]] += k_c + sub[vs]
            # bits: each id crosses (n-1) tree edges down + its origin depth up
            if chan_bits[ci].size:
                traversals = dists[ci][chan_origins[ci]] + (n - 1)
                total_bits += int((chan_bits[ci] * traversals).sum())
        metrics.rounds = rounds
        metrics.total_messages = int(metrics.edge_messages.sum())
        metrics.total_bits = total_bits

    return TreeBroadcastOutcome(
        rounds=rounds,
        metrics=metrics,
        k_total=sum(per_channel_k.values()),
        per_channel_k=per_channel_k,
    )
