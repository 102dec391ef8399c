"""Whole-frontier numpy kernels replicating the simulator protocols exactly.

Every function here is a drop-in for a simulator-driven primitive and must
return *bit-identical* results — same parents, same dists, same certified
round counts, same metrics — on every input. The equivalence contract is
enforced by :mod:`repro.engine.verify` and ``tests/test_engine_equivalence.py``;
see the package docstring for the round-count derivations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.congest.metrics import Metrics
from repro.engine.kernels import (
    children_csr,
    expand_csr_rows,
    last_send_round_spans,
)
from repro.graphs.graph import Graph
from repro.primitives.bfs import BFSResult, run_bfs
from repro.primitives.leader import disconnected_error
from repro.primitives.numbering import check_numbering_tree
from repro.primitives.pipeline import (
    TreeBroadcastOutcome,
    channel_sizes,
    check_child_lists,
    checked_messages,
)
from repro.util.bits import bits_for_int, bits_for_int_array, message_bit_budget
from repro.util.errors import BandwidthExceeded, ValidationError

__all__ = [
    "PipelineChannels",
    "elect_from_flood",
    "expand_csr_rows",  # re-exported from repro.engine.kernels
    "pipeline_channels",
    "pipeline_closed_form",
    "vectorized_elect_leader",
    "vectorized_numbering",
    "vectorized_tree_broadcast",
]


# The Lemma 2 flood runs through repro.primitives.bfs itself: run_bfs is a
# batch of one over repro.engine.plane.plane_sweep, and run_parallel_bfs
# calls masked_union_bfs. expand_csr_rows is re-exported above for callers
# that imported it from here.


# --------------------------------------------------------------------------- #
# Leader election — min-ID flood
# --------------------------------------------------------------------------- #

def vectorized_elect_leader(graph: Graph) -> tuple[int, int]:
    """Fast-path :func:`repro.primitives.leader.elect_leader`: the election
    read off node 0's own flood (:func:`elect_from_flood`)."""
    return elect_from_flood(graph, run_bfs(graph, 0, backend="vectorized"))


def elect_from_flood(graph: Graph, flood: BFSResult) -> tuple[int, int]:
    """The min-id election's ``(leader, rounds)``, read off node 0's BFS.

    The global minimum id (node 0) always wins; its value reaches a node at
    distance d in round d, triggering that node's last improvement-and-send,
    so the final delivery lands in round ecc(0) + 1 — the flood's own round
    count, which is 0 on a single node. The vectorized broadcast prologue
    therefore floods once, from node 0, and reuses that tree as the global
    BFS. A flood that does not span raises what the simulated election
    raises on a disconnected graph.
    """
    from repro.graphs.traversal import connected_components

    if not flood.spans():
        raise disconnected_error(connected_components(graph).tolist())
    return 0, flood.rounds


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


def _subtree_sums(
    parent: np.ndarray, order: np.ndarray, bounds: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Per-node sum of ``values`` over the node's subtree (layer-wise
    convergecast over the :func:`_layer_slices` of ``dist``: deepest layer
    first, each layer folded into its parents)."""
    acc = np.asarray(values, dtype=np.int64).copy()
    for d in range(bounds.size - 2, 0, -1):
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
    order (ports are sorted by neighbor id). The tree must have one root
    and be layered by ``dist``
    (:func:`~repro.primitives.numbering.check_numbering_tree`), as on the
    simulator.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (graph.n,):
        raise ValidationError("need one item count per node")
    if np.any(counts < 0):
        raise ValidationError("item counts must be non-negative")
    if not tree.spans():
        raise ValidationError("numbering requires a spanning tree")
    check_numbering_tree(tree)

    n = graph.n
    parent = np.asarray(tree.parent, dtype=np.int64)
    order, bounds = _layer_slices(tree.dist)
    subtree = _subtree_sums(parent, order, bounds, counts)

    # A child's range starts past its parent's own items and the subtrees
    # of its smaller siblings: one exclusive cumsum over the child blocks
    # of the CSR, whose children ascend as the simulator's ports do.
    indptr, kids = children_csr(parent)
    below = np.cumsum(subtree[kids]) - subtree[kids]
    ps = parent[kids]
    offset = np.zeros(n, dtype=np.int64)
    offset[kids] = counts[ps] + below - below[indptr[ps]]

    starts = np.zeros(n, dtype=np.int64)
    starts[tree.root] = 1
    maxd = bounds.size - 2
    for d in range(1, maxd + 1):
        vs = order[bounds[d] : bounds[d + 1]]
        starts[vs] = starts[parent[vs]] + offset[vs]

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

@dataclass
class PipelineChannels:
    """Lemma 1's input after every check the vectorized entry points share.

    Rows follow the sorted channel ids. ``flat`` is what
    :func:`~repro.primitives.pipeline.checked_messages` returned, ``own``
    counts the messages each node holds, and ``tree_eids[c]`` holds the
    edge ``(parent(v), v)`` of every non-root ``v`` of channel ``c``,
    ascending in ``v``. ``bits[c]`` prices each of the channel's ids as the
    ``(kind, channel, id)`` tuple the simulator transports.
    """

    n: int
    cids: list[int]
    flat: dict[int, tuple[np.ndarray, np.ndarray]]
    parents: np.ndarray  # (C, n)
    dists: np.ndarray  # (C, n)
    nonroot: np.ndarray  # (C, n)
    own: np.ndarray  # (C, n)
    tree_eids: list[np.ndarray]
    bits: list[np.ndarray]

    def origins(self, ci: int) -> np.ndarray:
        pair = self.flat.get(self.cids[ci])
        return pair[0] if pair is not None else np.empty(0, dtype=np.int64)

    def layered(self) -> np.ndarray:
        """Per channel: whether ``dist`` is the BFS layering of ``parent``."""
        parent_dist = np.take_along_axis(self.dists, self.parents, axis=1)
        return np.where(self.nonroot, self.dists == parent_dist + 1, self.dists == 0).all(
            axis=1
        )


def pipeline_channels(
    graph: Graph, trees: dict[int, BFSResult], messages: dict
) -> PipelineChannels:
    """Check a Lemma 1 input the way the simulator would refuse it.

    Messages go through :func:`~repro.primitives.pipeline.checked_messages`.
    Then the trees must be edge-disjoint and every id must fit the bandwidth
    budget: the simulator raises
    :class:`~repro.util.errors.BandwidthExceeded` on the first double-send
    over a shared edge or on the first oversized payload.
    """
    n = graph.n
    cids = sorted(trees)
    flat = checked_messages(n, trees, messages)
    C = len(cids)
    parents = np.empty((C, n), dtype=np.int64)
    dists = np.empty((C, n), dtype=np.int64)
    own = np.zeros((C, n), dtype=np.int64)
    for ci, cid in enumerate(cids):
        parents[ci] = trees[cid].parent
        dists[ci] = trees[cid].dist
        if cid in flat:
            own[ci] = np.bincount(flat[cid][0], minlength=n)
    nonroot = parents != np.arange(n)

    # Tree-edge ids, computed once in a single batched query (one
    # searchsorted over all channels' tree edges). Any edge used twice —
    # across channels or within one malformed tree — is a duplicate in the
    # flat id array, so one sort of the O(Σ|V|) tree edges finds overlap.
    eids_flat = graph.edge_ids_for_pairs(parents[nonroot], np.nonzero(nonroot)[1])
    sizes = nonroot.sum(axis=1)
    tree_eids = np.split(eids_flat, np.cumsum(sizes)[:-1]) if C else []
    if n > 1 and C > 1 and eids_flat.size:
        eids_sorted = np.sort(eids_flat)
        if bool((eids_sorted[1:] == eids_sorted[:-1]).any()):
            raise ValidationError(
                "trees must be edge-disjoint (the simulator would refuse the "
                "double-send)"
            )

    # Every id is eventually sent (the downcast reaches every tree edge), so
    # the largest price decides the bandwidth gate.
    budget = message_bit_budget(n)
    chan_bits: list[np.ndarray] = []
    for cid in cids:
        ids = flat[cid][1] if cid in flat else ()
        if not len(ids):
            chan_bits.append(np.empty(0, dtype=np.int64))
            continue
        bits = 2 + bits_for_int(cid) + bits_for_int_array(ids)
        if n > 1 and int(bits.max()) > budget:
            worst = int(ids[int(np.argmax(bits))])
            raise BandwidthExceeded(
                f"payload of {int(bits.max())} bits exceeds budget {budget} "
                f"(payload={(1, cid, worst)!r})"
            )
        chan_bits.append(bits)
    return PipelineChannels(n, cids, flat, parents, dists, nonroot, own, tree_eids, chan_bits)


def pipeline_closed_form(ch: PipelineChannels, sel) -> tuple[int, int, int]:
    """Rounds, messages and bits of the fault-free pipelines of channels ``sel``.

    ``sel`` picks rows of ``ch`` (a slice or an index array), and their
    trees must be BFS-layered. The pipeline's round count
    depends only on per-node queue *lengths* (message identity never
    influences when a queue drains): each round, every nonempty up-queue
    sends one message to its parent and every nonempty down-queue pops one
    (forwarded to children, if any); arrivals land one round after sends.
    Three structural facts give the count without pumping every queue every
    round, which cost O(rounds · n · C):

    1. channels never interact (queues are per (channel, node); the shared
       clock is just the max of the per-channel finish times);
    2. a non-root DOWN queue never exceeds one item (arrivals ≤ 1/round
       from the parent, service 1/round), so the downcast is a pure
       pipeline: the root's last down-send at round t_last drains at the
       deepest leaf in round t_last + depth(T), which is the round the
       simulator goes quiet;
    3. t_last depends on the origins' depths alone. With ``N(≥ d)`` the
       channel's messages whose origin has depth at least d, ``t_last =
       max_d (d + N(≥ d)) − 1`` over the depths d that hold messages: one
       ``np.bincount`` of the depths, fed to
       :func:`~repro.engine.kernels.last_send_round_spans` as one span
       ``[d, d]`` per depth. A message from depth d reaches the root no
       earlier than round d, and the root pops one message per round, so
       ``t_last`` is at least each term. If the root idles in round τ, work
       conservation along every root path leaves no message of origin depth
       ≤ τ in flight, so its last busy stretch pops exactly the N(≥ τ + 1)
       deeper ones, and the term of the last idle τ is attained.

    Each message crosses its origin-to-root path once on the upcast and
    every one of the ``n - 1`` tree edges once on the downcast; every
    crossing is charged the message's price.
    """
    n = ch.n
    rows = np.arange(len(ch.cids))[sel].tolist()
    depths = [ch.dists[ci][ch.origins(ci)] for ci in rows]
    total_messages = total_bits = 0
    for ci, depth in zip(rows, depths):
        traversals = depth + (n - 1)
        total_messages += int(traversals.sum())
        total_bits += int((ch.bits[ci] * traversals).sum())

    rounds = 0
    with obs.span("upcast"):
        for ci, depth in zip(rows, depths):
            if not depth.size:
                continue  # no sends on this channel at all
            per_depth = np.bincount(depth)
            d = np.flatnonzero(per_depth)
            t_last = last_send_round_spans(d, d, per_depth[d])
            rounds = max(rounds, t_last + int(ch.dists[ci].max()))
    return rounds, total_messages, total_bits


def vectorized_tree_broadcast(
    graph: Graph,
    trees: dict[int, BFSResult],
    messages: dict,
) -> TreeBroadcastOutcome:
    """Fast-path :func:`repro.primitives.pipeline.run_tree_broadcast`.

    ``messages`` maps each channel to ``{node: [ids]}`` or to the flat
    ``(origins, ids)`` pair of int64 arrays, one origin per id — the form
    the broadcast tails hand over, with no per-node Python object.
    :func:`pipeline_channels` checks either form exactly as the simulator
    does and flattens a mapping once; every step below reads the flat pair.

    Rounds, message and bit totals are :func:`pipeline_closed_form`. Every
    tree must be BFS-layered (``dist`` is the depth layering of
    ``parent``), as every tree producer in the library guarantees, and its
    child lists must be the ones its parents imply; anything else raises
    the :class:`~repro.util.errors.ValidationError` of
    :func:`~repro.primitives.pipeline.check_child_lists`, as on the
    simulator.

    Per-edge metrics are closed-form too: each message crosses every tree
    edge once on the downcast and its origin-to-root path once on the
    upcast, so the edge ``(parent(v), v)`` in channel c carries ``k_c +
    (messages originating in subtree(v))`` messages in total.

    Delivery holds by construction once every tree spans (checked on
    entry), which the equivalence suite cross-validates against the
    simulator's delivery check and counters.
    """
    n = graph.n
    check_child_lists(trees)
    ch = pipeline_channels(graph, trees, messages)
    per_channel_k = channel_sizes(trees, ch.flat)

    metrics = Metrics(m=graph.m)
    if not ch.cids:
        return TreeBroadcastOutcome(
            rounds=0, metrics=metrics, k_total=0, per_channel_k=per_channel_k
        )

    C = len(ch.cids)
    rounds, total_messages, total_bits = pipeline_closed_form(ch, slice(None))

    # ---- exact per-edge congestion --------------------------------------- #
    # One flattened convergecast covers every channel at once (channel
    # blocks are disjoint in flat space), replacing C per-channel layer
    # loops — at depth ~10³ and C trees those Python loops were the
    # dominant metrics cost.
    with obs.span("downcast_metrics"):
        flat_parents = (ch.parents + (np.arange(C) * n)[:, None]).ravel()
        sub_flat = _subtree_sums(
            flat_parents, *_layer_slices(ch.dists.ravel()), ch.own.ravel()
        )
        for ci, cid in enumerate(ch.cids):
            vs = np.nonzero(ch.nonroot[ci])[0]
            if vs.size == 0:
                continue
            sub = sub_flat[ci * n : (ci + 1) * n]
            # A tree visits each edge once, so the ids are distinct and a plain
            # fancy-indexed add lands every update (no unbuffered ufunc.at).
            metrics.edge_messages[ch.tree_eids[ci]] += per_channel_k[cid] + sub[vs]
        metrics.rounds = rounds
        metrics.total_messages = total_messages
        metrics.total_bits = total_bits

    return TreeBroadcastOutcome(
        rounds=rounds,
        metrics=metrics,
        k_total=sum(per_channel_k.values()),
        per_channel_k=per_channel_k,
    )
