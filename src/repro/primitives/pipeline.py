"""Pipelined k-message broadcast over rooted trees (Lemma 1).

Given a rooted spanning tree T and k messages initially scattered over the
nodes, Lemma 1 broadcasts all of them in ``O(depth(T) + k)`` rounds with
congestion ``O(k)`` per edge:

* **Upcast** — every node streams its pending messages (its own items plus
  anything received from children) to its parent, one per round per tree
  edge. After ``depth + k`` rounds the root has everything.
* **Downcast** — the root streams every message to all children, one per
  round; internal nodes forward FIFO. Another ``depth + k`` rounds.

The two phases overlap freely (the root starts streaming as soon as the
first message arrives), so the whole pipeline is ``≈ 2·depth + 2k`` rounds —
the ``O(D + k)`` of Lemma 1 with explicit constants.

**Channels.** Theorem 1 runs λ' of these pipelines concurrently, one per
edge-disjoint spanning tree, each carrying its assigned ``k_i = O(k/λ')``
messages. :class:`PipelinedBroadcastProgram` multiplexes channels the same
way :class:`~repro.primitives.bfs.BFSProgram` does; edge-disjointness keeps
the per-edge one-message-per-round constraint intact, which the simulator
enforces.

Delivery verification uses a (count, sum-of-ids) accumulator per node per
channel — exact set equality given that channel ``c``'s message ids are a
known contiguous range (from Lemma 3 numbering).
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.congest.metrics import Metrics
from repro.congest.network import Network
from repro.congest.program import Context, NodeProgram
from repro.congest.simulator import Simulator
from repro.graphs.graph import Graph
from repro.primitives.bfs import BFSResult
from repro.util.errors import ProtocolError, ValidationError, integer_ids

__all__ = [
    "ChannelSpec",
    "PipelinedBroadcastProgram",
    "TreeBroadcastOutcome",
    "checked_messages",
    "run_tree_broadcast",
]

_UP = 0
_DOWN = 1


@dataclass
class ChannelSpec:
    """Node-local description of one broadcast channel.

    Attributes
    ----------
    parent_port: port toward the tree parent (``None`` at the root).
    child_ports: ports toward tree children.
    own: message ids this node initially holds on this channel.
    total: k_i — total messages on this channel (common knowledge after the
        Lemma 3 numbering step).
    """

    parent_port: int | None
    child_ports: list[int]
    own: list[int]
    total: int


class _ChannelState:
    __slots__ = ("spec", "up_queue", "down_queue", "recv_count", "recv_sum", "down_sent")

    def __init__(self, spec: ChannelSpec):
        self.spec = spec
        self.up_queue: deque[int] = deque(spec.own)
        self.down_queue: deque[int] = deque()
        # Every message reaches a non-root node exactly once *via DOWN*
        # (its own items included — they echo back from the root), so
        # non-root receive counters start at zero. The root never gets a
        # DOWN, so it counts its own items up front plus UP arrivals.
        is_root = spec.parent_port is None
        self.recv_count = len(spec.own) if is_root else 0
        self.recv_sum = sum(spec.own) if is_root else 0
        self.down_sent = 0


class PipelinedBroadcastProgram(NodeProgram):
    """Per-node pipelined upcast/downcast over any number of channels."""

    def __init__(self, node: int, channels: dict[int, ChannelSpec]):
        super().__init__()
        self.node = node
        self.ch: dict[int, _ChannelState] = {}
        for cid, spec in channels.items():
            st = _ChannelState(spec)
            if spec.parent_port is None:
                # Root: own messages go straight to the down stream.
                st.down_queue.extend(st.up_queue)
                st.up_queue.clear()
            self.ch[cid] = st

    # -- helpers ---------------------------------------------------------- #

    def _pump(self, ctx: Context) -> None:
        """Send one queued message per tree edge per channel; wake if busy."""
        busy = False
        for cid, st in self.ch.items():
            spec = st.spec
            if st.up_queue and spec.parent_port is not None:
                ctx.send(spec.parent_port, (_UP, cid, st.up_queue.popleft()))
                busy = busy or bool(st.up_queue)
            if st.down_queue:
                mid = st.down_queue.popleft()
                for p in spec.child_ports:
                    ctx.send(p, (_DOWN, cid, mid))
                st.down_sent += 1
                busy = busy or bool(st.down_queue)
        if busy:
            ctx.wake()

    def on_start(self, ctx: Context) -> None:
        self._pump(ctx)

    def on_round(self, ctx: Context) -> None:
        for port, payload in ctx.inbox:
            kind, cid, mid = payload
            st = self.ch.get(cid)
            if st is None:
                raise ProtocolError(f"node {self.node}: unknown channel {cid}")
            spec = st.spec
            if kind == _UP:
                if port not in spec.child_ports:
                    raise ProtocolError(
                        f"node {self.node}: UP on non-child port {port} (ch {cid})"
                    )
                if spec.parent_port is None:
                    st.down_queue.append(mid)  # root bounces into the stream
                    st.recv_count += 1
                    st.recv_sum += mid
                else:
                    st.up_queue.append(mid)
            elif kind == _DOWN:
                if port != spec.parent_port:
                    raise ProtocolError(
                        f"node {self.node}: DOWN on non-parent port {port} (ch {cid})"
                    )
                st.recv_count += 1
                st.recv_sum += mid
                st.down_queue.append(mid)
            else:
                raise ProtocolError(f"unknown pipeline payload kind {kind}")
        self._pump(ctx)

    def finalize(self) -> None:
        self.output["recv"] = {
            cid: (st.recv_count, st.recv_sum) for cid, st in self.ch.items()
        }


@dataclass
class TreeBroadcastOutcome:
    """Result of a (multi-channel) pipelined tree broadcast run."""

    rounds: int
    metrics: Metrics
    k_total: int
    per_channel_k: dict[int, int]

    @property
    def max_congestion(self) -> int:
        return self.metrics.max_congestion


def _message_ids(ids) -> np.ndarray | list[int]:
    """Message ids as int64, or as Python ints when one lies beyond int64:
    those are priced one by one, so an oversized id still raises
    :class:`~repro.util.errors.BandwidthExceeded` on either backend."""
    try:
        return integer_ids(ids, "message ids")
    except ValidationError:
        if not all(isinstance(m, numbers.Integral) for m in ids):
            raise
        return [int(m) for m in ids]


def checked_messages(
    n: int, trees: dict[int, BFSResult], messages: dict
) -> dict[int, tuple[np.ndarray, np.ndarray | list[int]]]:
    """Every channel's messages as aligned ``(origins, ids)``, checked the
    same way before either backend runs the pipeline.

    A channel's messages are ``{node: [ids]}`` or already the flat pair of
    one origin per id. Raises :class:`ValidationError` on a channel without
    a tree, an origin that is not an integer in ``[0, n)``, an id that is
    not an integer, a duplicate id within a channel, and a tree that does
    not span.
    """
    flat: dict[int, tuple[np.ndarray, np.ndarray | list[int]]] = {}
    for cid, placement in messages.items():
        if cid not in trees:
            raise ValidationError(f"messages given for unknown channel {cid}")
        if isinstance(placement, tuple):
            nodes, ids, lens = placement[0], placement[1], None
        else:
            nodes, lens = list(placement), [len(msgs) for msgs in placement.values()]
            ids = [m for msgs in placement.values() for m in msgs]
        origins = integer_ids(nodes, "message origins")
        bad = origins[(origins < 0) | (origins >= n)]
        if bad.size:
            raise ValidationError(f"message origin {bad[0]} out of range [0, {n})")
        ids = _message_ids(ids)
        if lens is not None:
            origins = np.repeat(origins, lens)
        if origins.shape != (len(ids),):
            raise ValidationError(f"channel {cid}: need one origin per message id")
        if isinstance(ids, np.ndarray):
            ids_sorted = np.sort(ids)
            dup = bool((ids_sorted[1:] == ids_sorted[:-1]).any())
        else:
            dup = len(set(ids)) != len(ids)
        if dup:
            raise ValidationError(f"duplicate message ids on channel {cid}")
        flat[cid] = (origins, ids)
    for cid, tree in trees.items():
        if not tree.spans():
            raise ValidationError(f"channel {cid} tree does not span the graph")
    return flat


def run_tree_broadcast(
    graph: Graph,
    trees: dict[int, BFSResult],
    messages: dict,
    verify: bool = True,
) -> TreeBroadcastOutcome:
    """Broadcast messages over one or more edge-disjoint rooted trees.

    Parameters
    ----------
    graph: the communication graph.
    trees: ``channel -> BFSResult`` spanning trees (edge-disjoint across
        channels; the per-edge CONGEST constraint is enforced by the
        simulator, so overlapping trees fail loudly rather than silently).
    messages: ``channel -> {node -> [message ids]}`` initial placement, or
        per channel the flat ``(origins, ids)`` pair; both are checked by
        :func:`checked_messages`.
    verify: check that every node received every channel's full id multiset
        (via count and sum, exact for distinct ids).

    Returns a :class:`TreeBroadcastOutcome` with certified round/congestion
    counts.
    """
    network = Network(graph)
    per_channel_k: dict[int, int] = {}
    expected_sum: dict[int, int] = {}
    own: dict[int, dict[int, list[int]]] = {}
    for cid, (origins, ids) in checked_messages(graph.n, trees, messages).items():
        own[cid] = {}
        for v, m in zip(origins.tolist(), map(int, ids)):
            own[cid].setdefault(v, []).append(m)
        per_channel_k[cid] = len(ids)
        expected_sum[cid] = sum(map(int, ids))
    for cid in trees:
        per_channel_k.setdefault(cid, 0)
        expected_sum.setdefault(cid, 0)

    programs: list[PipelinedBroadcastProgram] = []

    def factory(v: int) -> PipelinedBroadcastProgram:
        specs: dict[int, ChannelSpec] = {}
        for cid, tree in trees.items():
            parent = int(tree.parent[v])
            specs[cid] = ChannelSpec(
                parent_port=None if parent == v else network.port_to(v, parent),
                child_ports=[network.port_to(v, c) for c in tree.children[v]],
                own=own.get(cid, {}).get(v, []),
                total=per_channel_k[cid],
            )
        prog = PipelinedBroadcastProgram(v, specs)
        programs.append(prog)
        return prog

    sim = Simulator(network, factory)
    result = sim.run()
    for prog in programs:
        prog.finalize()

    if verify:
        for v, prog in enumerate(programs):
            for cid in trees:
                count, total = prog.ch[cid].recv_count, prog.ch[cid].recv_sum
                if count != per_channel_k[cid] or total != expected_sum[cid]:
                    raise ProtocolError(
                        f"node {v} missed messages on channel {cid}: "
                        f"got {count}/{per_channel_k[cid]}"
                    )

    return TreeBroadcastOutcome(
        rounds=result.metrics.rounds,
        metrics=result.metrics,
        k_total=sum(per_channel_k.values()),
        per_channel_k=per_channel_k,
    )
