"""Pipelined k-message broadcast over rooted trees (Lemma 1).

Given a rooted spanning tree T and k messages initially scattered over the
nodes, Lemma 1 broadcasts all of them in ``O(depth(T) + k)`` rounds with
congestion ``O(k)`` per edge:

* **Upcast** — every node streams its pending messages (its own items plus
  anything received from children) to its parent, one per round per tree
  edge. A message whose origin has depth d reaches the root in round d at
  the earliest.
* **Downcast** — the root streams every message to all children, one per
  round; internal nodes forward FIFO, so the root's last send, in round
  ``t``, reaches the deepest leaf in round ``t + depth``.

The two phases overlap (the root sends a message down as soon as its queue
allows), and the count is exact. With ``N(≥ d)`` the messages whose origin
has depth at least ``d``, the root's last send is ``max_d (d + N(≥ d)) − 1``
over the depths that hold messages
(:func:`repro.engine.fastpath.pipeline_closed_form` proves it), so ``k ≥ 1``
messages take ``depth + max_d (d + N(≥ d)) − 1 ≤ 2·depth + k − 1`` rounds
and none take 0 — the ``O(D + k)`` of Lemma 1 with explicit constants.

**Channels.** Theorem 1 runs λ' of these pipelines concurrently, one per
edge-disjoint spanning tree, each carrying its assigned ``k_i = O(k/λ')``
messages. :class:`PipelinedBroadcastProgram` multiplexes channels the same
way :class:`~repro.primitives.bfs.BFSProgram` does; edge-disjointness keeps
the per-edge one-message-per-round constraint intact, which the simulator
enforces.

:func:`simulate_pipelines` runs the program on any simulator class for the
three drivers: :func:`run_tree_broadcast`, the faulty grid cells of
:mod:`repro.core.resilient` and Theorem 12's scheduler
(:mod:`repro.primitives.scheduling`, which changes only the send step).
Each node keeps the ids it received per channel: the delivery check reads
their count and sum (exact for distinct ids), and the grid ORs them into
its receipt matrix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.congest.metrics import Metrics
from repro.congest.network import Network
from repro.congest.program import Context, NodeProgram
from repro.congest.simulator import SimulationResult, Simulator
from repro.graphs.graph import Graph
from repro.primitives.bfs import BFSResult
from repro.util.errors import ProtocolError, ValidationError, integer_ids

__all__ = [
    "ChannelSpec",
    "PipelinedBroadcastProgram",
    "TreeBroadcastOutcome",
    "channel_sizes",
    "check_child_lists",
    "check_delivery",
    "checked_messages",
    "run_tree_broadcast",
    "simulate_pipelines",
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
    """

    parent_port: int | None
    child_ports: list[int]
    own: list[int]


class _ChannelState:
    __slots__ = ("spec", "up_queue", "down_queue", "received")

    def __init__(self, spec: ChannelSpec):
        self.spec = spec
        # A root streams its own items down at once. A non-root sends them
        # up and, like every id, receives them once via DOWN.
        root = spec.parent_port is None
        self.up_queue: deque[int] = deque(() if root else spec.own)
        self.down_queue: deque[int] = deque(spec.own if root else ())
        self.received: list[int] = list(spec.own) if root else []


class PipelinedBroadcastProgram(NodeProgram):
    """Per-node pipelined upcast/downcast over any number of channels.

    Each round the node takes in its inbox, then runs the send step
    :meth:`_send`: per channel in channel order, the up-queue's head goes to
    the parent and the down-queue's head to every child, and the node asks
    to wake while any queue holds items — so drops upstream cannot wedge
    it.
    """

    def __init__(self, node: int, channels: dict[int, ChannelSpec]):
        super().__init__()
        self.node = node
        self.ch = {cid: _ChannelState(spec) for cid, spec in channels.items()}

    def _send(self, ctx: Context) -> None:
        """Send one queued message per tree edge per channel; wake if busy."""
        busy = False
        for cid, st in self.ch.items():
            if st.up_queue:  # a root never queues up: UP arrivals go down
                ctx.send(st.spec.parent_port, (_UP, cid, st.up_queue.popleft()))
                busy = busy or bool(st.up_queue)
            if st.down_queue:
                msg = (_DOWN, cid, st.down_queue.popleft())
                for p in st.spec.child_ports:
                    ctx.send(p, msg)
                busy = busy or bool(st.down_queue)
        if busy:
            ctx.wake()

    def on_start(self, ctx: Context) -> None:
        self._send(ctx)

    def on_round(self, ctx: Context) -> None:
        for port, (kind, cid, mid) in ctx.inbox:
            st = self.ch.get(cid)
            if st is None:
                raise ProtocolError(f"node {self.node}: unknown channel {cid}")
            if kind == _UP:
                # No port check: under faults a dropped CHILD notice leaves
                # a sender off its parent's child list, and it still sends.
                if st.spec.parent_port is None:
                    st.received.append(mid)  # the root bounces into the stream
                    st.down_queue.append(mid)
                else:
                    st.up_queue.append(mid)
            elif kind == _DOWN:
                if port != st.spec.parent_port:
                    raise ProtocolError(
                        f"node {self.node}: DOWN on non-parent port {port} (ch {cid})"
                    )
                st.received.append(mid)
                st.down_queue.append(mid)
            else:
                raise ProtocolError(f"unknown pipeline payload kind {kind}")
        self._send(ctx)


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


def checked_messages(
    n: int, trees: dict[int, BFSResult], messages: dict
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Every channel's messages as aligned ``(origins, ids)``, checked the
    same way before either backend runs the pipeline.

    A channel's messages are ``{node: [ids]}`` or already the flat pair of
    one origin per id, both 1-D. Raises :class:`ValidationError` on a
    channel without a tree, an origin that is not an integer in ``[0, n)``,
    an id that is not an integer or does not fit in int64, origins and ids
    that are not 1-D arrays of one length, a duplicate id within a channel,
    a tree that does not span, and a tree whose self-parents are not its
    ``root`` alone, on which the simulator would root the channel at every
    self-parent and the faulty engine at ``root``.
    """
    flat: dict[int, tuple[np.ndarray, np.ndarray]] = {}
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
        ids = integer_ids(ids, "message ids")
        if lens is not None:
            origins = np.repeat(origins, lens)
        if origins.shape != ids.shape:
            raise ValidationError(f"channel {cid}: need one origin per message id")
        ids_sorted = np.sort(ids)
        if (ids_sorted[1:] == ids_sorted[:-1]).any():
            raise ValidationError(f"duplicate message ids on channel {cid}")
        flat[cid] = (origins, ids)
    for cid, tree in trees.items():
        if not tree.spans():
            raise ValidationError(f"channel {cid} tree does not span the graph")
        if not tree.single_rooted():
            raise ValidationError(
                f"channel {cid}: tree root {tree.root} is not its only self-parent"
            )
    return flat


def check_child_lists(trees: dict[int, BFSResult]) -> None:
    """Raise :class:`ValidationError` naming the first channel whose child
    lists are not the ones its ``parent`` array implies, or whose ``dist``
    is not the BFS layering of ``parent`` (:meth:`BFSResult.layered`).

    The fault-free Lemma 1 entry points need this: the simulator sends
    down the child lists, and the closed form reads ``parent`` and
    ``dist``. Only faulty BFS collects such lists, and the faulty
    broadcast takes them, as it takes trees that are not layered.
    """
    for cid, tree in trees.items():
        if not tree.children_follow_parents():
            raise ValidationError(
                f"channel {cid}: tree child lists differ from the ones its parents imply"
            )
        if not tree.layered():
            raise ValidationError(
                f"channel {cid}: tree dist is not the BFS layering of its parents"
            )


def simulate_pipelines(
    network: Network,
    trees: dict[int, BFSResult],
    flat: dict[int, tuple[np.ndarray, np.ndarray]],
    program=PipelinedBroadcastProgram,
    simulator=Simulator,
    **sim_kwargs,
) -> tuple[SimulationResult, Simulator]:
    """The simulator's Lemma 1 driver: one execution of ``simulator`` with
    ``program(v, specs)`` at every node ``v``.

    Every node's channel specs (:class:`ChannelSpec`) are built here, once,
    in the channel order of ``trees``: the ports toward the tree parent and
    the listed children, and the ids the node holds in ``flat`` (what
    :func:`checked_messages` returned; a channel without an entry carries
    nothing). Returns the run and the simulator, which keeps a
    :class:`~repro.congest.faults.FaultySimulator`'s drops and fault RNG.
    """
    n = network.n
    specs: list[dict[int, ChannelSpec]] = [{} for _ in range(n)]
    for cid, tree in trees.items():
        own: dict[int, list[int]] = {}
        if cid in flat:
            origins, ids = flat[cid]
            for v, m in zip(origins.tolist(), ids.tolist()):
                own.setdefault(v, []).append(m)
        for v, parent in enumerate(np.asarray(tree.parent).tolist()):
            specs[v][cid] = ChannelSpec(
                parent_port=None if parent == v else network.port_to(v, parent),
                child_ports=[network.port_to(v, c) for c in tree.children[v]],
                own=own.get(v, []),
            )
    sim = simulator(network, lambda v: program(v, specs[v]), **sim_kwargs)
    return sim.run(), sim


def channel_sizes(
    trees: dict[int, BFSResult], flat: dict[int, tuple[np.ndarray, np.ndarray]]
) -> dict[int, int]:
    """Each channel's message count k_c, zero for a tree without messages."""
    sizes = {cid: len(ids) for cid, (_origins, ids) in flat.items()}
    for cid in trees:
        sizes.setdefault(cid, 0)
    return sizes


def check_delivery(
    programs: list[PipelinedBroadcastProgram],
    trees: dict[int, BFSResult],
    flat: dict[int, tuple[np.ndarray, np.ndarray]],
) -> None:
    """Raise :class:`ProtocolError` at the first node (in id order) that
    missed a message of some channel: its receipts must match the channel's
    ids in count and in sum, which is exact for distinct ids."""
    expected = {cid: (len(ids), sum(ids.tolist())) for cid, (_o, ids) in flat.items()}
    for v, prog in enumerate(programs):
        for cid in trees:
            k, total = expected.get(cid, (0, 0))
            got = prog.ch[cid].received
            if len(got) != k or sum(got) != total:
                raise ProtocolError(
                    f"node {v} missed messages on channel {cid}: got {len(got)}/{k}"
                )


def run_tree_broadcast(
    graph: Graph,
    trees: dict[int, BFSResult],
    messages: dict,
) -> TreeBroadcastOutcome:
    """Broadcast messages over one or more edge-disjoint rooted trees.

    Parameters
    ----------
    graph: the communication graph.
    trees: ``channel -> BFSResult`` spanning trees (edge-disjoint across
        channels; the per-edge CONGEST constraint is enforced by the
        simulator, so overlapping trees fail loudly rather than silently),
        BFS-layered and with the child lists their parents imply
        (:func:`check_child_lists`).
    messages: ``channel -> {node -> [message ids]}`` initial placement, or
        per channel the flat ``(origins, ids)`` pair; both are checked by
        :func:`checked_messages`.

    Every node must receive every channel's full id multiset
    (:func:`check_delivery`). Returns a :class:`TreeBroadcastOutcome` with
    certified round/congestion counts.
    """
    check_child_lists(trees)
    flat = checked_messages(graph.n, trees, messages)
    result, _sim = simulate_pipelines(Network(graph), trees, flat)
    check_delivery(result.programs, trees, flat)
    per_channel_k = channel_sizes(trees, flat)
    return TreeBroadcastOutcome(
        rounds=result.metrics.rounds,
        metrics=result.metrics,
        k_total=sum(per_channel_k.values()),
        per_channel_k=per_channel_k,
    )
