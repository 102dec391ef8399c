"""Distributed breadth-first search (Lemma 2), with multi-channel support.

Lemma 2: a BFS tree rooted at a known node can be built in ``O(D)`` rounds;
each node ends up knowing which incident edges are tree edges. The protocol
is the classic flood: the root announces layer 0; a node adopting layer d+1
picks the first announcing port as its parent, notifies it ("child" message),
and announces d+1 on its other ports next round.

**Channels.** Theorem 2's broadcast needs λ' BFS computations running *in
parallel*, one per edge-disjoint color class. :class:`BFSProgram` therefore
multiplexes any number of channels, each restricted to its own port subset;
since color classes are edge-disjoint, each edge carries messages of exactly
one channel and the CONGEST bandwidth constraint is respected per edge — the
simulator verifies this by construction (a double-send would raise).

Round complexity: depth + O(1) per channel, all channels concurrently — the
``O((n log n)/δ)`` tree-packing construction cost quoted in Section 3.1.

**Backends.** ``backend="simulator"`` (default) runs the flood on the
CONGEST simulator; ``backend="vectorized"`` computes the identical result —
same parents, dists, children, and certified round count — with numpy
frontier sweeps (see :mod:`repro.engine`), two orders of magnitude faster.
"""

from __future__ import annotations

import numpy as np

from repro.congest.network import Network
from repro.congest.program import Context, NodeProgram
from repro.congest.simulator import Simulator
from repro.graphs.graph import Graph
from repro.util.errors import ProtocolError, ValidationError

__all__ = ["BFSProgram", "BFSResult", "run_bfs", "run_bfs_batch", "run_parallel_bfs"]

_ANNOUNCE = 0  # payload kind tags (ints keep messages small)
_CHILD = 1


class BFSResult:
    """Distributed BFS outcome for one channel.

    Attributes
    ----------
    root: the BFS root node.
    parent: ``parent[v]`` = BFS parent (root's parent is itself; ``-1`` if
        the channel's subgraph does not reach ``v``).
    dist: hop distance from the root within the channel subgraph (``-1`` if
        unreached).
    children: per-node list of child node ids. Constructing with
        ``children=None`` defers materialization: the lists are derived
        from ``parent`` (canonical ascending order) on first access. The
        simulator always passes its protocol-collected lists explicitly —
        under faults a dropped child-notice makes them a *strict subset* of
        the parent-derived ones — while fault-free vectorized paths pass
        ``None``, since the hot pipeline consumers never read ``children``
        and the Python lists are pure construction overhead at n ≈ 10⁶.
    rounds: rounds consumed by the simulation that produced this result
        (shared across channels when run in parallel).
    """

    __slots__ = ("root", "parent", "dist", "rounds", "_children")

    def __init__(
        self,
        root: int,
        parent: np.ndarray,
        dist: np.ndarray,
        children: list[list[int]] | None,
        rounds: int,
    ):
        self.root = root
        self.parent = parent
        self.dist = dist
        self.rounds = rounds
        self._children = children

    def __repr__(self):
        return (
            f"BFSResult(root={self.root}, rounds={self.rounds}, "
            f"depth={self.depth}, n={len(self.parent)})"
        )

    @property
    def children(self) -> list[list[int]]:
        if self._children is None:
            from repro.engine.kernels import children_lists

            self._children = children_lists(
                np.asarray(self.parent, dtype=np.int64)
            )
        return self._children

    def children_as_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, flat_children)`` CSR of :attr:`children`.

        Identical content either way; when the lists were never
        materialized this skips Python entirely and builds the CSR
        straight from ``parent``.
        """
        from repro.engine.kernels import children_csr, lists_to_csr

        if self._children is None:
            return children_csr(np.asarray(self.parent, dtype=np.int64))
        return lists_to_csr(self._children)

    @property
    def depth(self) -> int:
        reached = self.dist[self.dist >= 0]
        return int(reached.max()) if reached.size else 0

    def spans(self) -> bool:
        """True iff every node was reached."""
        return bool((self.dist >= 0).all())

    def tree_edges(self) -> list[tuple[int, int]]:
        return [
            (int(self.parent[v]), v)
            for v in range(len(self.parent))
            if self.parent[v] >= 0 and self.parent[v] != v
        ]


class BFSProgram(NodeProgram):
    """Per-node state machine running BFS on one or more channels.

    Parameters
    ----------
    node: this node's id.
    channel_roots: mapping ``channel -> root node id``.
    channel_ports: mapping ``channel -> list of usable ports`` (``None``
        means all ports — the whole graph).
    """

    def __init__(
        self,
        node: int,
        channel_roots: dict[int, int],
        channel_ports: dict[int, list[int] | None],
    ):
        super().__init__()
        self.node = node
        self.channel_roots = channel_roots
        self.channel_ports = channel_ports
        # per-channel state
        self.dist: dict[int, int] = {}
        self.parent_port: dict[int, int | None] = {}
        self.child_ports: dict[int, list[int]] = {c: [] for c in channel_roots}
        self._pending_announce: dict[int, int] = {}

    def _ports(self, ctx: Context, channel: int) -> list[int]:
        ports = self.channel_ports.get(channel)
        return list(range(ctx.degree)) if ports is None else ports

    def on_start(self, ctx: Context) -> None:
        for channel, root in self.channel_roots.items():
            if root == self.node:
                self.dist[channel] = 0
                self.parent_port[channel] = None
                for p in self._ports(ctx, channel):
                    ctx.send(p, (_ANNOUNCE, channel, 0))

    def on_round(self, ctx: Context) -> None:
        # Gather this round's announcements per channel first, then adopt the
        # *smallest* announcing port (ports are sorted by neighbor id, so
        # this matches the deterministic centralized BFS tie-break: smallest
        # neighbor id in the previous layer).
        announces: dict[int, tuple[int, int]] = {}  # channel -> (port, dist)
        for port, payload in ctx.inbox:
            kind = payload[0]
            if kind == _ANNOUNCE:
                _, channel, d = payload
                if channel in self.dist:
                    continue
                best = announces.get(channel)
                if best is None or port < best[0]:
                    announces[channel] = (port, d)
            elif kind == _CHILD:
                _, channel = payload
                self.child_ports[channel].append(port)
            else:
                raise ProtocolError(f"BFS got unknown payload kind {kind}")
        adopted: list[tuple[int, int]] = []  # (channel, dist)
        for channel, (port, d) in announces.items():
            self.dist[channel] = d + 1
            self.parent_port[channel] = port
            adopted.append((channel, d + 1))
        # One round later: notify parent, announce to the rest.
        for channel, d in adopted:
            pport = self.parent_port[channel]
            ctx.send(pport, (_CHILD, channel))
            for p in self._ports(ctx, channel):
                if p != pport:
                    ctx.send(p, (_ANNOUNCE, channel, d))

    # -- output extraction ------------------------------------------------ #

    def finalize(self) -> None:
        self.output["dist"] = dict(self.dist)
        self.output["parent_port"] = dict(self.parent_port)
        self.output["child_ports"] = {c: list(ps) for c, ps in self.child_ports.items()}


def _collect_results(
    graph: Graph,
    network: Network,
    programs: list[BFSProgram],
    channel_roots: dict[int, int],
    rounds: int,
) -> dict[int, BFSResult]:
    results = {}
    for channel, root in channel_roots.items():
        parent = np.full(graph.n, -1, dtype=np.int64)
        dist = np.full(graph.n, -1, dtype=np.int64)
        children: list[list[int]] = [[] for _ in range(graph.n)]
        for v, prog in enumerate(programs):
            if channel in prog.dist:
                dist[v] = prog.dist[channel]
                pport = prog.parent_port[channel]
                parent[v] = v if pport is None else network.neighbor(v, pport)
            for p in prog.child_ports.get(channel, []):
                children[v].append(network.neighbor(v, p))
            # Canonical child order (ascending id): CHILD notices all land in
            # the same round, so their relative order is an artifact of the
            # delivery loop, not of the protocol; sorting makes the two
            # backends bit-identical.
            children[v].sort()
        results[channel] = BFSResult(
            root=root, parent=parent, dist=dist, children=children, rounds=rounds
        )
    return results


def run_bfs(
    graph: Graph,
    root: int,
    edge_mask: np.ndarray | None = None,
    backend: str = "simulator",
) -> BFSResult:
    """Run Lemma 2's BFS on ``graph`` (optionally restricted to an edge set).

    Returns a :class:`BFSResult`; ``result.rounds`` is the exact number of
    CONGEST rounds the flood took (depth + O(1)). ``backend="vectorized"``
    computes the identical result with numpy frontier sweeps.
    """
    from repro.engine import validate_backend

    if validate_backend(backend) == "vectorized":
        from repro.engine.fastpath import vectorized_bfs

        return vectorized_bfs(graph, root, edge_mask=edge_mask)
    if not (0 <= root < graph.n):
        raise ValidationError(f"root {root} out of range")
    network = Network(graph)
    if edge_mask is not None:
        mask = np.asarray(edge_mask, dtype=bool)
        ports = {v: network.ports_for_edges(v, mask) for v in range(graph.n)}
        channel_ports = lambda v: {0: ports[v]}  # noqa: E731
    else:
        channel_ports = lambda v: {0: None}  # noqa: E731

    programs: list[BFSProgram] = []

    def factory(v: int) -> BFSProgram:
        prog = BFSProgram(v, {0: root}, channel_ports(v))
        programs.append(prog)
        return prog

    sim = Simulator(network, factory)
    result = sim.run()
    for prog in programs:
        prog.finalize()
    return _collect_results(graph, network, programs, {0: root}, result.metrics.rounds)[0]


def run_bfs_batch(
    graph: Graph,
    roots,
    edge_mask: np.ndarray | None = None,
    backend: str = "simulator",
) -> list[BFSResult]:
    """Answer many single-root BFS queries over one (masked) graph.

    Element ``i`` of the returned list is bit-identical to
    ``run_bfs(graph, roots[i], edge_mask=edge_mask, backend=backend)``
    (parents, dists, children, rounds). Under ``backend="vectorized"``
    all queries share one :func:`~repro.engine.plane.plane_sweep` — one
    call of the BFS layer loop over flat (query, node) keys — so the
    per-call dispatch cost is paid once per batch instead of once per
    root; the simulator backend runs the reference loop of solo calls.
    Duplicate roots are answered by shared (read-only) result rows.
    """
    from repro.engine import validate_backend

    root_list = [int(r) for r in roots]
    if validate_backend(backend) != "vectorized":
        return [
            run_bfs(graph, r, edge_mask=edge_mask, backend=backend)
            for r in root_list
        ]
    from repro.engine.plane import plane_sweep

    indptr, indices = graph.masked_csr(edge_mask)
    uniq, inverse = np.unique(np.asarray(root_list, dtype=np.int64), return_inverse=True)
    parent, dist, rounds = plane_sweep(graph.n, indptr, indices, uniq)
    return [
        BFSResult(
            root=root_list[i],
            parent=parent[inverse[i]],
            dist=dist[inverse[i]],
            children=None,
            rounds=int(rounds[inverse[i]]),
        )
        for i in range(len(root_list))
    ]


def run_parallel_bfs(
    graph: Graph,
    edge_masks: list[np.ndarray],
    roots: list[int] | None = None,
    backend: str = "simulator",
) -> tuple[list[BFSResult], int]:
    """BFS concurrently in each edge-disjoint subgraph (Theorem 2 step 2).

    ``edge_masks`` must be pairwise disjoint (each edge in at most one
    channel); this is validated because overlapping channels would make the
    per-edge bandwidth claim of Section 3.1 unsound.

    Returns ``(results_per_channel, total_rounds)`` — the rounds of the one
    joint execution, i.e. the *max* depth over channels, not the sum.
    ``backend="vectorized"`` computes identical results and round counts
    without instantiating the simulator.
    """
    from repro.engine import validate_backend

    validate_backend(backend)
    masks = [np.asarray(m, dtype=bool) for m in edge_masks]
    # Any over an empty stack is False: an edgeless host (m = 0) passes.
    if masks and (np.stack(masks).sum(axis=0) > 1).any():
        raise ValidationError("edge masks must be pairwise disjoint")
    if roots is None:
        roots = [0] * len(masks)
    if len(roots) != len(masks):
        raise ValidationError("need one root per channel")
    for root in roots:
        if not (0 <= root < graph.n):
            raise ValidationError(f"root {root} out of range")
    if backend == "vectorized":
        from repro.engine.fastpath import vectorized_parallel_bfs

        return vectorized_parallel_bfs(graph, masks, roots)

    network = Network(graph)
    channel_roots = {c: roots[c] for c in range(len(masks))}
    programs: list[BFSProgram] = []

    def factory(v: int) -> BFSProgram:
        ports = {
            c: network.ports_for_edges(v, masks[c]) for c in range(len(masks))
        }
        prog = BFSProgram(v, channel_roots, ports)
        programs.append(prog)
        return prog

    sim = Simulator(network, factory)
    result = sim.run()
    for prog in programs:
        prog.finalize()
    per_channel = _collect_results(
        graph, network, programs, channel_roots, result.metrics.rounds
    )
    return [per_channel[c] for c in range(len(masks))], result.metrics.rounds
