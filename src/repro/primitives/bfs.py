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
from repro.util.errors import ProtocolError, ValidationError, integer_ids

__all__ = [
    "BFSProgram",
    "BFSResult",
    "check_roots",
    "run_bfs",
    "run_bfs_batch",
    "run_parallel_bfs",
    "simulate_floods",
    "tree_edge_error",
]

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
        Derived lists are memoized apart from collected ones, so a tree
        that was built lazy keeps the shortcuts of the ``children_*``
        checks after a reader asks for its lists.
    rounds: rounds consumed by the simulation that produced this result
        (shared across channels when run in parallel).
    parent_edge: ``parent_edge[v]`` = host edge id of the tree edge
        ``(parent[v], v)``, ``-1`` at the root and at unreached nodes. Every
        producer fills it from the arc or port ``v`` adopted over, so the
        consumers that count, check or fault tree edges never look an edge
        up by its endpoints.
    """

    __slots__ = ("root", "parent", "dist", "rounds", "_children", "_derived", "parent_edge")

    def __init__(
        self,
        root: int,
        parent: np.ndarray,
        dist: np.ndarray,
        children: list[list[int]] | None,
        rounds: int,
        parent_edge: np.ndarray,
    ):
        self.root = root
        self.parent = parent
        self.dist = dist
        self.rounds = rounds
        self._children = children
        self._derived: list[list[int]] | None = None
        self.parent_edge = parent_edge

    def __repr__(self):
        return (
            f"BFSResult(root={self.root}, rounds={self.rounds}, "
            f"depth={self.depth}, n={len(self.parent)})"
        )

    @property
    def children(self) -> list[list[int]]:
        if self._children is not None:
            return self._children
        if self._derived is None:
            from repro.engine.kernels import children_lists

            self._derived = children_lists(np.asarray(self.parent, dtype=np.int64))
        return self._derived

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

    def children_follow_parents(self) -> bool:
        """Whether the child lists hold exactly the arcs ``parent`` implies.

        Lists derived from ``parent`` always do, so lazy ones are not built.
        Collected lists differ only under faults, where a dropped child
        notice leaves a child out: the simulator then never sends down
        that arc, while a closed form that reads ``parent`` would. Lists
        under their parents (:meth:`children_under_parents`) hold exactly
        those arcs when they list every child once.
        """
        if self._children is None:
            return True
        cind = self.children_as_csr()[1]
        parent = np.asarray(self.parent, dtype=np.int64)
        child = (parent >= 0) & (parent != np.arange(parent.size))
        return bool(
            self.children_under_parents()
            and self.children_listed_once()
            and cind.size == child.sum()
        )

    def children_listed_once(self) -> bool:
        """Whether no child list names a node twice; lists derived from
        ``parent`` never do."""
        if self._children is None:
            return True
        cind = self.children_as_csr()[1]
        return bool(np.unique(cind).size == cind.size)

    def children_under_parents(self) -> bool:
        """Whether every listed child's parent is the node that lists it,
        and no node lists itself.

        Lists derived from ``parent`` always hold this. A faulty flood's
        collected lists may leave a child out, never list another node's:
        down arcs then carry the child's own ``parent_edge``.
        """
        if self._children is None:
            return True
        cindptr, cind = self.children_as_csr()
        parent = np.asarray(self.parent, dtype=np.int64)
        lister = np.repeat(np.arange(parent.size), np.diff(cindptr))
        return bool(
            ((cind >= 0) & (cind < parent.size)).all()
            and np.array_equal(parent[cind], lister)
            and (cind != lister).all()
        )

    def layered(self) -> bool:
        """Whether ``dist`` is the BFS layering of ``parent``: 0 at a root,
        its parent's plus one at every other node ``parent`` reaches."""
        parent = np.asarray(self.parent, dtype=np.int64)
        dist = np.asarray(self.dist, dtype=np.int64)
        v = np.flatnonzero((parent >= 0) & (parent < parent.size))
        expected = np.where(parent[v] == v, 0, dist[parent[v]] + 1)
        return bool((dist[v] == expected).all())

    def single_rooted(self) -> bool:
        """Whether :attr:`root` is the only node that is its own parent."""
        parent = np.asarray(self.parent, dtype=np.int64)
        return np.array_equal(np.flatnonzero(parent == np.arange(parent.size)), [self.root])

    @property
    def depth(self) -> int:
        reached = self.dist[self.dist >= 0]
        return int(reached.max()) if reached.size else 0

    def spans(self) -> bool:
        """True iff every node was reached."""
        return bool((self.dist >= 0).all())


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
                msg = (_ANNOUNCE, channel, 0)
                for p in self._ports(ctx, channel):
                    ctx.send(p, msg)

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
            msg = (_ANNOUNCE, channel, d)
            for p in self._ports(ctx, channel):
                if p != pport:
                    ctx.send(p, msg)


def tree_edge_error(graph: Graph, parent, parent_edge) -> str | None:
    """Why ``parent_edge`` is not the tree's edge ids, or ``None``.

    Every node ``v`` whose parent is another node must carry the host edge
    ``{parent[v], v}``, and every other node ``-1``. One gather of
    ``edge_u``/``edge_v`` checks them all; the first fault, in node order,
    is named: a parent that is not a neighbor, or an id that names another
    edge.
    """
    parent = np.asarray(parent, dtype=np.int64)
    pe = np.asarray(parent_edge, dtype=np.int64)
    if pe.shape != parent.shape:
        return f"parent_edge has shape {pe.shape}, parent {parent.shape}"
    nodes = np.arange(parent.size)
    child = (parent >= 0) & (parent != nodes)
    vs = np.flatnonzero(child)
    ps, es = parent[vs], pe[vs]
    ok = (es >= 0) & (es < graph.m)
    e = es[ok]
    ok[ok] = (graph.edge_u[e] == np.minimum(ps[ok], vs[ok])) & (
        graph.edge_v[e] == np.maximum(ps[ok], vs[ok])
    )
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        v, p = int(vs[i]), int(ps[i])
        if not (p < graph.n and graph.has_edge(p, v)):
            return f"tree edge {{{p}, {v}}} is not an edge of the graph"
        return f"parent_edge[{v}] = {int(es[i])} is not the edge {{{p}, {v}}}"
    stray = np.flatnonzero(~child & (pe != -1))
    if stray.size:
        v = int(stray[0])
        return f"parent_edge[{v}] = {int(pe[v])} at a node without a parent"
    return None


def check_roots(graph: Graph, roots) -> list[int]:
    """BFS roots as Python ints in ``[0, n)``, else :class:`ValidationError`.

    Every flood entry point checks its roots here: integers (Python, numpy
    or bool) only, so a fractional root can neither be truncated nor flood
    nothing on one backend while it floods node 1 on the other.
    """
    arr = integer_ids(list(roots), "BFS roots")
    bad = arr[(arr < 0) | (arr >= graph.n)]
    if bad.size:
        raise ValidationError(f"root {bad[0]} out of range [0, {graph.n})")
    return arr.tolist()


def simulate_floods(
    graph: Graph,
    roots: list[int],
    masks: list[np.ndarray | None],
    simulator=Simulator,
    **sim_kwargs,
) -> tuple[list[BFSResult], Simulator]:
    """The simulator's flood driver: one channel per ``(roots[c], masks[c])``
    pair in one execution of ``simulator`` (``None`` = every port).

    Returns the per-channel results, which share the run's round count, and
    the simulator (a :class:`~repro.congest.faults.FaultySimulator` keeps
    its drop count and fault RNG there).
    """
    network = Network(graph)
    ports = [
        None if m is None else [network.ports_for_edges(v, m) for v in range(graph.n)]
        for m in masks
    ]
    channel_roots = dict(enumerate(roots))
    programs: list[BFSProgram] = []

    def factory(v: int) -> BFSProgram:
        prog = BFSProgram(
            v, channel_roots, {c: None if p is None else p[v] for c, p in enumerate(ports)}
        )
        programs.append(prog)
        return prog

    sim = simulator(network, factory, **sim_kwargs)
    rounds = sim.run().metrics.rounds
    results = []
    for channel, root in channel_roots.items():
        parent = np.full(graph.n, -1, dtype=np.int64)
        parent_edge = np.full(graph.n, -1, dtype=np.int64)
        dist = np.full(graph.n, -1, dtype=np.int64)
        children: list[list[int]] = [[] for _ in range(graph.n)]
        for v, prog in enumerate(programs):
            if channel in prog.dist:
                dist[v] = prog.dist[channel]
                pport = prog.parent_port[channel]
                if pport is None:
                    parent[v] = v
                else:
                    parent[v] = network.neighbor(v, pport)
                    parent_edge[v] = network.edge_of_port(v, pport)
            # Canonical child order (ascending id): CHILD notices all land in
            # the same round, so their relative order is an artifact of the
            # delivery loop, not of the protocol; sorting makes the two
            # backends bit-identical.
            children[v] = sorted(
                network.neighbor(v, p) for p in prog.child_ports.get(channel, [])
            )
        results.append(
            BFSResult(
                root=root,
                parent=parent,
                dist=dist,
                children=children,
                rounds=rounds,
                parent_edge=parent_edge,
            )
        )
    return results, sim


def run_bfs(
    graph: Graph,
    root: int,
    edge_mask: np.ndarray | None = None,
    backend: str = "simulator",
) -> BFSResult:
    """Run Lemma 2's BFS on ``graph`` (optionally restricted to an edge set).

    Returns a :class:`BFSResult`; ``result.rounds`` is the exact number of
    CONGEST rounds the flood took (depth + O(1)). ``backend="vectorized"``
    computes the identical result with numpy frontier sweeps. A batch of
    one (:func:`run_bfs_batch`).
    """
    return run_bfs_batch(graph, [root], edge_mask=edge_mask, backend=backend)[0]


def run_bfs_batch(
    graph: Graph,
    roots,
    edge_mask: np.ndarray | None = None,
    backend: str = "simulator",
) -> list[BFSResult]:
    """Answer many single-root BFS queries over one (masked) graph.

    Element ``i`` is the flood from ``roots[i]`` alone (parents, parent
    edges, dists, children, rounds). The simulator runs one execution per
    root. Under ``backend="vectorized"`` all distinct roots share one
    :func:`~repro.engine.plane.plane_sweep` — one call of the BFS layer
    loop over flat (query, node) keys, whose adopted arcs name the tree
    edges through the masked CSR's edge ids — and duplicate roots share
    read-only result rows. Rounds are depth + 1 (the deepest layer's
    child notices drain one round later), or 0 when the root has no usable
    port and the flood never starts.
    """
    from repro.engine import validate_backend

    root_list = check_roots(graph, roots)
    mask = None if edge_mask is None else np.asarray(edge_mask, dtype=bool)
    if validate_backend(backend) != "vectorized":
        return [simulate_floods(graph, [r], [mask])[0][0] for r in root_list]
    from repro.engine.plane import plane_sweep

    from repro.engine.kernels import arc_edge_ids

    indptr, indices, edge_ids = graph.masked_csr(mask)
    uniq, inverse = np.unique(np.asarray(root_list, dtype=np.int64), return_inverse=True)
    parent, dist, arc, rounds = plane_sweep(graph.n, indptr, indices, uniq)
    parent_edge = arc_edge_ids(edge_ids, arc)
    return [
        BFSResult(
            root=r,
            parent=parent[q],
            dist=dist[q],
            children=None,  # derived lazily from parent: identical lists
            rounds=int(rounds[q]),
            parent_edge=parent_edge[q],
        )
        for r, q in zip(root_list, inverse.tolist())
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
    ``backend="vectorized"`` computes identical results and round counts in
    one :func:`~repro.engine.plane.masked_union_bfs` sweep: all channels
    share one clock, the max channel depth + 1 — the Section 3.1 claim that
    edge-disjoint floods run concurrently for free.
    """
    from repro.engine import validate_backend

    validate_backend(backend)
    masks = [np.asarray(m, dtype=bool) for m in edge_masks]
    roots = [0] * len(masks) if roots is None else list(roots)
    if len(roots) != len(masks):
        raise ValidationError("need one root per channel")
    root_list = check_roots(graph, roots)
    # Each backend checks disjointness once: the union-CSR build labels
    # the edges anyway, and the simulator asks for the same labels.
    if backend == "vectorized":
        from repro.engine.plane import masked_union_bfs

        results = masked_union_bfs(graph, masks, root_list)
    else:
        graph.mask_labels(masks)
        results, _sim = simulate_floods(graph, root_list, masks)
    rounds = max((r.rounds for r in results), default=0)
    for r in results:
        r.rounds = rounds  # one joint execution: one clock
    return results, rounds
