"""Property-based equivalence: vectorized backend == simulator, bit for bit.

The vectorized engine (:mod:`repro.engine`) inherits the simulator's
certification *by testing*: these tests assert exact equality of parents,
dists, children, round counts, congestion, and message/bit totals across
random graphs, edge masks, and multi-channel configurations. Any divergence
is a bug in the fast path, never an accepted approximation.
"""

import copy
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apsp.spanner import _reference_spanner_edges
from repro.core.broadcast import (
    _bfs_view,
    _number_messages_batch,
    fast_broadcast,
    uniform_random_placement,
)
from repro.core.decomposition import random_partition
from repro.core.lambda_search import find_packing_unknown_lambda
from repro.core.tree_packing import build_packing_with_retry, build_tree_packing
from repro.engine import BACKENDS, validate_backend, verify
from repro.congest.adversary import FaultPlan
from repro.engine.fastpath import vectorized_numbering, vectorized_tree_broadcast
from repro.engine.faults import vectorized_faulty_broadcast
from repro.engine.pipelines import vectorized_spanner_edges
from repro.engine.verify import (
    EXEMPT,
    ROWS,
    Raised,
    boundary_hosts,
    check_apsp_pipeline,
    check_bfs,
    check_broadcast_pipeline,
    check_clustering,
    check_combined_broadcast,
    check_coverage_repair,
    check_cuts_pipeline,
    check_fault_paths,
    check_faulty_bfs,
    check_kernels,
    check_leader,
    check_numbering,
    check_parallel_bfs,
    check_redundant_broadcast,
    check_root_policies,
    check_spanner,
    check_sparsifier,
    check_tournament,
    check_tree_broadcast,
    check_unknown_lambda_broadcast,
    check_weighted_apsp,
    diff,
    first_port_parents,
    queue_bfs_dist,
    random_connected_graph,
    random_edge_masks,
    random_fault_plan,
    verify_boundaries,
    verify_equivalence,
)
from repro.engine.kernels import frontier_sweep
from repro.engine.plane import masked_union_bfs, plane_sweep
from repro.graphs import (
    Graph,
    cycle_graph,
    path_graph,
    path_of_cliques,
    random_weights,
    thick_cycle,
)
from repro.primitives.bfs import BFSResult, run_bfs, run_parallel_bfs
from repro.primitives.leader import elect_leader
from repro.primitives.numbering import assign_item_numbers
from repro.primitives.pipeline import run_tree_broadcast
from repro.primitives.scheduling import run_scheduled_broadcast
from repro.util.errors import BandwidthExceeded, ValidationError

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _parent_edges(graph: Graph, parent) -> np.ndarray:
    """The ``parent_edge`` a tree with these parents carries, looked up
    one node at a time: a hand-built tree's ids."""
    return np.array(
        [-1 if p in (-1, v) else graph.edge_id(p, v) for v, p in enumerate(parent)],
        dtype=np.int64,
    )


def _bent_tree(graph: Graph, bend: str) -> BFSResult:
    """Node 0's BFS tree on ``cycle_graph(6)`` bent one of five ways:
    every non-root ``dist`` one too deep (``deep``), node 3 made a second
    self-parent (``forest``), the ``root`` field relabelled to node 3
    (``root field``), node 3 re-parented to node 0 at depth 1 over the
    non-edge {0, 3} (``non-edge``), or node 3's ``parent_edge`` naming
    edge {3, 4} while its parent stays node 2 (``wrong edge id``). All
    but ``deep`` stay BFS-layered."""
    tree = run_bfs(graph, 0, backend="vectorized")
    if bend == "deep":
        return BFSResult(
            0, tree.parent, tree.dist + (tree.dist > 0), None, tree.rounds, tree.parent_edge
        )
    if bend == "forest":
        parent = np.array([0, 0, 1, 3, 3, 0])
        return BFSResult(
            0, parent, np.array([0, 1, 2, 0, 1, 1]), None, tree.rounds,
            _parent_edges(graph, parent),
        )
    if bend == "non-edge":
        parent, dist = tree.parent.copy(), tree.dist.copy()
        parent[3], dist[3] = 0, 1
        return BFSResult(0, parent, dist, None, tree.rounds, tree.parent_edge)
    if bend == "wrong edge id":
        parent_edge = tree.parent_edge.copy()
        parent_edge[3] = graph.edge_id(3, 4)
        return BFSResult(0, tree.parent, tree.dist, None, tree.rounds, parent_edge)
    return BFSResult(3, tree.parent, tree.dist, None, tree.rounds, tree.parent_edge)


class TestBFSEquivalence:
    @_SETTINGS
    @given(
        n=st.integers(2, 20),
        extra=st.integers(0, 24),
        seed=st.integers(0, 10_000),
        root_pick=st.integers(0, 1_000_000),
    )
    def test_single_channel(self, n, extra, seed, root_pick):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_bfs(g, root_pick % n) == []

    @_SETTINGS
    @given(
        n=st.integers(2, 18),
        extra=st.integers(0, 20),
        seed=st.integers(0, 10_000),
        parts=st.integers(1, 4),
    )
    def test_multi_channel_masks(self, n, extra, seed, parts):
        g = random_connected_graph(n, extra, seed=seed)
        masks = random_edge_masks(g, parts, seed=seed + 1)
        assert check_parallel_bfs(g, masks) == []
        # Masked single-channel BFS, including classes that may not span.
        assert check_bfs(g, 0, edge_mask=masks[0]) == []

    def test_single_node_graph(self):
        from repro.graphs import Graph

        g = Graph(1, [])
        assert check_bfs(g, 0) == []

    def test_disconnected_mask_exact_dists(self):
        g = thick_cycle(6, 3)
        mask = np.zeros(g.m, dtype=bool)
        mask[:4] = True
        assert check_bfs(g, 0, edge_mask=mask) == []

    def test_invalid_backend_rejected(self):
        g = thick_cycle(4, 3)
        with pytest.raises(ValidationError):
            run_bfs(g, 0, backend="gpu")
        assert validate_backend(BACKENDS[0]) == "simulator"


class TestPrologueEquivalence:
    @_SETTINGS
    @given(
        n=st.integers(2, 20),
        extra=st.integers(0, 24),
        seed=st.integers(0, 10_000),
    )
    def test_leader_election(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_leader(g) == []

    @_SETTINGS
    @given(
        n=st.integers(2, 18),
        extra=st.integers(0, 20),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    def test_numbering(self, n, extra, seed, data):
        g = random_connected_graph(n, extra, seed=seed)
        counts = data.draw(
            st.lists(st.integers(0, 5), min_size=n, max_size=n).map(np.asarray)
        )
        assert check_numbering(g, counts) == []

    @pytest.mark.parametrize("bend", ["deep", "forest", "root field"])
    def test_numbering_needs_one_root_and_layering(self, bend):
        """Lemma 3 numbering refuses a tree that is not singly rooted and
        BFS-layered, with one error on both backends. Before, on
        ``cycle_graph(6)`` with counts [1, 2, 0, 3, 1, 2], the too-deep tree
        took 6 rounds on the simulator and 8 vectorized; the forest made
        the simulator raise TypeError and the relabelled root
        ProtocolError, while the vectorized side raised a ValidationError
        of its own on both."""
        g = cycle_graph(6)
        tree = _bent_tree(g, bend)
        counts = np.array([1, 2, 0, 3, 1, 2])
        texts = []
        for number in (assign_item_numbers, vectorized_numbering):
            with pytest.raises(ValidationError) as err:
                number(g, tree, counts)
            texts.append(str(err.value))
        assert len(set(texts)) == 1 and "one root" in texts[0]


class TestPipelineEquivalence:
    @_SETTINGS
    @given(
        n=st.integers(2, 16),
        extra=st.integers(0, 18),
        seed=st.integers(0, 10_000),
        parts=st.integers(1, 3),
        k=st.integers(0, 30),
    )
    def test_tree_broadcast_rounds_and_metrics(self, n, extra, seed, parts, k):
        g = random_connected_graph(n, extra, seed=seed)
        masks = random_edge_masks(g, parts, seed=seed + 2)
        assert check_tree_broadcast(g, masks, k, seed=seed + 3) == []

    @pytest.mark.parametrize(
        "bend, messages, dead",
        [
            ("forest", {2: [1, 2], 4: [3]}, []),
            ("root field", {3: [1, 2], 4: [3]}, [(4, 5)]),
        ],
    )
    def test_tree_with_another_root_rejected(self, bend, messages, dead):
        """A channel tree must have one root, its ``root``: every Lemma 1
        entry point and the simulator's grid cell refuse a forest and a
        tree whose ``root`` is not its self-parent, with one error naming
        the channel. Before, on the forest, the simulator raised
        ProtocolError after the run (node 0 got 2/3), the closed form
        returned 6 rounds, and the faulty engine reported receipts
        [6, 6, 6] and 20 messages against the grid cell's [4, 4, 2] and 12.
        On the relabelled root with edge {4, 5} dead, the grid cell gave 7
        rounds, receipts [5, 5, 0], 17 messages and 3 drops, and the faulty
        engine 1 round, [1, 1, 0], 1 message and 1 drop."""
        from repro.congest.network import Network
        from repro.core.resilient import _simulate_cell

        g = cycle_graph(6)
        tree = _bent_tree(g, bend)
        plan = FaultPlan(dead_edges=frozenset(g.edge_id(u, v) for u, v in dead))
        mids = np.array([1, 2, 3])
        runs = [
            lambda: run_tree_broadcast(g, {0: tree}, {0: messages}),
            lambda: vectorized_tree_broadcast(g, {0: tree}, {0: messages}),
            lambda: run_scheduled_broadcast(g, {0: tree}, {0: messages}),
            lambda: vectorized_faulty_broadcast(g, {0: tree}, {0: messages}, plan),
            lambda: _simulate_cell(Network(g), {0: tree}, {0: messages}, mids, plan, 0, 0),
        ]
        texts = []
        for run in runs:
            with pytest.raises(ValidationError) as err:
                run()
            texts.append(str(err.value))
        assert len(set(texts)) == 1 and "channel 0" in texts[0] and "self-parent" in texts[0]

    @pytest.mark.parametrize(
        "bend, text",
        [
            ("non-edge", "tree edge {0, 3} is not an edge of the graph"),
            ("wrong edge id", "parent_edge[3] = 3 is not the edge {2, 3}"),
        ],
    )
    def test_tree_off_its_edges_rejected(self, bend, text):
        """A channel tree's edges must be host edges, and its
        ``parent_edge`` must name them: every Lemma 1 entry point and the
        simulator's grid cell refuse a layered tree over the non-edge
        {0, 3}, and one whose id for node 3 names another edge, with one
        error naming the channel. Before, on the non-edge, the three
        simulator paths raised "3 is not a neighbor of 0" and the two
        vectorized engines KeyError "no edge {0, 3}"."""
        from repro.congest.network import Network
        from repro.core.resilient import _simulate_cell

        g = cycle_graph(6)
        tree = _bent_tree(g, bend)
        assert tree.layered()
        messages = {2: [1, 2], 4: [3]}
        mids = np.array([1, 2, 3])
        runs = [
            lambda: run_tree_broadcast(g, {0: tree}, {0: messages}),
            lambda: vectorized_tree_broadcast(g, {0: tree}, {0: messages}),
            lambda: run_scheduled_broadcast(g, {0: tree}, {0: messages}),
            lambda: vectorized_faulty_broadcast(g, {0: tree}, {0: messages}),
            lambda: _simulate_cell(Network(g), {0: tree}, {0: messages}, mids, FaultPlan(), 0, 0),
        ]
        texts = []
        for run in runs:
            with pytest.raises(ValidationError) as err:
                run()
            texts.append(str(err.value))
        assert texts == [f"channel 0: {text}"] * len(runs)

    @pytest.mark.parametrize(
        "graph, placement, rounds",
        [
            (path_graph(10), {9: 10}, 27),
            (path_graph(10), {0: 10}, 18),
            (path_graph(10), dict.fromkeys(range(10), 1), 18),
            (Graph(1, []), {0: 3}, 2),
            (Graph(5, [(0, 1), (0, 2), (2, 3), (2, 4)]), {1: 5, 3: 5, 4: 5}, 17),
            (Graph(6, [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5)]), {1: 1, 5: 10}, 17),
        ],
        ids=["path-deep", "path-root", "path-spread", "n=1", "two-layers", "chain-and-leaf"],
    )
    def test_pinned_round_counts(self, graph, placement, rounds):
        """Lemma 1's exact count, depth(T) + max_d (d + N(≥ d)) − 1 over
        the depths d that hold messages, from node 0 on both backends and
        the faulty engine under a null plan. The last case is the one a
        count of k plus the deepest origin gets wrong: 1 message at depth 1
        and 10 at depth 4 finish in 4 + max(1 + 11, 4 + 10) − 1 = 17."""
        tree = run_bfs(graph, 0, backend="vectorized")
        messages, j = {}, 1
        for v, c in placement.items():
            messages[v] = list(range(j, j + c))
            j += c
        for run in (run_tree_broadcast, vectorized_tree_broadcast, vectorized_faulty_broadcast):
            assert run(graph, {0: tree}, {0: messages}).rounds == rounds

    def test_oversized_payload_raises_like_simulator(self):
        g = thick_cycle(4, 3)
        tree = run_bfs(g, 0, backend="vectorized")
        with pytest.raises(BandwidthExceeded):
            vectorized_tree_broadcast(g, {0: tree}, {0: {0: [1 << 62]}})

    def test_overlapping_trees_rejected(self):
        g = thick_cycle(4, 3)
        tree = run_bfs(g, 0, backend="vectorized")
        with pytest.raises(ValidationError):
            vectorized_tree_broadcast(g, {0: tree, 1: tree}, {0: {0: [1]}, 1: {0: [2]}})

    @pytest.mark.parametrize(
        "node, edit",
        [
            (1, lambda kids: kids.remove(2)),
            (1, lambda kids: kids.append(0)),
            (4, lambda kids: kids.append(9)),
        ],
        ids=["short", "root listed", "out of range"],
    )
    def test_child_lists_unlike_the_parents_rejected(self, node, edit):
        """A tree whose child lists are not the ones its parents imply (a
        faulty flood collects lists short of a child) is refused before
        anything runs by both fault-free Lemma 1 entry points and by the
        scheduler, with one error naming the channel. Before, on the short
        lists, the simulator raised ProtocolError mid-run on the left-out
        child's UP, while the vectorized side ran the tree from ``parent``
        (6 rounds, 13 messages). The faulty engine still takes short lists
        (test_child_lists_short_of_the_parents_are_touched)."""
        g = cycle_graph(6)
        full = run_bfs(g, 0, backend="vectorized")
        children = [list(c) for c in full.children]
        edit(children[node])
        tree = BFSResult(0, full.parent, full.dist, children, full.rounds, full.parent_edge)
        texts = []
        for run in (run_tree_broadcast, vectorized_tree_broadcast, run_scheduled_broadcast):
            with pytest.raises(ValidationError) as err:
                run(g, {7: tree}, {7: {0: [1], 3: [2]}})
            texts.append(str(err.value))
        assert len(set(texts)) == 1 and "channel 7" in texts[0]

    def test_lazy_child_lists_pass_unbuilt(self):
        """Child lists derived from ``parent`` follow it by construction, so
        the check never builds them."""
        g = thick_cycle(4, 3)
        tree = run_bfs(g, 0, backend="vectorized")
        out = vectorized_tree_broadcast(g, {0: tree}, {0: {5: [1, 2]}})
        assert out.k_total == 2 and tree._children is None

    def test_non_bfs_layered_tree_rejected(self):
        """A tree whose ``dist`` is not the layering of its parents is refused
        by both fault-free Lemma 1 entry points and by the scheduler, with
        one error naming the channel. Before, the simulator ran this
        instance (7 rounds, 16 messages) while the vectorized side raised
        an error that named no channel."""
        g = cycle_graph(6)
        tree = run_bfs(g, 0, backend="vectorized")
        tree.dist = tree.dist + (tree.dist > 0)  # non-roots one layer too deep
        texts = []
        for run in (run_tree_broadcast, vectorized_tree_broadcast, run_scheduled_broadcast):
            with pytest.raises(ValidationError) as err:
                run(g, {0: tree}, {0: {3: [1, 2]}})
            texts.append(str(err.value))
        assert len(set(texts)) == 1 and "channel 0" in texts[0] and "layering" in texts[0]

    @pytest.mark.parametrize(
        "messages, named",
        [
            ({-1: [5]}, "-1"),
            ({6: [5]}, "6"),
            ({2.5: [5]}, "2.5"),
            ({2: [1.5]}, "1.5"),
            ((np.array([-1]), np.array([5])), "-1"),
            ((np.array([6]), np.array([5])), "6"),
            ((np.array([2.5]), np.array([5])), "2.5"),
            ((np.array([2]), np.array([1.5])), "1.5"),
            ({0: [3, 3]}, "duplicate message ids"),
            ((np.array([0, 4]), np.array([3, 3])), "duplicate message ids"),
            pytest.param({0: [1 << 63]}, "fit in int64", id="i64-map"),
            pytest.param(
                (np.array([0]), np.array([1 << 63], dtype=np.uint64)),
                "fit in int64",
                id="i64-flat",
            ),
            pytest.param(
                (np.array([0]), np.array([[1, 2]])), "must be integers", id="ids-2d"
            ),
            pytest.param({0: [[1, 2]]}, "must be integers", id="ids-2d-map"),
            pytest.param({0: [[1, 2], 3]}, "must be integers", id="ids-ragged"),
            pytest.param({0: [1, [2]]}, "must be integers", id="ids-ragged-tail"),
            pytest.param(
                ([[0, 1], 2], np.array([1, 2])), "must be integers", id="origins-ragged"
            ),
            pytest.param(
                (np.array([0, 1]), np.array([1])),
                "one origin per message id",
                id="unaligned",
            ),
        ],
    )
    def test_malformed_messages_raise_alike(self, messages, named):
        """An origin outside [0, n), a fractional origin, a fractional id,
        an id placed twice on one channel and an id beyond int64 raise the
        same ValidationError on both backends and on the faulty engine.
        Before, the simulator missed the message or priced a float payload,
        while the vectorized side wrapped -1 to node 5, crashed on 6, ran
        2.5 from node 2 and priced the id 1.5 as 1; the faulty engine also
        merged the duplicate into one message. Ids beyond int64 were priced
        one by one on the fault-free backends (2⁶³ fits the budget from
        n = 257) and refused by the faulty engine alone; Lemma 3 numbers
        ids 1..k, so no caller produces one. A 2-D id array with one
        origin per row made the simulator raise TypeError, while both
        vectorized entry points ran it as one message; ragged ids or
        origins made all three raise numpy's ValueError. Ids and origins
        go through one flat-integer check, and a count mismatch between
        them is caught after it."""
        g = cycle_graph(6)
        tree = run_bfs(g, 0, backend="vectorized")
        texts = []
        for run in (run_tree_broadcast, vectorized_tree_broadcast, vectorized_faulty_broadcast):
            with pytest.raises(ValidationError) as err:
                run(g, {0: tree}, {0: messages})
            texts.append(str(err.value))
        assert texts[0] == texts[1] == texts[2] and named in texts[0]

    def test_faulty_engine_keeps_the_bandwidth_budget(self):
        """Id 2⁴⁰ costs 46 bits against a budget of 32 on six nodes: the
        faulty simulator raises on the root's first down-send, and so must
        the faulty engine, which used to run it."""
        from repro.congest.network import Network
        from repro.core.resilient import _simulate_cell

        g = cycle_graph(6)
        tree = run_bfs(g, 0, backend="vectorized")
        messages = {0: {0: [1 << 40]}}
        with pytest.raises(BandwidthExceeded):
            _simulate_cell(
                Network(g), {0: tree}, messages, np.array([1 << 40]), FaultPlan(), 0, 0
            )
        with pytest.raises(BandwidthExceeded, match="46 bits exceeds budget 32"):
            vectorized_faulty_broadcast(g, {0: tree}, messages)

    def test_faulty_engine_needs_int64_ids(self):
        """On one node nothing is sent, so no budget applies; an id beyond
        int64 is still refused, with one error text on all three entry
        points. Before, the two fault-free backends ran it and only the
        faulty engine, which indexes receipts by int64 id, refused it."""
        g = Graph(1, [])
        tree = run_bfs(g, 0, backend="vectorized")
        texts = []
        for run in (run_tree_broadcast, vectorized_tree_broadcast, vectorized_faulty_broadcast):
            with pytest.raises(ValidationError, match="int64") as err:
                run(g, {0: tree}, {0: {0: [1 << 70]}})
            texts.append(str(err.value))
        assert len(set(texts)) == 1


class TestFlatHandOff:
    """The broadcast tails hand Lemma 1 one flat ``(origins, ids)`` pair per
    channel; it must be the same input as the ``{node: [ids]}`` mapping."""

    @pytest.mark.parametrize("parts", [2, 3])
    def test_flat_form_matches_mapping(self, parts):
        g = thick_cycle(10, 6)
        packing, _ = build_packing_with_retry(g, parts, seed=1, distributed=False)
        trees = {c: _bfs_view(packing, c) for c in range(parts)}
        rng = np.random.default_rng(parts)
        origins = rng.integers(g.n, size=40)
        origins[:6] = trees[0].root  # messages held at the root
        ids = rng.permutation(40) + 1
        channel = ids % (parts - 1)  # the last channel carries nothing
        flat, mapping = {}, {}
        for c in range(parts):
            sel = channel == c
            flat[c] = (origins[sel], ids[sel])
            mapping[c] = {}
            for v, j in zip(origins[sel].tolist(), ids[sel].tolist()):
                mapping[c].setdefault(v, []).append(j)
        assert flat[parts - 1][1].size == 0
        want = run_tree_broadcast(g, trees, mapping)
        assert diff(vectorized_tree_broadcast(g, trees, mapping), want, "mapping") == []
        assert diff(vectorized_tree_broadcast(g, trees, flat), want, "flat") == []
        assert diff(run_tree_broadcast(g, trees, flat), want, "simulator-flat") == []


class TestPrologueElection:
    """The vectorized prologue floods once, from node 0, and reads the
    election off that tree: it must elect what the simulated min-id flood
    elects, in the same rounds, and fail with the same text."""

    @pytest.mark.parametrize("name", list(boundary_hosts()))
    def test_election_matches_simulator(self, name):
        host = boundary_hosts()[name]

        def prologue():
            leader, _tree, _starts, phases = _number_messages_batch(
                host, [{}], "vectorized"
            )[0]
            return leader, phases["leader_election"]

        assert diff(
            verify._outcome(prologue), verify._outcome(lambda: elect_leader(host)), name
        ) == []


class TestFrontierSweepTies:
    """On ``thick_cycle(12, 4)`` every node beyond the root's group has
    several tied previous-layer neighbors, so the adoption rule decides
    almost every parent: the minimum-scatter must pick the first port. The
    dists are compared with a plain-Python queue BFS, since
    ``bfs_distances`` returns the sweep's own ``dist``."""

    @staticmethod
    def _sweeps(g, keep, roots, union_roots):
        """``(label, parent, dist, indptr, indices, root)`` of one solo
        sweep, one plane over ``roots`` and one union over three disjoint
        classes, all on the CSR of the edges in ``keep``."""
        indptr, indices, _edge_ids = g.masked_csr(keep)
        parent, dist, _arc = frontier_sweep(g.n, indptr, indices, roots[1])
        yield "solo", parent, dist, indptr, indices, roots[1]
        parents, dists, _arcs, _rounds = plane_sweep(g.n, indptr, indices, roots)
        for q, r in enumerate(roots):
            yield f"plane[{q}]", parents[q], dists[q], indptr, indices, r
        masks = [(np.arange(g.m) % 3 == c) & keep for c in range(3)]
        for c, res in enumerate(masked_union_bfs(g, masks, union_roots)):
            sub = g.edge_subgraph(masks[c])
            yield f"union[{c}]", res.parent, res.dist, sub._indptr, sub._indices, res.root

    def test_solo_plane_and_union_adopt_first_port(self):
        g = thick_cycle(12, 4)
        everything = np.ones(g.m, dtype=bool)
        for label, parent, dist, indptr, indices, root in self._sweeps(
            g, everything, [0, 5, 17, 30, 47], [0, 13, 40]
        ):
            assert diff(dist, queue_bfs_dist(indptr, indices, root), f"{label}.dist") == []
            assert diff(parent, first_port_parents(indptr, indices, dist), label) == []

    def test_unreached_keys_get_no_parent(self):
        """Keeping only the edges among nodes 0–29 leaves nodes 30–47
        unreached from every root below 30, and everything but the root
        unreached from node 40: their parent is ``-1`` in every sweep, not
        the int64 maximum the scatter starts from."""
        g = thick_cycle(12, 4)
        keep = (g.edge_u < 30) & (g.edge_v < 30)
        unreached = 0
        for label, parent, dist, indptr, indices, root in self._sweeps(
            g, keep, [0, 5, 17, 40], [0, 13, 40]
        ):
            assert diff(dist, queue_bfs_dist(indptr, indices, root), f"{label}.dist") == []
            assert diff(parent, first_port_parents(indptr, indices, dist), label) == []
            assert (parent[dist < 0] == -1).all(), label
            unreached += int((dist < 0).sum())
        assert unreached >= 8 * 18  # nodes 30–47 in each of the 8 sweeps


class TestPackingEquivalence:
    def test_vectorized_packing_validates_and_matches(self):
        g = thick_cycle(10, 6)
        decomp = random_partition(g, 2, seed=4)
        sim = build_tree_packing(decomp, backend="simulator")
        vec = build_tree_packing(decomp, backend="vectorized")
        vec.validate()  # TreePacking certification of the fast path
        assert vec.is_edge_disjoint
        assert sim.construction_rounds == vec.construction_rounds
        assert np.array_equal(sim.edge_tree_count, vec.edge_tree_count)
        for a, b in zip(sim.trees, vec.trees):
            assert np.array_equal(a.parent, b.parent)
            assert np.array_equal(a.depth_of, b.depth_of)

    def test_unknown_lambda_search_same_trace(self):
        g = path_of_cliques(3, 8, 2)
        sim = find_packing_unknown_lambda(g, seed=2, C=1.0, backend="simulator")
        vec = find_packing_unknown_lambda(g, seed=2, C=1.0, backend="vectorized")
        assert sim.guesses == vec.guesses
        assert sim.validation_rounds == vec.validation_rounds
        assert sim.seeds == vec.seeds
        assert sim.accepted_guess == vec.accepted_guess
        assert sim.packing.construction_rounds == vec.packing.construction_rounds


class TestEndToEndBroadcast:
    def test_thick_cycle_ledgers_match(self):
        g = thick_cycle(8, 6)
        assert check_broadcast_pipeline(g, 40, seed=5, lam=12) == []

    @_SETTINGS
    @given(
        n=st.integers(4, 14),
        extra=st.integers(4, 20),
        seed=st.integers(0, 10_000),
        k=st.integers(1, 20),
    )
    def test_random_graph_ledgers_match(self, n, extra, seed, k):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_broadcast_pipeline(g, k, seed=seed) == []

    def test_combined_broadcast_winner_and_ledgers_match(self):
        g = thick_cycle(8, 6)
        assert check_combined_broadcast(g, 24, seed=7) == []

    @_SETTINGS
    @given(
        n=st.integers(4, 12),
        extra=st.integers(4, 16),
        seed=st.integers(0, 10_000),
        k=st.integers(1, 12),
    )
    def test_combined_broadcast_random_graphs(self, n, extra, seed, k):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_combined_broadcast(g, k, seed=seed) == []

    def test_unknown_lambda_trace_matches(self):
        g = thick_cycle(6, 5)
        assert check_unknown_lambda_broadcast(g, 12, seed=3) == []

    def test_weighted_apsp_ledgers_match(self):
        g = random_weights(thick_cycle(6, 5), seed=2)
        assert check_weighted_apsp(g, 2, seed=4) == []

    def test_vectorized_fast_broadcast_delivers(self):
        g = thick_cycle(10, 8)
        pl = uniform_random_placement(g.n, 60, seed=9)
        res = fast_broadcast(g, pl, lam=16, C=1.5, seed=3, backend="vectorized")
        assert res.delivered and res.k == 60
        assert res.rounds == sum(res.phases.values())


class _CountedDraws:
    """A generator stand-in that records the size of every ``random`` draw."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.sizes: list[int] = []

    def random(self, size: int) -> np.ndarray:
        self.sizes.append(size)
        return self.rng.random(size)


class TestPipelineTwins:
    """APSP + cut-sparsifier vectorized paths: bit-identical to the loops."""

    @_SETTINGS
    @given(
        n=st.integers(6, 24),
        extra=st.integers(4, 30),
        seed=st.integers(0, 10_000),
    )
    def test_clustering_port_matches_reference(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_clustering(g, seed=seed + 1) == []

    @_SETTINGS
    @given(
        n=st.integers(2, 24),
        extra=st.integers(0, 30),
        seed=st.integers(0, 10_000),
        k=st.integers(2, 8),
        weighted=st.booleans(),
        high=st.sampled_from((2, 100)),
    )
    def test_spanner_backends_identical(self, n, extra, seed, k, weighted, high):
        # Weights in {1, 2} make (w, eid) ties common; 1–100 rarely tie.
        # k reaches 8, the k of the benchmark's cut sparsifier on n = 2000.
        g = random_connected_graph(n, extra, seed=seed)
        if weighted:
            g = random_weights(g, high=high, seed=seed + 1)
        assert check_spanner(g, k, seed=seed + 2) == []

    @pytest.mark.parametrize(
        "p, k, sizes",
        [
            pytest.param(0.0, 2, [30], id="none-sampled"),
            pytest.param(1.0, 4, [30, 30, 30], id="all-sampled"),
            pytest.param(0.0, 5, [30, 0, 0, 0], id="no-live-cluster"),
            pytest.param(0.4, 8, [30, 10, 7, 2, 0, 0, 0], id="k8"),
        ],
    )
    def test_spanner_phase_extremes(self, p, k, sizes):
        """Both spanner paths, called with one p on a tie-heavy host. At
        p = 0 no cluster is sampled, every node leaves in phase 1, and each
        later phase draws ``rng.random(0)``; at p = 1 every cluster is
        sampled and no node decides; at k = 8 the last cluster dies in
        phase 4. Each path must draw one coin per live cluster per phase
        (``sizes``), keep the same edge ids and leave the generator in the
        same state."""
        g = random_weights(random_connected_graph(30, 60, seed=4), high=2, seed=5)
        outs = []
        for build in (_reference_spanner_edges, vectorized_spanner_edges):
            rng = _CountedDraws(np.random.default_rng(7))
            ids = build(g, k, rng, p)
            outs.append((ids, ids.dtype, rng.sizes, rng.rng.bit_generator.state))
        assert diff(outs[0], outs[1]) == []
        assert outs[0][2] == sizes

    @_SETTINGS
    @given(
        n=st.integers(4, 20),
        extra=st.integers(10, 40),
        seed=st.integers(0, 10_000),
        weighted=st.booleans(),
        high=st.sampled_from((2, 100)),
    )
    def test_sparsifier_backends_identical(self, n, extra, seed, weighted, high):
        g = random_connected_graph(n, extra, seed=seed)
        if weighted:
            g = random_weights(g, high=high, seed=seed + 1)
        assert check_sparsifier(g, eps=0.5, seed=seed + 2, tau=2) == []

    def test_clustering_exhaustion_fails_alike(self):
        # c = 0.05 samples too few centers on this host for any of the 20
        # attempts: the port and the replay must raise the same message.
        from repro.apsp.clustering import build_clustering

        g = thick_cycle(6, 8)
        with pytest.raises(ValidationError, match="clustering failed"):
            build_clustering(g, c=0.05, seed=1)
        assert check_clustering(g, seed=1, c=0.05) == []

    def test_apsp_pipeline_ledgers_match(self):
        g = thick_cycle(8, 6)
        assert check_apsp_pipeline(g, seed=5, lam=12) == []

    def test_cuts_pipeline_ledgers_match(self):
        g = thick_cycle(8, 6)
        assert check_cuts_pipeline(g, eps=0.4, seed=6, lam=12, tau=2) == []

    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_random_apsp_and_cuts_pipelines(self, seed):
        g = random_connected_graph(10 + seed % 8, 20, seed=seed)
        assert check_apsp_pipeline(g, seed=seed + 1) == []
        assert check_cuts_pipeline(g, eps=0.5, seed=seed + 2, tau=2) == []


class TestAwkwardInputs:
    """The inputs the randomized sweep rarely produces (ISSUE 2 satellite)."""

    def test_disconnected_graph_bfs(self):
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
        assert check_bfs(g, 0) == []
        assert check_bfs(g, 3) == []

    def test_masked_bfs_with_isolated_last_node(self):
        # Node 3 has no edges and node 2 has two: the masked CSR must still
        # end node 2's block after both of its arcs.
        g = Graph(4, [(0, 2), (1, 2)])
        full = np.ones(g.m, dtype=bool)
        assert check_bfs(g, 0, edge_mask=full) == []
        assert np.array_equal(g.masked_csr(full)[0], g._indptr)
        halves = [np.array([True, False]), np.array([False, True])]
        indptr, indices, _arc_class = g.disjoint_masked_csrs(halves)
        for c, mask in enumerate(halves):
            sub = g.edge_subgraph(mask)
            block = indptr[c * g.n : (c + 1) * g.n + 1]
            assert np.array_equal(block - block[0], sub._indptr)
            assert np.array_equal(indices[block[0] : block[-1]] - c * g.n, sub._indices)

    def test_disconnected_graph_spanner(self):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
        assert check_spanner(g, 2, seed=3) == []
        assert check_spanner(g, 3, seed=4) == []

    def test_weighted_graph_bfs_ignores_weights(self):
        g = random_weights(thick_cycle(5, 3), seed=2)
        assert check_bfs(g, 4) == []
        masks = random_edge_masks(g, 2, seed=3)
        assert check_parallel_bfs(g, masks) == []

    def test_weighted_sparsifier_weighted_host(self):
        g = random_weights(random_connected_graph(14, 40, seed=9), seed=10)
        assert check_sparsifier(g, eps=0.5, seed=11, tau=2) == []

    def test_single_node_graph_everywhere(self):
        g = Graph(1, [])
        assert check_bfs(g, 0) == []
        assert check_spanner(g, 2, seed=1) == []
        assert check_sparsifier(g, eps=0.5, seed=2, tau=1) == []
        # Pipelined broadcast degenerates to the root popping its own queue.
        tree = run_bfs(g, 0, backend="vectorized")
        out = vectorized_tree_broadcast(g, {0: tree}, {0: {0: [1, 2, 3]}})
        assert out.rounds == 2 and out.k_total == 3
        # Parallel BFS over the one empty edge mask, and the packing and
        # fast broadcast built on it, run and agree on both backends.
        assert check_parallel_bfs(g, [np.zeros(0, dtype=bool)]) == []
        runs = {}
        for backend in BACKENDS:
            packing = build_tree_packing(random_partition(g, 1, seed=0), backend=backend)
            retried, attempts = build_packing_with_retry(g, 1, seed=0, backend=backend)
            fast = fast_broadcast(g, {0: 3}, lam=1, backend=backend)
            runs[backend] = (
                packing.construction_rounds,
                retried.construction_rounds,
                attempts,
                fast.phases,
                fast.max_congestion,
            )
        assert runs["simulator"] == runs["vectorized"]

    def test_all_masked_edge_set(self):
        g = thick_cycle(5, 3)
        empty = np.zeros(g.m, dtype=bool)
        assert check_bfs(g, 0, edge_mask=empty) == []
        assert check_parallel_bfs(g, [empty, empty.copy()]) == []

    def test_full_mask_equals_unmasked(self):
        g = thick_cycle(5, 3)
        full = np.ones(g.m, dtype=bool)
        a = run_bfs(g, 2, edge_mask=full, backend="vectorized")
        b = run_bfs(g, 2, backend="vectorized")
        assert np.array_equal(a.parent, b.parent) and a.rounds == b.rounds


class TestMaskedCSRMemoization:
    def test_cache_hit_on_repeated_mask(self):
        g = thick_cycle(6, 4)
        mask = random_edge_masks(g, 2, seed=1)[0]
        indptr1, indices1, eids1 = g.masked_csr(mask)
        assert g.masked_csr_hits == 0
        indptr2, indices2, eids2 = g.masked_csr(mask.copy())  # equal content, new array
        assert g.masked_csr_hits == 1
        assert indptr1 is indptr2 and indices1 is indices2 and eids1 is eids2
        # A different mask is a different cache entry, not a stale hit.
        other = ~mask
        indptr3, _, _ = g.masked_csr(other)
        assert g.masked_csr_hits == 1
        assert not np.array_equal(indptr1, indptr3)

    # Parallel BFS sweeps each decomposition once, so its channel CSRs are
    # built fresh by ``disjoint_masked_csrs`` and never memoized: a repeat
    # run rebuilds them to the same result and leaves the memo empty. The
    # two tests keep their historical IDs from when these runs hit the memo.
    @staticmethod
    def _assert_repeat_run_rebuilds(parts):
        g = thick_cycle(6, 4)
        masks = random_edge_masks(g, parts, seed=2)
        first, first_rounds = run_parallel_bfs(g, masks, backend="vectorized")
        again, again_rounds = run_parallel_bfs(g, masks, backend="vectorized")
        assert first_rounds == again_rounds
        for a, b in zip(first, again, strict=True):
            assert np.array_equal(a.parent, b.parent)
            assert np.array_equal(a.dist, b.dist) and a.rounds == b.rounds
        assert g._cache == {} and g.masked_csr_hits == 0

    def test_parallel_bfs_reuses_cached_csr(self):
        self._assert_repeat_run_rebuilds(1)

    def test_batched_parallel_bfs_reuses_cached_csr(self):
        self._assert_repeat_run_rebuilds(3)

    def test_none_mask_is_not_cached_copy(self):
        g = thick_cycle(6, 4)
        indptr, indices, edge_ids = g.masked_csr(None)
        assert indptr is g._indptr and indices is g._indices and edge_ids is g._adj_edge_id
        assert g.masked_csr_hits == 0


class TestFaultEngineEquivalence:
    """Fault-aware engine (ISSUE 5): drops, receipts, and the fault RNG
    stream must be bit-identical to the FaultySimulator execution."""

    @_SETTINGS
    @given(
        n=st.integers(2, 20),
        extra=st.integers(0, 24),
        seed=st.integers(0, 10_000),
        rate=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        masked=st.booleans(),
    )
    def test_faulty_bfs_backends_identical(self, n, extra, seed, rate, masked):
        g = random_connected_graph(n, extra, seed=seed)
        plan = random_fault_plan(g, seed=seed + 1, rate=rate)
        mask = random_edge_masks(g, 2, seed=seed + 2)[0] if masked else None
        assert check_faulty_bfs(g, seed % n, plan, fault_seed=seed, edge_mask=mask) == []

    @_SETTINGS
    @given(
        n=st.integers(4, 16),
        extra=st.integers(4, 24),
        seed=st.integers(0, 10_000),
        k=st.integers(0, 20),
        parts=st.integers(1, 3),
        redundancy=st.integers(1, 3),
    )
    def test_redundant_broadcast_backends_identical(
        self, n, extra, seed, k, parts, redundancy
    ):
        g = random_connected_graph(n, extra, seed=seed)
        assert (
            check_redundant_broadcast(
                g, k, seed=seed, parts=parts, redundancy=redundancy
            )
            == []
        )

    def test_every_adversary_type_on_a_packing_host(self):
        """The acceptance sweep: each AdversarySchedule flavor, both
        backends, exact DeliveryReport + RNG-state equality."""
        from repro.congest.adversary import (
            MobileAdversary,
            RandomLoss,
            StaticSaboteur,
            TargetedCutAdversary,
            compose_schedules,
        )
        from repro.core import (
            build_packing_with_retry,
            redundant_broadcast,
            tree_edge_ids,
            uniform_random_placement,
        )

        g = thick_cycle(8, 5)
        packing, _ = build_packing_with_retry(g, 3, seed=1, distributed=False)
        pl = uniform_random_placement(g.n, 30, seed=2)
        # A mobile adversary over trees 0 and 1 for the whole run hits late
        # downcast crossings, including arcs of tree 0 that are already dead.
        run = redundant_broadcast(
            g, pl, packing, redundancy=2, seed=4, backend="vectorized"
        ).rounds
        pool = sorted(tree_edge_ids(packing, 0) | tree_edge_ids(packing, 1))
        dead_and_mobile = StaticSaboteur(tree_index=0) + MobileAdversary.sweeping(
            pool, budget=6, rounds=2 * run
        )
        schedules = [
            None,
            StaticSaboteur(tree_index=0),
            MobileAdversary.sweeping(range(g.m), budget=6, rounds=12),
            RandomLoss(0.2),
            RandomLoss(1.0),
            TargetedCutAdversary(eps=0.5, budget=4, candidates=4, seed=3, tau=2),
            StaticSaboteur(tree_index=1) + RandomLoss(0.1),
            compose_schedules(
                MobileAdversary({2: {0, 1}}), RandomLoss(0.05), StaticSaboteur({5})
            ),
            dead_and_mobile,
            dead_and_mobile + RandomLoss(0.2),  # the same, on the replay
            # Half of tree 0 dead: mobile hits on dead arcs whose parent
            # holds the emission must not count a second drop.
            StaticSaboteur(sorted(tree_edge_ids(packing, 0))[::2])
            + MobileAdversary.sweeping(pool, budget=6, rounds=2 * run),
        ]
        for adv in schedules:
            reports = {
                backend: redundant_broadcast(
                    g,
                    pl,
                    packing,
                    redundancy=2,
                    adversary=adv,
                    seed=4,
                    fault_seed=5,
                    backend=backend,
                    collect_receipts=True,
                )
                for backend in BACKENDS
            }
            sim, vec = reports["simulator"], reports["vectorized"]
            assert sim.rounds == vec.rounds, adv
            assert sim.dropped_messages == vec.dropped_messages, adv
            assert sim.per_message_coverage == vec.per_message_coverage, adv
            assert sim.receipts == vec.receipts, adv
            assert sim.fault_rng_state == vec.fault_rng_state, adv
            assert (sim.total_messages, sim.total_bits) == (
                vec.total_messages,
                vec.total_bits,
            ), adv

    def test_untouched_channels_take_the_closed_form(self, monkeypatch):
        """At rate 0 only the trees the plan touches run the span path; the
        others take Lemma 1's closed form. A spy on the span path sees the
        touched trees of each cell, and the whole reports, receipts
        included, equal the simulator's."""
        from repro.congest.adversary import MobileAdversary
        from repro.core import FaultCell, evaluate_fault_grid, tree_edge_ids
        from repro.engine import faults

        g = thick_cycle(10, 6)
        packing, _ = build_packing_with_retry(g, 3, seed=1, distributed=False)
        edges = [tree_edge_ids(packing, c) for c in range(3)]
        placement = uniform_random_placement(g.n, 30, seed=2)
        run = evaluate_fault_grid(
            g, placement, packing, [FaultCell(redundancy=2)], seed=4
        )[0].rounds
        prefix = sorted(edges[0])[: len(edges[0]) // 2]

        def sweep(c):
            return MobileAdversary.sweeping(sorted(edges[c]), budget=4, rounds=run)

        cells = [
            FaultCell(redundancy=2),
            FaultCell(redundancy=1, dead_edges=prefix),
            FaultCell(redundancy=2, dead_edges=prefix),
            FaultCell(redundancy=2, adversary=sweep(1)),
            FaultCell(redundancy=2, dead_edges=sorted(edges[0]), adversary=sweep(2)),
        ]
        seen = []
        span = faults._span_faulty_broadcast

        def spy(n, chans, *rest):
            trees = [set(st.up_eid[st.up_eid >= 0].tolist()) for st in chans]
            seen.append([edges.index(t) for t in trees])
            return span(n, chans, *rest)

        monkeypatch.setattr(faults, "_span_faulty_broadcast", spy)
        reports = {
            b: evaluate_fault_grid(
                g, placement, packing, cells, seed=4, backend=b, collect_receipts=True
            )
            for b in BACKENDS
        }
        assert seen == [[], [0], [0], [1], [0, 2]]
        assert diff(reports["vectorized"], reports["simulator"], "grid") == []
        assert reports["vectorized"][3].dropped_messages > 0

    def test_child_lists_short_of_the_parents_are_touched(self):
        """Under faults a dropped child notice leaves a child off its
        parent's list, and the simulator never sends down that arc. Such a
        tree cannot take the closed form, which reads ``parent``."""
        from repro.congest.network import Network
        from repro.core.resilient import _simulate_cell

        g = cycle_graph(6)
        full = run_bfs(g, 0, backend="vectorized")
        children = [list(c) for c in full.children]
        children[1].remove(2)
        tree = BFSResult(0, full.parent, full.dist, children, full.rounds, full.parent_edge)
        messages = {0: {0: [1], 3: [2]}}
        vec = vectorized_faulty_broadcast(g, {0: tree}, messages)
        sim = _simulate_cell(
            Network(g), {0: tree}, messages, np.array([1, 2]), FaultPlan(), 0, 0
        )
        assert diff(vec, sim, "tree") == []
        assert vec.receipt_counts.tolist() == [4, 4]

    @pytest.mark.parametrize("lister", [5, 4])
    def test_child_list_naming_another_nodes_child_rejected(self, lister):
        """A collected child list may leave a child out but not list
        another node's child: both faulty paths refuse node 3 (whose parent
        is node 2) on node ``lister``'s list with one error naming the
        channel. Before, over the non-edge {5, 3} the simulator's grid cell
        raised "3 is not a neighbor of 5" and the faulty engine KeyError;
        over the edge {4, 3} the grid cell raised ProtocolError mid-run
        ("DOWN on non-parent port") and the faulty engine delivered."""
        from repro.congest.network import Network
        from repro.core.resilient import _simulate_cell

        g = cycle_graph(6)
        full = run_bfs(g, 0, backend="vectorized")
        children = [list(c) for c in full.children]
        children[lister] = sorted(children[lister] + [3])
        tree = BFSResult(0, full.parent, full.dist, children, full.rounds, full.parent_edge)
        messages = {0: {0: [1], 3: [2]}}
        texts = []
        for run in (
            lambda: vectorized_faulty_broadcast(g, {0: tree}, messages),
            lambda: _simulate_cell(
                Network(g), {0: tree}, messages, np.array([1, 2]), FaultPlan(), 0, 0
            ),
        ):
            with pytest.raises(ValidationError) as err:
                run()
            texts.append(str(err.value))
        assert texts == ["channel 0: a tree child list names a node whose parent is another"] * 2

    def test_child_listed_twice_rejected(self):
        """A child list that names node 2 twice, under its own parent, is
        refused by both faulty paths with one error naming the channel.
        Before, a lossy cell's simulator raised BandwidthExceeded mid-run
        (node 1 sent twice over one port in a round) and the faulty engine
        delivered."""
        from repro.congest.network import Network
        from repro.core.resilient import _simulate_cell

        g = cycle_graph(6)
        full = run_bfs(g, 0, backend="vectorized")
        children = [list(c) for c in full.children]
        children[1] = children[1] * 2
        tree = BFSResult(0, full.parent, full.dist, children, full.rounds, full.parent_edge)
        messages, plan = {0: {3: [10, 11], 4: [12]}}, FaultPlan(drop_rate=0.3)
        texts = []
        for run in (
            lambda: vectorized_faulty_broadcast(g, {0: tree}, messages, plan, 1),
            lambda: _simulate_cell(
                Network(g), {0: tree}, messages, np.array([10, 11, 12]), plan, 1, 0
            ),
        ):
            with pytest.raises(ValidationError) as err:
                run()
            texts.append(str(err.value))
        assert texts == ["channel 0: a tree child list names a node twice"] * 2

    @pytest.mark.parametrize("shape", [(10, 6), (8, 5)])
    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_null_plan_is_the_lemma1_pipeline(self, shape, parts):
        """Under ``FaultPlan()`` the faulty engine is the fault-free Lemma 1
        pipeline: its rounds, messages and bits equal both Lemma 1 entry
        points', it drops nothing, and every receipt row is full."""
        g = thick_cycle(*shape)
        packing, _ = build_packing_with_retry(g, parts, seed=1, distributed=False)
        trees = {c: _bfs_view(packing, c) for c in range(parts)}
        rng = np.random.default_rng(parts)
        k = 3 * g.n
        origins = rng.integers(g.n, size=k)
        ids = rng.permutation(k) + 1
        messages = {c: (origins[ids % parts == c], ids[ids % parts == c]) for c in range(parts)}
        fault = vectorized_faulty_broadcast(g, trees, messages, plan=FaultPlan())
        for lemma1 in (vectorized_tree_broadcast, run_tree_broadcast):
            out = lemma1(g, trees, messages)
            assert (fault.rounds, fault.total_messages, fault.total_bits) == (
                out.rounds,
                out.metrics.total_messages,
                out.metrics.total_bits,
            )
        assert fault.dropped == 0
        assert fault.receipt_counts.tolist() == [g.n] * k

    @pytest.mark.parametrize("rate", [0.0, 0.01])
    def test_one_message_reaches_two_roots_in_one_receipt_byte(self, rate):
        """Roots 0 and 1 share a byte of the receipt matrix. The message at
        node 6 (depth 1 in both trees) reaches both roots in round 1, so
        one receipt write sets two bits of one byte. Killing the arc into
        each root in the other tree leaves that write as the only way the
        roots receive it. Rate 0 takes the span path, 0.01 the replay; only
        the replay has no second record of a root's up arrivals (the span
        path's downcast marks every emission as received by its root)."""
        from repro.core import build_packing_with_retry, redundant_broadcast
        from repro.core.resilient import _bfs_view

        g = thick_cycle(8, 5)
        packing, _ = build_packing_with_retry(
            g, 2, seed=1, distributed=False, roots=[0, 1]
        )
        views = [_bfs_view(packing, c) for c in (0, 1)]
        assert [int(t.dist[6]) for t in views] == [1, 1]
        dead = [g.edge_id(int(views[1 - r].parent[r]), r) for r in (0, 1)]
        reports = {
            backend: redundant_broadcast(
                g,
                {6: 1},
                packing,
                redundancy=2,
                dead_edges=dead,
                drop_rate=rate,
                seed=4,
                fault_seed=5,
                backend=backend,
                collect_receipts=True,
            )
            for backend in BACKENDS
        }
        sim, vec = reports["simulator"], reports["vectorized"]
        assert {0, 1} <= next(iter(sim.receipts.values()))
        assert sim.receipts == vec.receipts
        assert (sim.rounds, sim.dropped_messages) == (vec.rounds, vec.dropped_messages)
        assert sim.fault_rng_state == vec.fault_rng_state


class TestRobustnessEquivalence:
    """ISSUE 7: multi-root packings, the repair loop, and the tournament
    surface must be bit-identical across backends."""

    @_SETTINGS
    @given(
        n=st.integers(4, 18),
        extra=st.integers(4, 24),
        seed=st.integers(0, 10_000),
        parts=st.integers(1, 3),
    )
    def test_root_policies_backends_identical(self, n, extra, seed, parts):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_root_policies(g, parts, seed=seed + 1) == []

    @_SETTINGS
    @given(
        n=st.integers(4, 16),
        extra=st.integers(4, 24),
        seed=st.integers(0, 10_000),
        k=st.integers(0, 20),
        parts=st.integers(1, 3),
    )
    def test_coverage_repair_backends_identical(self, n, extra, seed, k, parts):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_coverage_repair(g, k, seed=seed + 1, parts=parts) == []

    def test_tournament_payloads_identical(self):
        assert check_tournament(thick_cycle(8, 5), 24, seed=3) == []

    def test_tournament_full_grid_on_packing_host(self):
        """Every registered adversary x a policy-diverse defense slate."""
        from repro.congest.tournament import (
            DEFAULT_ADVERSARIES,
            run_tournament,
        )
        from repro.engine import BACKENDS

        g = thick_cycle(8, 5)
        payloads = {}
        for backend in BACKENDS:
            res = run_tournament(
                g, 24, parts=3,
                adversaries=list(DEFAULT_ADVERSARIES),
                defenses=["shared-r1", "spread-r2", "cut-aware-r2"],
                seed=2, backend=backend, mobile_rounds=64,
            )
            pay = res.to_payload()
            assert pay.pop("backend") == backend
            payloads[backend] = pay
        assert payloads["simulator"] == payloads["vectorized"]


class TestStepStrategyEquivalence:
    """The span-batched engine paths against the simulator: one
    deterministic anchor here; the randomized property suite lives in
    ``tests/test_span_engine.py``."""

    def test_step_checks_on_packing_host(self):
        g = thick_cycle(8, 5)
        masks = random_edge_masks(g, 2, seed=3)
        assert check_tree_broadcast(g, masks, 20, seed=4) == []
        assert check_kernels(g, seed=4) == []
        assert check_fault_paths(g, 20, seed=5, parts=2) == []


@functools.lru_cache(maxsize=None)
def _tier1_sweep():
    """The tier-1 sweep and the boundary matrix, run once for the tests that
    read their mismatches and their golden digests."""
    digests: dict[str, str] = {}
    report = verify_equivalence(trials=6, seed=11, max_n=20, digests=digests)
    return report, verify_boundaries(digests), digests


class TestHarnessSweep:
    def test_randomized_sweep_is_clean(self):
        report = _tier1_sweep()[0]
        assert report.checks == 6 * len(ROWS)
        assert report.ok, report.mismatches

    def test_boundary_matrix_is_clean(self):
        assert _tier1_sweep()[1] == []


class TestStructuralDiff:
    """:func:`repro.engine.verify.diff`, the one comparison every check uses."""

    def test_type_and_dtype_mismatches(self):
        assert diff(1, 1.0, "x") == ["x: int != float"]
        assert diff(np.int64(1), 1, "x") == ["x: int64 != int"]
        a = np.arange(3, dtype=np.int64)
        assert diff(a, a.astype(np.int32), "x") == ["x: int64[3] != int32[3]"]
        assert diff(a, a[:2], "x") == ["x: int64[3] != int64[2]"]
        assert diff(a, a + (a == 2), "x") == ["x: arrays differ"]

    def test_nan_equals_nan(self):
        nan = float("nan")
        assert diff(nan, nan) == []
        assert diff(np.array([1.0, nan]), np.array([1.0, nan])) == []
        assert diff([nan, 1.0], [nan, 2.0], "x") == ["x[1]: 1.0 != 2.0"]

    def test_dicts_compare_by_key(self):
        assert diff({"a": 1, "b": 2}, {"b": 2, "a": 1}) == []
        assert diff({1: 0, 2: 0}, {1: 0, 3: 0}, "d") == [
            "d: keys ['2', '3'] on one side only"
        ]

    def test_nested_paths(self):
        outer = dataclasses.make_dataclass("Outer", ["ledger", "trees"])
        a = outer({"pipeline": [1, 2]}, (np.zeros(2), {0: frozenset({1})}))
        b = outer({"pipeline": [1, 3]}, (np.ones(2), {0: frozenset({2})}))
        assert diff(a, b, "r") == [
            "r.ledger['pipeline'][1]: 2 != 3",
            "r.trees[0]: arrays differ",
            "r.trees[1][0]: frozenset({1}) != frozenset({2})",
        ]

    def test_views_of_graph_and_bfs_result(self):
        g = thick_cycle(4, 3)
        assert diff(g, random_weights(g, seed=1), "g") == ["g.weights: NoneType != ndarray"]
        sim = run_bfs(g, 0, backend="simulator")
        vec = run_bfs(g, 0, backend="vectorized")  # lazy child lists
        assert diff(sim, vec) == []
        vec._children = [list(reversed(c)) for c in vec.children]
        mismatches = diff(sim, vec, "t")
        assert mismatches and all(m.startswith("t.children[") for m in mismatches)

    def test_only_the_backend_tag_is_exempt(self):
        assert EXEMPT == {"backend"}
        tagged = dataclasses.make_dataclass("Tagged", ["backend", "rounds"])
        assert diff(tagged("simulator", 3), tagged("vectorized", 3)) == []
        assert diff(tagged("simulator", 3), tagged("vectorized", 4), "r") == [
            "r.rounds: 3 != 4"
        ]

    def test_an_added_field_is_compared_without_editing_the_differ(self):
        base = dataclasses.make_dataclass("Result", ["rounds"])
        grown = dataclasses.make_dataclass(
            "Result", ["rounds", ("added", dict, dataclasses.field(default_factory=dict))]
        )
        assert diff(base(3), base(3)) == []
        assert diff(grown(3, {"x": 1}), grown(3, {"x": 2}), "r") == ["r.added['x']: 1 != 2"]

    def test_a_validation_error_is_an_outcome(self):
        def fail(message):
            raise ValidationError(message)

        assert verify._pair("p", lambda: fail("no"), lambda: fail("no")) == []
        assert verify._pair("p", lambda: fail("no"), lambda: fail("nope")) == [
            "p.message: 'no' != 'nope'"
        ]
        assert verify._pair("p", lambda: 1, lambda: fail("no")) == [
            "p: int != Raised(message='no')"
        ]


class TestGoldenDigests:
    """Committed digests pin every sweep outcome, so a change that moves
    both backends alike fails tier-1 too (update with ``python -m
    repro.engine.verify --update-golden``)."""

    def test_sweep_outcomes_match_the_golden_file(self):
        moved, numpy_version = verify.golden_mismatches(_tier1_sweep()[2])
        if moved and numpy_version != np.__version__:
            pytest.skip(
                f"golden digests were recorded under numpy {numpy_version} and "
                f"this is numpy {np.__version__}: {len(moved)} differ"
            )
        assert not moved, f"{len(moved)} golden digests moved: {moved}"

    def test_digest_reads_what_diff_reads(self):
        tagged = dataclasses.make_dataclass("Tagged", ["backend", "rounds"])
        assert verify.digest(tagged("simulator", 3)) == verify.digest(tagged("vectorized", 3))
        assert verify.digest(tagged("simulator", 3)) != verify.digest(tagged("simulator", 4))
        g = thick_cycle(4, 3)
        sim = run_bfs(g, 0, backend="simulator")
        assert verify.digest(sim) == verify.digest(run_bfs(g, 0, backend="vectorized"))
        assert verify.digest(Raised("no")) != verify.digest(Raised("nope"))

    def test_digest_separates_types_dtypes_and_shapes(self):
        a = np.arange(4, dtype=np.int64)
        distinct = [1, 1.0, True, np.int64(1), "1", (1,), [1], {1: 1},
                    a, a.astype(np.int32), a.reshape(2, 2), frozenset({1})]
        assert len({verify.digest(x) for x in distinct}) == len(distinct)
        assert verify.digest(frozenset({"a", "b"})) == verify.digest(frozenset({"b", "a"}))


def _fields(value):
    names = verify._VIEWS.get(type(value))
    if names is None and dataclasses.is_dataclass(value):
        names = [f.name for f in dataclasses.fields(value)]
    return None if names is None else [n for n in names if n not in EXEMPT]


def _leaves(value, path):
    """``(path, steps)`` of every leaf :func:`diff` reaches in ``value``."""
    names = _fields(value)
    if names is not None:
        children = [(f".{n}", ("attr", n), getattr(value, n)) for n in names]
    elif isinstance(value, dict):
        children = [(f"[{k!r}]", ("item", k), v) for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        children = [(f"[{i}]", ("item", i), v) for i, v in enumerate(value)]
    else:
        yield path, ()
        return
    for suffix, step, child in children:
        for leaf_path, steps in _leaves(child, path + suffix):
            yield leaf_path, (step, *steps)


def _perturbed(leaf):
    if isinstance(leaf, np.ndarray):
        if not leaf.size:
            return np.zeros(1, dtype=leaf.dtype)
        out = leaf.copy()
        first = out.flat[0]
        if out.dtype == bool:
            out.flat[0] = not first
        else:
            out.flat[0] = first + 1 if np.isfinite(first) and first + 1 != first else 0
        return out
    if isinstance(leaf, (bool, np.bool_)):
        return type(leaf)(not leaf)
    if isinstance(leaf, (int, float, np.number)):
        return leaf + 1 if leaf == leaf and leaf + 1 != leaf else type(leaf)(0)
    if isinstance(leaf, str):
        return leaf + "~"
    if isinstance(leaf, (set, frozenset)):
        return leaf ^ {-1}
    if leaf is None:
        return 0
    raise AssertionError(f"no perturbation for a {type(leaf).__name__} leaf")


def _with_leaf_perturbed(value, steps):
    """A copy of ``value`` with the leaf at ``steps`` perturbed; only the
    containers on the way to it are copied."""
    if not steps:
        return _perturbed(value)
    (kind, key), rest = steps[0], steps[1:]
    if kind == "attr":
        new = copy.copy(value)
        attr = "_children" if isinstance(value, BFSResult) and key == "children" else key
        object.__setattr__(new, attr, _with_leaf_perturbed(getattr(value, key), rest))
        return new
    if isinstance(value, tuple):
        return tuple(_with_leaf_perturbed(v, rest) if i == key else v for i, v in enumerate(value))
    new = copy.copy(value)
    new[key] = _with_leaf_perturbed(value[key], rest)
    return new


def _row_results():
    """One result of each entry point the rows compare, on a host where
    packings, repairs, fault grids and tournaments all run."""
    from repro.apsp import approx_apsp_unweighted, approx_apsp_weighted, baswana_sen_spanner
    from repro.apsp.clustering import build_clustering
    from repro.congest.tournament import run_tournament
    from repro.core.broadcast import (
        combined_broadcast,
        fast_broadcast_batch,
        textbook_broadcast,
        textbook_broadcast_batch,
    )
    from repro.core.lambda_search import broadcast_unknown_lambda
    from repro.core.resilient import (
        FaultCell,
        evaluate_fault_grid,
        redundant_broadcast,
        repair_coverage,
        tree_edge_ids,
    )
    from repro.core.tree_packing import resolve_roots
    from repro.cuts import approx_all_cuts, koutis_xu_sparsifier
    from repro.engine.faults import faulty_bfs, faulty_bfs_grid
    from repro.engine.kernels import frontier_sweep
    from repro.primitives.bfs import run_bfs_batch
    from repro.primitives.leader import elect_leader
    from repro.primitives.numbering import assign_item_numbers
    from repro.primitives.pipeline import run_tree_broadcast

    g = thick_cycle(6, 4)
    gw = random_weights(g, high=2, seed=1)
    pl = uniform_random_placement(g.n, 10, seed=1)
    tree = run_bfs(g, 0, backend="vectorized")
    masks = random_partition(g, 2, seed=0).masks()
    packing, _ = build_packing_with_retry(g, 2, seed=1, distributed=False)
    plan = random_fault_plan(g, seed=2, rate=0.3, rounds=4)
    lossy = dict(drop_rate=0.3, seed=1, collect_receipts=True, backend="vectorized")
    return {
        "run_bfs": tree,
        "run_parallel_bfs": run_parallel_bfs(g, masks, backend="vectorized"),
        "elect_leader": elect_leader(g),
        "assign_item_numbers": assign_item_numbers(g, tree, np.arange(g.n) % 3),
        "run_tree_broadcast": run_tree_broadcast(g, {0: tree}, {0: {3: [1, 2]}}),
        "frontier_sweep": frontier_sweep(g.n, g._indptr, g._indices, 0),
        "textbook_broadcast": textbook_broadcast(g, pl, backend="vectorized"),
        "fast_broadcast": fast_broadcast(g, pl, lam=8, seed=1, backend="vectorized"),
        "combined_broadcast": combined_broadcast(g, pl, seed=1, backend="vectorized"),
        "broadcast_unknown_lambda": broadcast_unknown_lambda(g, pl, seed=1, backend="vectorized"),
        "find_packing_unknown_lambda": find_packing_unknown_lambda(g, seed=1, backend="vectorized"),
        "build_clustering": build_clustering(g, seed=1),
        "baswana_sen_spanner": baswana_sen_spanner(gw, 2, seed=1, backend="vectorized"),
        "koutis_xu_sparsifier": koutis_xu_sparsifier(gw, 0.5, seed=1, tau=2, backend="vectorized"),
        "approx_apsp_unweighted": approx_apsp_unweighted(g, lam=8, C=1.5, seed=1, backend="vectorized"),
        "approx_apsp_weighted": approx_apsp_weighted(gw, 2, seed=1, backend="vectorized"),
        "approx_all_cuts": approx_all_cuts(g, eps=0.5, lam=8, C=1.5, seed=1, tau=2, backend="vectorized"),
        "faulty_bfs": faulty_bfs(g, 0, plan=plan, fault_seed=1, backend="vectorized"),
        "redundant_broadcast": redundant_broadcast(g, pl, packing, redundancy=2, **lossy),
        "run_bfs_batch": run_bfs_batch(g, [0, 5, 0], backend="vectorized"),
        "textbook_broadcast_batch": textbook_broadcast_batch(g, [pl], backend="vectorized"),
        "fast_broadcast_batch": fast_broadcast_batch(g, [pl], seeds=1, backend="vectorized"),
        "faulty_bfs_grid": faulty_bfs_grid(g, [0, 5], plan=plan, fault_seeds=[1, 2], backend="vectorized"),
        "evaluate_fault_grid": evaluate_fault_grid(
            g, pl, packing, [FaultCell(redundancy=2, drop_rate=0.3)], seed=1,
            backend="vectorized", collect_receipts=True,
        ),
        "resolve_roots": resolve_roots(g, 2, roots="spread", backend="vectorized"),
        "build_packing_with_retry": build_packing_with_retry(g, 2, seed=1, backend="vectorized"),
        "build_tree_packing": build_tree_packing(random_partition(g, 2, seed=0), backend="vectorized"),
        "repair_coverage": repair_coverage(
            g, pl, packing, dead_edges=sorted(tree_edge_ids(packing, 0))[:4], seed=1,
            backend="vectorized",
        ),
        "run_tournament": run_tournament(
            g, 6, parts=2, adversaries=["dead-tree", "loss"], defenses=["shared-r1"],
            seed=1, backend="vectorized",
        ),
    }


class TestLeafPerturbation:
    """Fail-closed: perturbing any one leaf of any row's result is reported
    at exactly that leaf's path."""

    @pytest.fixture(scope="class")
    def results(self):
        return _row_results()

    def test_every_leaf_is_compared(self, results):
        for name, result in results.items():
            assert diff(result, result, name) == []  # also materializes lazy views
            leaves = list(_leaves(result, name))
            assert leaves, name
            for path, steps in leaves:
                got = diff(result, _with_leaf_perturbed(result, steps), name)
                assert len(got) == 1 and got[0].startswith(f"{path}: "), (path, got)
