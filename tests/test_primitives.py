"""Tests for the distributed primitives (Lemmas 1–4, Theorem 12)."""

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    bfs_distances,
    cycle_graph,
    diameter,
    path_graph,
)
from repro.primitives import (
    assign_item_numbers,
    elect_leader,
    learn_min_degree,
    run_bfs,
    run_parallel_bfs,
    run_scheduled_broadcast,
    run_tree_broadcast,
    tree_aggregate,
)
from repro.util.errors import ValidationError


class TestDistributedBFS:
    def test_distances_match_centralized(self, reg_small):
        tree = run_bfs(reg_small, 0)
        assert np.array_equal(tree.dist, bfs_distances(reg_small, 0))

    def test_parent_is_previous_layer_neighbor(self, reg_small):
        tree = run_bfs(reg_small, 0)
        for v in range(reg_small.n):
            if v == 0:
                assert tree.parent[v] == 0
            else:
                p = int(tree.parent[v])
                assert reg_small.has_edge(p, v)
                assert tree.dist[v] == tree.dist[p] + 1

    def test_rounds_are_depth_plus_constant(self):
        g = path_graph(15)
        tree = run_bfs(g, 0)
        assert tree.depth == 14
        assert tree.depth <= tree.rounds <= tree.depth + 2

    def test_children_consistent_with_parents(self, q4):
        tree = run_bfs(q4, 0)
        for v in range(q4.n):
            for c in tree.children[v]:
                assert tree.parent[c] == v

    def test_restricted_to_edge_mask(self):
        g = cycle_graph(6)
        # Keep only the path edges 0-1-2-3-4-5 (drop the closing edge).
        mask = np.ones(g.m, dtype=bool)
        mask[g.edge_id(0, 5)] = False
        tree = run_bfs(g, 0, edge_mask=mask)
        assert tree.dist[5] == 5  # must walk the long way

    def test_non_spanning_mask_detected(self):
        g = cycle_graph(6)
        mask = np.zeros(g.m, dtype=bool)
        mask[g.edge_id(0, 1)] = True
        tree = run_bfs(g, 0, edge_mask=mask)
        assert not tree.spans()

    def test_bad_root(self, c8):
        with pytest.raises(ValidationError):
            run_bfs(c8, 99)

    @pytest.mark.parametrize("backend", ["simulator", "vectorized"])
    @pytest.mark.parametrize("root", [1.7, np.float64(2.0)])
    def test_fractional_root_rejected_by_every_flood(self, backend, root):
        """A root must be an integer: the simulator used to flood nothing
        from 1.7 (or node 2 from 2.0) while the vectorized backend raised
        IndexError, and the batch entry points truncated 1.7 to node 1."""
        from repro.engine.faults import faulty_bfs, faulty_bfs_grid
        from repro.primitives.bfs import run_bfs_batch

        g = cycle_graph(6)
        mask = np.ones(g.m, dtype=bool)
        calls = [
            lambda: run_bfs(g, root, backend=backend),
            lambda: run_bfs_batch(g, [0, root], backend=backend),
            lambda: run_parallel_bfs(g, [mask], roots=[root], backend=backend),
            lambda: faulty_bfs(g, root, backend=backend),
            lambda: faulty_bfs_grid(g, [0, root], backend=backend),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="must be integers"):
                call()

    @pytest.mark.parametrize("backend", ["simulator", "vectorized"])
    @pytest.mark.parametrize(
        "roots",
        [[[0, 1], [2, 3]], np.array([[0, 1]]), [0, [1, 2]]],
        ids=["2d", "2d-array", "ragged"],
    )
    def test_nested_roots_rejected_by_the_batch_floods(self, backend, roots):
        """Roots must be a flat sequence of integers: a 2-D root list used
        to return results on the simulator and raise TypeError on the
        vectorized backend, and ragged roots raised numpy's ValueError."""
        from repro.engine.faults import faulty_bfs_grid
        from repro.primitives.bfs import run_bfs_batch

        g = cycle_graph(6)
        for call in (
            lambda: run_bfs_batch(g, roots, backend=backend),
            lambda: faulty_bfs_grid(g, roots, backend=backend),
        ):
            with pytest.raises(ValidationError, match="BFS roots must be integers"):
                call()

    @pytest.mark.parametrize("backend", ["simulator", "vectorized"])
    def test_bool_root_is_node_one(self, backend):
        tree = run_bfs(cycle_graph(6), True, backend=backend)
        assert tree.root == 1 and type(tree.root) is int
        assert tree.dist[1] == 0

    def test_numpy_root_results_equal_across_backends(self):
        from repro.engine.verify import diff

        g = cycle_graph(6)
        mask = np.ones(g.m, dtype=bool)
        a, b = (
            run_parallel_bfs(g, [mask], roots=[np.int64(2)], backend=backend)
            for backend in ("simulator", "vectorized")
        )
        assert diff(a, b) == []
        assert type(a[0][0].root) is int

    def test_parallel_bfs_disjoint_channels(self, reg_dense):
        from repro.core import random_partition

        decomp = random_partition(reg_dense, 2, seed=3)
        results, rounds = run_parallel_bfs(reg_dense, decomp.masks())
        assert len(results) == 2
        assert rounds == max(r.depth for r in results) + 1 or rounds >= max(
            r.depth for r in results
        )
        for r, mask in zip(results, decomp.masks()):
            sub = reg_dense.edge_subgraph(mask)
            assert np.array_equal(r.dist, bfs_distances(sub, 0))

    def test_parallel_bfs_rejects_overlap(self, c8):
        mask = np.ones(c8.m, dtype=bool)
        with pytest.raises(ValidationError):
            run_parallel_bfs(c8, [mask, mask])

    def test_deterministic_tree_equivalence(self, reg_medium):
        """Distributed BFS == centralized bfs_tree (same tie-breaking)."""
        from repro.graphs import bfs_tree

        tree = run_bfs(reg_medium, 3)
        parent, dist = bfs_tree(reg_medium, 3)
        assert np.array_equal(tree.parent, parent)


class TestLeaderElection:
    def test_elects_minimum(self, reg_small):
        leader, rounds = elect_leader(reg_small)
        assert leader == 0
        assert rounds <= diameter(reg_small) + 2

    def test_path_takes_diameter_rounds(self):
        g = path_graph(12)
        leader, rounds = elect_leader(g)
        assert leader == 0
        assert rounds >= 11

    def test_disconnected_raises(self):
        from repro.engine.fastpath import vectorized_elect_leader

        g = Graph(4, [(0, 1), (2, 3)])
        for elect in (elect_leader, vectorized_elect_leader):
            with pytest.raises(ValidationError, match=r"component leaders \[0, 2\]"):
                elect(g)


class TestAggregation:
    def test_min_sum_max(self, reg_small):
        tree = run_bfs(reg_small, 0)
        values = np.arange(reg_small.n) + 5
        assert tree_aggregate(reg_small, tree, values, op="min")[0] == 5
        assert tree_aggregate(reg_small, tree, values, op="max")[0] == 4 + 5 + reg_small.n - 1 - 4
        assert (
            tree_aggregate(reg_small, tree, values, op="sum")[0] == int(values.sum())
        )

    def test_learn_min_degree(self, reg_small):
        delta, rounds = learn_min_degree(reg_small)
        assert delta == 6
        assert rounds > 0

    def test_learn_min_degree_irregular(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        delta, _ = learn_min_degree(g)
        assert delta == 2

    def test_rounds_scale_with_depth(self):
        g = path_graph(16)
        tree = run_bfs(g, 0)
        _, rounds = tree_aggregate(g, tree, np.ones(16, dtype=int), op="sum")
        assert rounds >= 2 * 15  # up + down a depth-15 tree

    def test_bad_op(self, c8):
        tree = run_bfs(c8, 0)
        with pytest.raises(ValidationError):
            tree_aggregate(c8, tree, np.ones(8, dtype=int), op="median")

    def test_non_spanning_tree_rejected(self):
        g = cycle_graph(6)
        mask = np.zeros(g.m, dtype=bool)
        tree = run_bfs(g, 0, edge_mask=mask)
        with pytest.raises(ValidationError):
            tree_aggregate(g, tree, np.ones(6, dtype=int))


class TestNumbering:
    def test_partition_of_range(self, reg_small):
        tree = run_bfs(reg_small, 0)
        counts = np.ones(reg_small.n, dtype=np.int64) * 3
        starts, _ = assign_item_numbers(reg_small, tree, counts)
        ids = sorted(
            i for v in range(reg_small.n) for i in range(starts[v], starts[v] + 3)
        )
        assert ids == list(range(1, 3 * reg_small.n + 1))

    def test_zero_counts_allowed(self, c8):
        tree = run_bfs(c8, 0)
        counts = np.zeros(8, dtype=np.int64)
        counts[3] = 5
        starts, _ = assign_item_numbers(c8, tree, counts)
        assert starts[3] == 1

    def test_negative_count_rejected(self, c8):
        tree = run_bfs(c8, 0)
        with pytest.raises(ValidationError):
            assign_item_numbers(c8, tree, np.array([-1] + [0] * 7))

    def test_root_takes_first_ids(self, c8):
        tree = run_bfs(c8, 0)
        counts = np.ones(8, dtype=np.int64)
        starts, _ = assign_item_numbers(c8, tree, counts)
        assert starts[0] == 1


class TestPipelinedBroadcast:
    def _placement(self, n, k, seed=0):
        rng = np.random.default_rng(seed)
        placement = {}
        for mid in range(1, k + 1):
            v = int(rng.integers(n))
            placement.setdefault(v, []).append(mid)
        return placement

    def test_all_delivered(self, reg_small):
        tree = run_bfs(reg_small, 0)
        placement = self._placement(reg_small.n, 60)
        out = run_tree_broadcast(reg_small, {0: tree}, {0: placement})
        assert out.k_total == 60  # verify=True already asserted delivery

    def test_rounds_bound(self, reg_small):
        tree = run_bfs(reg_small, 0)
        k = 50
        out = run_tree_broadcast(
            reg_small, {0: tree}, {0: self._placement(reg_small.n, k)}
        )
        assert out.rounds <= 2 * tree.depth + 2 * k + 4

    def test_congestion_bound_lemma1(self, reg_small):
        """Lemma 1: congestion O(k) — at most 2k with our pipeline."""
        tree = run_bfs(reg_small, 0)
        k = 40
        out = run_tree_broadcast(
            reg_small, {0: tree}, {0: self._placement(reg_small.n, k)}
        )
        assert out.max_congestion <= 2 * k

    def test_single_source(self, c8):
        tree = run_bfs(c8, 0)
        out = run_tree_broadcast(c8, {0: tree}, {0: {4: [1, 2, 3]}})
        assert out.rounds >= 3

    def test_root_holds_everything(self, c8):
        tree = run_bfs(c8, 0)
        out = run_tree_broadcast(c8, {0: tree}, {0: {0: [1, 2, 3, 4]}})
        # pure downcast: depth + k-ish rounds
        assert out.rounds <= tree.depth + 4 + 1

    def test_empty_channel_is_noop(self, c8):
        tree = run_bfs(c8, 0)
        out = run_tree_broadcast(c8, {0: tree}, {0: {}})
        assert out.k_total == 0 and out.rounds == 0

    def test_duplicate_ids_rejected(self, c8):
        tree = run_bfs(c8, 0)
        with pytest.raises(ValidationError):
            run_tree_broadcast(c8, {0: tree}, {0: {1: [5], 2: [5]}})

    def test_unknown_channel_rejected(self, c8):
        tree = run_bfs(c8, 0)
        with pytest.raises(ValidationError):
            run_tree_broadcast(c8, {0: tree}, {7: {0: [1]}})

    def test_non_spanning_tree_rejected(self):
        g = cycle_graph(6)
        mask = np.zeros(g.m, dtype=bool)
        mask[0] = True
        tree = run_bfs(g, 0, edge_mask=mask)
        with pytest.raises(ValidationError):
            run_tree_broadcast(g, {0: tree}, {0: {0: [1]}})

    def test_two_disjoint_channels_parallel(self, reg_dense):
        from repro.core import random_partition, build_tree_packing
        from repro.core.broadcast import _bfs_view

        decomp = random_partition(reg_dense, 2, seed=3)
        packing = build_tree_packing(decomp, distributed=False)
        trees = {0: _bfs_view(packing, 0), 1: _bfs_view(packing, 1)}
        msgs = {
            0: self._placement(reg_dense.n, 30, seed=1),
            1: {v: [m + 100 for m in ms] for v, ms in self._placement(reg_dense.n, 30, seed=2).items()},
        }
        out = run_tree_broadcast(reg_dense, trees, msgs)
        # Concurrent channels: rounds ~ max of singles, not the sum.
        single = run_tree_broadcast(reg_dense, {0: trees[0]}, {0: msgs[0]})
        assert out.rounds <= single.rounds + 2 * packing.max_depth + 35


class TestScheduling:
    def test_overlapping_trees_complete(self, reg_small):
        t0 = run_bfs(reg_small, 0)
        t1 = run_bfs(reg_small, 1)  # overlapping edge sets
        msgs = {
            0: {2: list(range(1, 21))},
            1: {3: list(range(100, 121))},
        }
        out = run_scheduled_broadcast(
            reg_small, {0: t0, 1: t1}, msgs, seed=4
        )
        assert out.makespan > 0
        assert out.congestion >= 1

    def test_zero_delay_baseline(self, reg_small):
        t0 = run_bfs(reg_small, 0)
        t1 = run_bfs(reg_small, 1)
        msgs = {0: {2: [1, 2, 3]}, 1: {3: [10, 11]}}
        out = run_scheduled_broadcast(
            reg_small, {0: t0, 1: t1}, msgs, max_delay=0, seed=4
        )
        assert all(d == 0 for d in out.delays.values())

    def test_makespan_at_least_single_job(self, c8):
        tree = run_bfs(c8, 0)
        msgs = {0: {4: list(range(1, 11))}}
        alone = run_tree_broadcast(c8, {0: tree}, {0: msgs[0]})
        out = run_scheduled_broadcast(c8, {0: tree}, msgs, max_delay=0, seed=1)
        assert out.makespan >= alone.rounds - 1

    def test_duplicate_ids_rejected(self, c8):
        tree = run_bfs(c8, 0)
        with pytest.raises(ValidationError):
            run_scheduled_broadcast(c8, {0: tree}, {0: {1: [5], 2: [5]}})

    @pytest.mark.parametrize(
        "messages",
        [
            {0: {1: [1]}, 5: {2: [7]}},  # job 5 has no tree
            {0: {-1: [1]}},
            {0: {8: [1]}},
            {0: {2.5: [1]}},
            {0: {1: [1.5]}},
        ],
    )
    def test_bad_input_fails_loud(self, c8, messages):
        """Each input raises the ValidationError the Lemma 1 pipeline
        raises. Before, job 5's messages were dropped without a word, a bad
        origin raised ProtocolError after the run, and the id 1.5 went on
        the wire as a 68-bit float payload."""
        tree = run_bfs(c8, 0)
        with pytest.raises(ValidationError) as lemma1:
            run_tree_broadcast(c8, {0: tree}, messages)
        with pytest.raises(ValidationError) as scheduled:
            run_scheduled_broadcast(c8, {0: tree}, messages)
        assert str(scheduled.value) == str(lemma1.value)

    def test_congestion_counts_both_jobs(self, c8):
        tree = run_bfs(c8, 0)
        msgs = {0: {4: [1, 2, 3]}, 1: {4: [11, 12, 13]}}
        out = run_scheduled_broadcast(
            c8, {0: tree, 1: tree}, msgs, max_delay=0, seed=2
        )
        solo = run_tree_broadcast(c8, {0: tree}, {0: msgs[0]})
        assert out.congestion >= solo.max_congestion
