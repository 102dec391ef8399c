"""Tests for Section 3.1 tree packings (and the FP23 interface parameters)."""

import networkx as nx
import numpy as np
import pytest

from repro.core import build_packing_with_retry, build_tree_packing, random_partition
from repro.core.alt_packing import greedy_low_diameter_packing
from repro.core.tree_packing import TreePacking, packing_from_bfs_results
from repro.engine.verify import diff
from repro.graphs import Graph, path_graph, random_regular
from repro.primitives.bfs import BFSResult
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def packed():
    g = random_regular(80, 24, seed=4)
    decomp = random_partition(g, 3, seed=6)
    return g, build_tree_packing(decomp, distributed=True)


def _tree(root, parent, dist, parent_edge):
    return BFSResult(
        root, np.array(parent), np.array(dist), None, 0, np.array(parent_edge)
    )


def _refused_both_ways(g, tree, match):
    """The constructor and ``validate()`` refuse the one-tree packing."""
    with pytest.raises(ValidationError, match=match):
        packing_from_bfs_results(g, [tree], 0)
    packing = TreePacking(g, [tree], 0, np.zeros(g.m, dtype=np.int64))
    with pytest.raises(ValidationError, match=match):
        packing.validate()


class TestPackedTrees:
    def test_path_diameter(self):
        g = path_graph(4)
        packing = packing_from_bfs_results(
            g, [_tree(0, [0, 0, 1, 2], [0, 1, 2, 3], [-1, 0, 1, 2])], 0
        )
        assert packing.max_depth == 3
        assert packing.diameters() == [3]

    def test_star_diameter(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        packing = packing_from_bfs_results(
            g, [_tree(0, [0, 0, 0, 0], [0, 1, 1, 1], [-1, 0, 1, 2])], 0
        )
        assert packing.diameters() == [2]

    def test_rejects_orphan(self):
        g = path_graph(2)
        _refused_both_ways(g, _tree(0, [0, -1], [0, -1], [-1, -1]), "not spanning")

    def test_rejects_bad_root(self):
        g = path_graph(2)
        # The root is another node's child, and a second node is its own parent.
        _refused_both_ways(
            g, _tree(1, [0, 0], [0, 1], [-1, 0]), "not its only self-parent"
        )
        _refused_both_ways(
            g, _tree(0, [0, 1], [0, 0], [-1, -1]), "not its only self-parent"
        )

    def test_rejects_unlayered_dist(self):
        g = path_graph(3)
        _refused_both_ways(
            g, _tree(0, [0, 0, 1], [0, 1, 1], [-1, 0, 1]), "BFS layering"
        )

    def test_diameters_match_networkx(self):
        g = random_regular(200, 16, seed=3)
        theorem2, _ = build_packing_with_retry(g, 3, seed=4, distributed=False)
        greedy = greedy_low_diameter_packing(g, 6, seed=5)
        for packing in (theorem2, greedy):
            packing.validate()
            expected = []
            for t in packing.trees:
                pe = t.parent_edge[t.parent_edge >= 0]
                tree = nx.Graph(zip(g.edge_u[pe].tolist(), g.edge_v[pe].tolist()))
                expected.append(nx.diameter(tree))
            assert packing.diameters() == expected
            assert packing.max_diameter == max(expected)


class TestBuildPacking:
    def test_edge_disjoint(self, packed):
        g, packing = packed
        assert packing.is_edge_disjoint
        assert packing.congestion == 1
        packing.validate()

    def test_trees_span(self, packed):
        g, packing = packed
        for t in packing.trees:
            assert t.spans()
            assert np.count_nonzero(t.parent_edge >= 0) == g.n - 1

    def test_tree_edges_have_right_color(self, packed):
        g, packing = packed
        decomp = random_partition(g, 3, seed=6)
        for i, t in enumerate(packing.trees):
            pe = t.parent_edge
            assert (decomp.colors[pe[pe >= 0]] == i).all()

    def test_construction_rounds_scale_with_depth(self, packed):
        _, packing = packed
        assert packing.construction_rounds >= packing.max_depth
        assert packing.construction_rounds <= packing.max_depth + 3

    def test_centralized_equals_distributed(self):
        g = random_regular(60, 18, seed=7)
        decomp = random_partition(g, 2, seed=8)
        p_dist = build_tree_packing(decomp, distributed=True)
        p_cent = build_tree_packing(decomp, distributed=False)
        # The whole packing: trees, construction_rounds, edge_tree_count
        # and class_masks.
        assert diff(p_dist, p_cent) == []

    def test_fractional_view(self, packed):
        _, packing = packed
        assert packing.fractional_total_weight() == packing.size

    def test_fp23_interface_parameters(self, packed):
        """The Fischer–Parter compiler consumes exactly these three numbers."""
        g, packing = packed
        assert packing.size >= 1  # >= λ/(C log n) trees
        assert packing.congestion == 1  # each edge in <= 1 tree
        bound = 20.0 * g.n * np.ceil(np.log(g.n)) / g.min_degree()
        assert packing.max_diameter <= bound

    def test_non_spanning_class_raises(self, reg_small):
        decomp = random_partition(reg_small, 6, seed=1)  # guaranteed failure
        with pytest.raises(ValidationError):
            build_tree_packing(decomp, distributed=False)

    def test_validate_detects_stale_counts(self, packed):
        import copy

        _, packing = packed
        broken = copy.copy(packing)
        broken.edge_tree_count = packing.edge_tree_count.copy()
        broken.edge_tree_count[0] += 1
        with pytest.raises(ValidationError):
            broken.validate()
