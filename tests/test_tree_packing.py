"""Tests for Section 3.1 tree packings (and the FP23 interface parameters)."""

import numpy as np
import pytest

from repro.core import build_tree_packing, random_partition
from repro.core.tree_packing import SpanningTree
from repro.engine.verify import diff
from repro.graphs import random_regular
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def packed():
    g = random_regular(80, 24, seed=4)
    decomp = random_partition(g, 3, seed=6)
    return g, build_tree_packing(decomp, distributed=True)


class TestSpanningTree:
    def test_depth_and_edges(self):
        parent = np.array([0, 0, 1, 2])
        depth = np.array([0, 1, 2, 3])
        t = SpanningTree(
            root=0, parent=parent, depth_of=depth, parent_edge=np.array([-1, 0, 1, 2])
        )
        assert t.depth == 3
        assert sorted(t.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert t.diameter() == 3

    def test_star_diameter(self):
        parent = np.array([0, 0, 0, 0])
        t = SpanningTree(
            root=0,
            parent=parent,
            depth_of=np.array([0, 1, 1, 1]),
            parent_edge=np.array([-1, 0, 1, 2]),
        )
        assert t.diameter() == 2

    def test_path_to_root(self):
        t = SpanningTree(
            root=0,
            parent=np.array([0, 0, 1]),
            depth_of=np.array([0, 1, 2]),
            parent_edge=np.array([-1, 0, 1]),
        )
        assert t.path_to_root(2) == [2, 1, 0]

    def test_rejects_orphan(self):
        with pytest.raises(ValidationError):
            SpanningTree(
                root=0,
                parent=np.array([0, -1]),
                depth_of=np.array([0, 1]),
                parent_edge=np.array([-1, -1]),
            )

    def test_rejects_bad_root(self):
        with pytest.raises(ValidationError):
            SpanningTree(
                root=1,
                parent=np.array([0, 0]),
                depth_of=np.array([0, 1]),
                parent_edge=np.array([-1, 0]),
            )


class TestBuildPacking:
    def test_edge_disjoint(self, packed):
        g, packing = packed
        assert packing.is_edge_disjoint
        assert packing.congestion == 1
        packing.validate()

    def test_trees_span(self, packed):
        g, packing = packed
        for t in packing.trees:
            assert len(t.edges()) == g.n - 1

    def test_tree_edges_have_right_color(self, packed):
        g, packing = packed
        decomp = random_partition(g, 3, seed=6)
        for i, t in enumerate(packing.trees):
            for u, v in t.edges():
                assert decomp.colors[g.edge_id(u, v)] == i

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
