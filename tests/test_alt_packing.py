"""Tests for Appendix A: Lemma 9 witnesses and the Theorem 10 packing."""

import math

import numpy as np
import pytest

from repro.core import (
    greedy_low_diameter_packing,
    kd_connectivity_witness,
    lemma9_parameters,
)
from repro.graphs import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_regular,
)
from repro.util.errors import ValidationError


class TestKdWitness:
    def test_path_count_equals_local_connectivity(self):
        g = random_regular(40, 6, seed=3)
        ps = kd_connectivity_witness(g, 0, 20)
        # Greedy shortest augmentation is Edmonds–Karp → max flow paths.
        from repro.graphs import local_edge_connectivity

        assert ps.count == local_edge_connectivity(g, 0, 20)

    def test_paths_edge_disjoint_and_valid(self):
        g = random_regular(40, 6, seed=3)
        ps = kd_connectivity_witness(g, 0, 20)
        assert ps.is_edge_disjoint()
        for path in ps.paths:
            assert path[0] == 0 and path[-1] == 20
            for a, b in zip(path, path[1:]):
                assert g.has_edge(a, b)

    def test_lemma9_holds_on_regular_graphs(self):
        g = random_regular(60, 10, seed=5)
        lam = 10
        k_target, d_target = lemma9_parameters(g, lam)
        for u, v in ((0, 30), (5, 55), (12, 40)):
            ps = kd_connectivity_witness(g, u, v, max_paths=math.ceil(k_target))
            assert ps.count >= k_target
            assert ps.max_length <= d_target

    def test_cycle_two_paths(self):
        g = cycle_graph(8)
        ps = kd_connectivity_witness(g, 0, 4)
        assert ps.count == 2
        assert ps.max_length == 4

    def test_max_paths_cap(self):
        g = complete_graph(6)
        ps = kd_connectivity_witness(g, 0, 1, max_paths=2)
        assert ps.count == 2

    def test_same_node_raises(self):
        with pytest.raises(ValidationError):
            kd_connectivity_witness(cycle_graph(5), 2, 2)

    def test_monotone_path_lengths(self):
        # Shortest-augmentation invariant: successive lengths non-decreasing.
        g = random_regular(40, 8, seed=9)
        ps = kd_connectivity_witness(g, 0, 25)
        lengths = [len(p) - 1 for p in ps.paths]
        assert lengths == sorted(lengths)


class TestGreedyPacking:
    def test_theorem10_parameters(self):
        g = random_regular(100, 16, seed=7)
        lam = 16
        packing = greedy_low_diameter_packing(g, lam, seed=1)
        assert packing.size == lam
        # Congestion target O(log n): allow constant 3.
        assert packing.congestion <= 3 * math.log(g.n)
        # Diameter target O((n log n)/δ).
        assert packing.max_diameter <= 20 * g.n * math.log(g.n) / g.min_degree()

    def test_each_tree_spans(self):
        g = random_regular(50, 8, seed=2)
        packing = greedy_low_diameter_packing(g, 8, seed=3)
        for t in packing.trees:
            assert t.spans()
            assert np.count_nonzero(t.parent_edge >= 0) == g.n - 1

    def test_explicit_roots_respected(self):
        g = random_regular(30, 6, seed=4)
        packing = greedy_low_diameter_packing(g, 3, roots=[5, 6, 7], seed=1)
        assert [t.root for t in packing.trees] == [5, 6, 7]

    def test_roots_length_mismatch(self):
        g = cycle_graph(6)
        with pytest.raises(ValidationError):
            greedy_low_diameter_packing(g, 2, roots=[0], seed=1)

    def test_disconnected_raises(self):
        from repro.graphs import Graph

        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValidationError):
            greedy_low_diameter_packing(g, 2, seed=1)

    def test_path_graph_trivial(self):
        g = path_graph(10)
        packing = greedy_low_diameter_packing(g, 1, seed=1)
        assert packing.size == 1
        assert packing.max_diameter == 9

    def test_congestion_grows_sublinearly_in_trees(self):
        """Doubling the tree count should much less than double congestion
        (the multiplicative-penalty spreading effect)."""
        g = random_regular(80, 20, seed=6)
        few = greedy_low_diameter_packing(g, 5, seed=2)
        many = greedy_low_diameter_packing(g, 20, seed=2)
        assert many.congestion <= few.congestion + math.ceil(math.log(g.n)) + 2
