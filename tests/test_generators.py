"""Tests for the workload graph families: every (n, δ, λ, D) claim in the
generators' docstrings is verified here."""

import numpy as np
import pytest

from repro.graphs import (
    barbell,
    complete_graph,
    connected_gnp,
    cycle_graph,
    diameter,
    edge_connectivity,
    ghaffari_kuhn_family,
    gnp_random,
    hypercube,
    is_connected,
    path_graph,
    path_of_cliques,
    random_regular,
    random_weights,
    star_graph,
    thick_cycle,
    torus_grid,
)
from repro.util.errors import ValidationError


class TestBasicFamilies:
    def test_complete(self):
        g = complete_graph(7)
        assert g.m == 21 and g.min_degree() == 6 and diameter(g) == 1

    def test_cycle(self):
        g = cycle_graph(9)
        assert g.m == 9 and diameter(g) == 4

    def test_cycle_too_small(self):
        with pytest.raises(ValidationError):
            cycle_graph(2)

    def test_path(self):
        assert diameter(path_graph(7)) == 6

    def test_star(self):
        g = star_graph(9)
        assert g.min_degree() == 1 and diameter(g) == 2

    def test_hypercube_params(self):
        g = hypercube(5)
        assert g.n == 32 and g.min_degree() == 5 and diameter(g) == 5

    def test_torus_params(self):
        g = torus_grid(4, 5)
        assert g.n == 20 and g.min_degree() == 4
        assert edge_connectivity(g) == 4

    def test_torus_too_small(self):
        with pytest.raises(ValidationError):
            torus_grid(2, 5)


class TestRandomRegular:
    def test_regularity(self):
        g = random_regular(50, 7, seed=1)
        assert (g.degrees() == 7).all()

    def test_connected_and_d_connected(self):
        g = random_regular(60, 5, seed=2)
        assert is_connected(g)
        assert edge_connectivity(g) == 5

    def test_reproducible(self):
        a = random_regular(30, 4, seed=9)
        b = random_regular(30, 4, seed=9)
        assert a == b

    def test_odd_product_rejected(self):
        with pytest.raises(ValidationError):
            random_regular(5, 3)

    def test_d_too_large(self):
        with pytest.raises(ValidationError):
            random_regular(5, 5)


class TestGnp:
    def test_p_zero_and_one(self):
        assert gnp_random(10, 0.0, seed=1).m == 0
        assert gnp_random(10, 1.0, seed=1).m == 45

    def test_edge_count_concentrates(self):
        g = gnp_random(80, 0.3, seed=5)
        expected = 0.3 * 80 * 79 / 2
        assert abs(g.m - expected) < 0.25 * expected

    def test_invalid_p(self):
        with pytest.raises(ValidationError):
            gnp_random(10, 1.5)

    def test_connected_variant(self):
        g = connected_gnp(40, 0.2, seed=3)
        assert is_connected(g)

    def test_all_simple_edges(self):
        g = gnp_random(30, 0.4, seed=7)
        assert (g.edge_u < g.edge_v).all()


class TestStructuredFamilies:
    def test_thick_cycle_params(self):
        g = thick_cycle(10, 3)
        assert g.n == 30
        assert g.min_degree() == 6
        assert edge_connectivity(g) == 6
        assert diameter(g) == 5

    @pytest.mark.parametrize("groups, size", [(3, 1), (3, 4), (4, 2), (7, 3)])
    def test_thick_cycle_edge_order(self, groups, size):
        # Edge ids are the rank of (u, v) among the sorted edge set, as in
        # the original sorted(set(...)) loop.
        pairs = set()
        for grp in range(groups):
            nxt = (grp + 1) % groups
            for a in range(size):
                for b in range(size):
                    u, v = grp * size + a, nxt * size + b
                    pairs.add((min(u, v), max(u, v)))
        want = np.array(sorted(pairs), dtype=np.int64)
        g = thick_cycle(groups, size)
        assert np.array_equal(g.edge_u, want[:, 0])
        assert np.array_equal(g.edge_v, want[:, 1])

    def test_barbell_lambda_one(self):
        g = barbell(6, bridge_len=4)
        assert edge_connectivity(g) == 1

    def test_path_of_cliques_params(self):
        g = path_of_cliques(4, 5, 3)
        assert g.n == 20
        assert edge_connectivity(g) == 3
        assert g.min_degree() == 4  # clique degree

    def test_path_of_cliques_bridge_too_wide(self):
        with pytest.raises(ValidationError):
            path_of_cliques(3, 4, 5)

    def test_random_weights(self):
        g = random_weights(cycle_graph(10), low=1, high=5, seed=4)
        assert g.is_weighted
        assert (g.weights >= 1).all() and (g.weights <= 5).all()


class TestGhaffariKuhnFamily:
    def test_parameters(self):
        g = ghaffari_kuhn_family(32, 6)
        assert g.n == 32 * 6
        assert g.min_degree() == 6
        assert edge_connectivity(g) == 6

    def test_low_diameter_despite_length(self):
        g = ghaffari_kuhn_family(64, 4)
        # Without shortcuts the diameter would be 63; with the hierarchy it
        # collapses to O(log length).
        assert diameter(g) <= 4 * int(np.log2(64)) + 4

    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError):
            ghaffari_kuhn_family(2, 4)
        with pytest.raises(ValidationError):
            ghaffari_kuhn_family(8, 1)
