"""Tests for the centralized BFS kernels (ground truth for everything else)."""

import numpy as np
import pytest

import networkx as nx
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apsp import prt_apsp
from repro.graphs import traversal
from repro.graphs import (
    Graph,
    all_pairs_distances,
    bfs_distances,
    bfs_tree,
    connected_components,
    cycle_graph,
    eccentricity,
    hypercube,
    is_connected,
    path_graph,
    random_regular,
)
from repro.util.errors import ValidationError


class TestBFSDistances:
    def test_path(self):
        g = path_graph(6)
        assert bfs_distances(g, 0).tolist() == [0, 1, 2, 3, 4, 5]

    def test_cycle(self):
        g = cycle_graph(6)
        assert bfs_distances(g, 0).tolist() == [0, 1, 2, 3, 2, 1]

    def test_disconnected_marks_unreached(self):
        g = Graph(4, [(0, 1), (2, 3)])
        d = bfs_distances(g, 0)
        assert d[2] == -1 and d[3] == -1

    def test_isolated_source(self):
        g = Graph(3, [(1, 2)])
        d = bfs_distances(g, 0)
        assert d.tolist() == [0, -1, -1]

    def test_matches_networkx_on_random_graph(self):
        g = random_regular(50, 5, seed=3)
        nxg = g.to_networkx()
        for src in (0, 17, 42):
            ours = bfs_distances(g, src)
            theirs = nx.single_source_shortest_path_length(nxg, src)
            for v in range(g.n):
                assert ours[v] == theirs[v]

    def test_hypercube_distance_is_hamming(self):
        g = hypercube(4)
        d = bfs_distances(g, 0)
        for v in range(16):
            assert d[v] == bin(v).count("1")


class TestBFSTree:
    def test_parent_consistency(self):
        g = random_regular(40, 4, seed=5)
        parent, dist = bfs_tree(g, 0)
        assert parent[0] == 0
        for v in range(1, g.n):
            p = int(parent[v])
            assert g.has_edge(p, v)
            assert dist[v] == dist[p] + 1

    def test_deterministic_smallest_parent(self):
        # Node 3 reachable from both 1 and 2 at distance 1; parent must be 1.
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        parent, _ = bfs_tree(g, 0)
        assert parent[3] == 1

    def test_unreachable_parent_is_minus_one(self):
        g = Graph(3, [(0, 1)])
        parent, _ = bfs_tree(g, 0)
        assert parent[2] == -1


class TestSourceRange:
    """A source outside [0, n) must fail, not alias a node by negative
    indexing (-2 on a 5-cycle used to run from node 3)."""

    @pytest.mark.parametrize("fn", [bfs_distances, bfs_tree, eccentricity])
    @pytest.mark.parametrize("source", [-1, -2, 5])
    def test_out_of_range_source_rejected(self, fn, source):
        with pytest.raises(ValidationError):
            fn(cycle_graph(5), source)

    @pytest.mark.parametrize("key", [-1, 12])
    def test_frontier_sweep_key_range(self, key):
        g = cycle_graph(4)
        with pytest.raises(ValidationError):
            traversal.frontier_sweep(g.n, g._indptr, g._indices, [key], queries=3)


class TestAggregates:
    def test_all_pairs_symmetric(self):
        g = random_regular(30, 4, seed=7)
        d = all_pairs_distances(g)
        assert np.array_equal(d, d.T)
        assert (np.diag(d) == 0).all()

    def test_eccentricity(self):
        assert eccentricity(path_graph(5), 0) == 4
        assert eccentricity(path_graph(5), 2) == 2

    def test_eccentricity_disconnected(self):
        assert eccentricity(Graph(3, [(0, 1)]), 0) == -1

    def test_connected_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        labels = connected_components(g)
        assert labels[0] == labels[1] == 0
        assert labels[2] == labels[3] == 2
        assert labels[4] == 4

    def test_connected_components_matches_bfs_labels(self):
        """Every label is the smallest node its BFS reaches, on components
        of every shape: isolated nodes, paths, cliques, a cycle."""
        edges = [(1, 4), (4, 9), (9, 12)]  # a path, out of id order
        edges += [(2, 3), (2, 6), (3, 6)]  # a triangle
        edges += [(v, v + 1) for v in range(13, 19)] + [(19, 13)]  # a cycle
        g = Graph(21, edges)
        want = np.array([int(np.flatnonzero(bfs_distances(g, v) >= 0)[0]) for v in range(g.n)])
        assert np.array_equal(connected_components(g), want)
        assert np.array_equal(connected_components(cycle_graph(7)), np.zeros(7, dtype=np.int64))

    def test_is_connected(self):
        assert is_connected(cycle_graph(5))
        assert not is_connected(Graph(3, [(0, 1)]))
        assert is_connected(Graph(1, []))


def _stacked_bfs_rows(g: Graph) -> np.ndarray:
    """Reference APSP: one :func:`bfs_distances` row per source."""
    return np.stack([bfs_distances(g, v) for v in range(g.n)])


@st.composite
def _apsp_graphs(draw):
    """Sparse random graphs (often disconnected, with isolated nodes) and
    randomly relabelled paths, depth up to 159 ≫ 64, whose leftover nodes
    are isolated."""
    n = draw(st.integers(1, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        length = draw(st.integers(1, n))
        label = rng.permutation(n)
        edges = np.stack([label[: length - 1], label[1:length]], axis=1)
    else:
        p = draw(st.sampled_from((0.0, 0.01, 0.03, 0.1)))
        edges = np.argwhere(np.triu(rng.random((n, n)) < p, 1))
    return Graph(n, edges)


class TestAllPairsKernel:
    @given(_apsp_graphs())
    @example(Graph(1, []))
    @example(path_graph(150))
    @example(Graph(5, [(0, 1), (2, 3)]))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_stacked_bfs_rows(self, g):
        rows = _stacked_bfs_rows(g)
        assert np.array_equal(all_pairs_distances(g), rows)
        if is_connected(g):
            assert np.array_equal(prt_apsp(g).dist, rows)

    def test_multi_block_sweep(self, monkeypatch):
        # 150 + 50 nodes: a deep path plus a disconnected regular graph,
        # swept in blocks of one word (64 sources, the last one partial)
        # and of two words.
        path = path_graph(150)
        reg = random_regular(50, 4, seed=3)
        edges = np.concatenate(
            [
                np.stack([path.edge_u, path.edge_v], axis=1),
                np.stack([reg.edge_u, reg.edge_v], axis=1) + 150,
            ]
        )
        g = Graph(200, edges)
        rows = _stacked_bfs_rows(g)
        for cells in (1, 4 * g.m):
            monkeypatch.setattr(traversal, "_APSP_MAX_CELLS", cells)
            assert np.array_equal(all_pairs_distances(g), rows)
