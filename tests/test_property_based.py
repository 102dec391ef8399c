"""Property-based tests (hypothesis) for the core data structures and the
invariants the theorems rest on."""


import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apsp import dfs_timestamps
from repro.congest import Network, NodeProgram, Simulator
from repro.core import (
    num_parts,
    random_partition,
    sample_edges,
)
from repro.graphs import (
    Graph,
    bfs_distances,
    bfs_tree,
    connected_components,
    cut_value,
    edge_connectivity,
)
from repro.util.bits import bits_for_payload, message_bit_budget
from repro.util.rng import derive_seed

# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #


@st.composite
def small_graphs(draw, min_n=2, max_n=12, connected=False):
    """Random simple graphs with n in [min_n, max_n]."""
    n = draw(st.integers(min_n, max_n))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if connected:
        # Random spanning tree first (random attachment), then extra edges.
        perm = draw(st.permutations(range(n)))
        edges = set()
        for i in range(1, n):
            j = draw(st.integers(0, i - 1))
            a, b = perm[i], perm[j]
            edges.add((min(a, b), max(a, b)))
        extra = draw(st.lists(st.sampled_from(all_pairs), max_size=2 * n))
        edges.update(extra)
        return Graph(n, sorted(edges))
    subset = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs)))
    return Graph(n, subset)


payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**40), 2**40),
        st.text(max_size=6),
    ),
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=8,
)


# ---------------------------------------------------------------------- #
# graph invariants
# ---------------------------------------------------------------------- #


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_degree_sum_is_twice_edges(g):
    assert int(g.degrees().sum()) == 2 * g.m


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_adjacency_symmetric(g):
    for v in range(g.n):
        for u in g.neighbors(v).tolist():
            assert v in g.neighbors(u).tolist()


@given(small_graphs(connected=True))
@settings(max_examples=50, deadline=None)
def test_bfs_triangle_inequality(g):
    """|d(s,u) - d(s,v)| <= 1 for every edge {u,v}: BFS layers are sane."""
    d = bfs_distances(g, 0)
    for u, v in g.edges():
        assert abs(int(d[u]) - int(d[v])) <= 1


@given(small_graphs(connected=True))
@settings(max_examples=50, deadline=None)
def test_bfs_tree_is_spanning_tree(g):
    parent, dist = bfs_tree(g, 0)
    edges = {(min(int(parent[v]), v), max(int(parent[v]), v)) for v in range(1, g.n)}
    assert len(edges) == g.n - 1
    # tree edges are graph edges
    for a, b in edges:
        assert g.has_edge(a, b)


@given(small_graphs())
@settings(max_examples=50, deadline=None)
def test_components_partition_nodes(g):
    labels = connected_components(g)
    for v in range(g.n):
        assert labels[labels[v]] == labels[v]  # label is a representative


@given(small_graphs(connected=True))
@settings(max_examples=30, deadline=None)
def test_lambda_at_most_min_degree(g):
    lam = edge_connectivity(g)
    assert 1 <= lam <= g.min_degree()


@given(small_graphs(connected=True), st.integers(0, 2**31))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_cut_value_complement_symmetric(g, seed):
    rng = np.random.default_rng(seed)
    side = rng.random(g.n) < 0.5
    assert cut_value(g, side) == cut_value(g, ~side)


# ---------------------------------------------------------------------- #
# Theorem 2 partition invariants
# ---------------------------------------------------------------------- #


@given(small_graphs(connected=True), st.integers(1, 5), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_partition_is_exact_cover(g, parts, seed):
    decomp = random_partition(g, parts, seed)
    stack = np.stack(decomp.masks()) if parts > 1 else decomp.mask(0)[None, :]
    assert (stack.sum(axis=0) == 1).all()


@given(small_graphs(connected=True), st.floats(0.0, 1.0), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_sampling_deterministic(g, p, seed):
    assert np.array_equal(sample_edges(g, p, seed), sample_edges(g, p, seed))


@given(st.integers(1, 10**6), st.integers(3, 10**6), st.floats(0.5, 4.0))
@settings(max_examples=80, deadline=None)
def test_num_parts_bounds(lam, n, C):
    parts = num_parts(lam, n, C)
    assert 1 <= parts
    assert parts <= max(1, lam)  # never more classes than λ


# ---------------------------------------------------------------------- #
# bit accounting
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def pricing_sim():
    """One simulator for every example, so its pricing memo accumulates
    payloads of mixed types (True next to 1, (0, 1) next to (False, True))."""
    return Simulator(Network(Graph(2, [(0, 1)])), lambda v: NodeProgram())


@given(payloads)
@settings(max_examples=120, deadline=None)
def test_bit_size_positive_and_monotone_under_nesting(pricing_sim, p):
    bits = bits_for_payload(p)
    assert bits >= 1
    # Doubling the payload doubles the cost (up to the empty-frame floor).
    assert bits_for_payload((p, p)) == max(1, 2 * bits) or bits_for_payload((p, p)) == 2 * bits
    # The simulator prices like bits_for_payload, on a cold and a warm memo.
    for _ in range(2):
        assert pricing_sim._payload_bits(p) == bits


@given(st.integers(2, 2**30))
@settings(max_examples=60, deadline=None)
def test_budget_fits_constant_tuple_of_ids(n):
    """A (tag, id, id) tuple must always fit the budget — the shape every
    protocol in the library sends."""
    budget = message_bit_budget(n)
    worst = bits_for_payload((7, n - 1, n - 1))
    assert worst <= budget


@given(st.integers(0, 2**62), st.lists(st.integers(0, 100), max_size=4))
@settings(max_examples=60, deadline=None)
def test_derive_seed_in_range(root, key):
    s = derive_seed(root, *key)
    assert 0 <= s < 2**63


# ---------------------------------------------------------------------- #
# PRT timestamps
# ---------------------------------------------------------------------- #


@given(small_graphs(connected=True))
@settings(max_examples=40, deadline=None)
def test_dfs_timestamps_dominate_distance(g):
    """π(v) >= d(0, v): the DFS tour from node 0 is a physical walk."""
    pi = dfs_timestamps(g)
    d = bfs_distances(g, 0)
    assert (pi >= d).all()
    assert len(np.unique(pi)) == g.n


# ---------------------------------------------------------------------- #
# network ports
# ---------------------------------------------------------------------- #


@given(small_graphs(connected=True))
@settings(max_examples=40, deadline=None)
def test_port_bijection(g):
    net = Network(g)
    for v in range(g.n):
        seen = set()
        for p in range(g.degree(v)):
            u = net.neighbor(v, p)
            assert net.port_to(v, u) == p
            seen.add(u)
        assert len(seen) == g.degree(v)
