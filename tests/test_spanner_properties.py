"""Hypothesis tests for Baswana–Sen spanners and the cut sparsifier."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apsp import baswana_sen_spanner, check_spanner_stretch
from repro.cuts import koutis_xu_sparsifier
from repro.graphs import Graph, cut_value


@st.composite
def weighted_connected_graphs(draw, max_n=10):
    n = draw(st.integers(3, max_n))
    perm = draw(st.permutations(range(n)))
    edges = set()
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        a, b = perm[i], perm[j]
        edges.add((min(a, b), max(a, b)))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(all_pairs), max_size=2 * n))
    edges.update(extra)
    edges = sorted(edges)
    weights = draw(
        st.lists(
            st.integers(1, 100), min_size=len(edges), max_size=len(edges)
        )
    )
    return Graph(n, edges, weights=[float(w) for w in weights])


@given(weighted_connected_graphs(), st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_spanner_stretch_always_holds(g, k, seed):
    sp = baswana_sen_spanner(g, k, seed=seed)
    ok, worst = check_spanner_stretch(g, sp.spanner, k)
    assert ok, f"stretch {worst} > {2*k-1} on n={g.n}, m={g.m}, k={k}"


@pytest.mark.xfail(
    strict=True,
    reason="known stretch bug: ROADMAP.md open item 'Fix the spanner stretch bug'",
)
@pytest.mark.parametrize("backend", ["simulator", "vectorized"])
def test_spanner_stretch_pinned_instance(backend):
    """The falsifying instance of the ROADMAP item: the spanner drops edge
    (4, 6) of weight 1 and the best surviving 4→6 path costs 6 > 2k−1 = 5.
    Strict, so a fix turns this red until the marker is removed."""
    g = Graph(
        8,
        [(0, 1), (0, 4), (1, 6), (2, 4), (2, 6), (3, 6), (4, 6), (5, 6), (6, 7)],
        weights=[1.0, 1.0, 4.0, 1.0, 5.0, 1.0, 1.0, 1.0, 1.0],
    )
    sp = baswana_sen_spanner(g, 3, seed=3068, backend=backend)
    ok, worst = check_spanner_stretch(g, sp.spanner, 3)
    assert ok, f"stretch {worst} > 5"


@given(weighted_connected_graphs(), st.integers(2, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_spanner_is_weight_preserving_subgraph(g, k, seed):
    sp = baswana_sen_spanner(g, k, seed=seed)
    assert sp.spanner.m <= g.m
    for eid in range(sp.spanner.m):
        u, v = sp.spanner.edge_endpoints(eid)
        assert g.has_edge(u, v)
        assert sp.spanner.weights[eid] == g.weights[g.edge_id(u, v)]


@given(weighted_connected_graphs(), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sparsifier_preserves_connectivity_structure(g, seed):
    """The sparsifier never disconnects what was connected: every cut that
    is positive in G stays positive in H (bundles contain spanners, which
    preserve connectivity)."""
    res = koutis_xu_sparsifier(g, eps=0.5, seed=seed, tau=1)
    h = res.sparsifier
    assert h.n == g.n
    rng = np.random.default_rng(seed)
    for _ in range(5):
        side = rng.random(g.n) < 0.5
        if side.any() and not side.all():
            if cut_value(g, side) > 0:
                assert cut_value(h, side) > 0
