"""Hypothesis tests for Baswana–Sen spanners and the cut sparsifier."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apsp import baswana_sen_spanner, check_spanner_stretch
from repro.cuts import koutis_xu_sparsifier
from repro.engine.verify import random_connected_graph
from repro.graphs import Graph, cut_value
from repro.graphs.generators import random_weights


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


def _k2_host(n, extra, seed, weight_seed):
    """A random connected host with weights in {1, 2}, as the verify sweep
    draws them."""
    return random_weights(random_connected_graph(n, extra, seed), 1, 2, seed=weight_seed)


# The falsifying instances of the ROADMAP item, as (host, k, spanner seed).
# At k = 3 the spanner drops edge (4, 6) of weight 1 and the best surviving
# 4→6 path costs 6 > 2k−1 = 5; on each k = 2 host some edge's best
# surviving path costs 4 > 3.
_PINNED_SPANNERS = {
    "k3-n8": (
        lambda: Graph(
            8,
            [(0, 1), (0, 4), (1, 6), (2, 4), (2, 6), (3, 6), (4, 6), (5, 6), (6, 7)],
            weights=[1.0, 1.0, 4.0, 1.0, 5.0, 1.0, 1.0, 1.0, 1.0],
        ),
        3,
        3068,
    ),
    "k2-n19": (lambda: _k2_host(19, 36, 870917688, 139958029), 2, 1969451485),
    "k2-n25-e39": (lambda: _k2_host(25, 39, 117280778, 131588958), 2, 2048788953),
    "k2-n25-e40": (lambda: _k2_host(25, 40, 411588904, 2020265890), 2, 378336164),
}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known stretch bug: ROADMAP.md open item 'Fix the spanner stretch bug'",
)
@pytest.mark.parametrize("instance", list(_PINNED_SPANNERS))
@pytest.mark.parametrize("backend", ["simulator", "vectorized"])
def test_spanner_stretch_pinned_instance(backend, instance):
    """Each falsifying instance of the ROADMAP item breaks stretch 2k−1 on
    both backends. Strict, so a fix turns these red until the marker is
    removed; only the stretch assertion counts as the expected failure."""
    host, k, seed = _PINNED_SPANNERS[instance]
    g = host()
    sp = baswana_sen_spanner(g, k, seed=seed, backend=backend)
    ok, worst = check_spanner_stretch(g, sp.spanner, k)
    assert ok, f"stretch {worst} > {2 * k - 1}"


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
