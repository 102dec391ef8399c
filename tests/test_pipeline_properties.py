"""Hypothesis tests for the broadcast pipeline and numbering invariants.

These target the protocol layer: for *arbitrary* connected graphs, roots,
and placements, the Lemma 1 pipeline must deliver everything within its
round bound, and the Lemma 3 numbering must partition [X] — the invariants
Theorem 1 composes.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import Graph
from repro.primitives import (
    assign_item_numbers,
    run_bfs,
    run_scheduled_broadcast,
    run_tree_broadcast,
)


@st.composite
def connected_graph_and_placement(draw, max_n=10, max_k=12):
    n = draw(st.integers(2, max_n))
    perm = draw(st.permutations(range(n)))
    edges = set()
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        a, b = perm[i], perm[j]
        edges.add((min(a, b), max(a, b)))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(all_pairs), max_size=n))
    edges.update(extra)
    g = Graph(n, sorted(edges))
    k = draw(st.integers(0, max_k))
    owners = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    placement: dict[int, list[int]] = {}
    for j, v in enumerate(owners, start=1):
        placement.setdefault(v, []).append(j)
    root = draw(st.integers(0, n - 1))
    return g, placement, k, root


@given(connected_graph_and_placement())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pipeline_delivers_within_bound(case):
    g, placement, k, root = case
    tree = run_bfs(g, root)
    out = run_tree_broadcast(g, {0: tree}, {0: placement})  # checks delivery
    # Exact: the root's last send is max_d (d + N(≥ d)) − 1 over the origin
    # depths d, with N(≥ d) the messages from depth d or deeper, and the
    # downcast reaches the deepest leaf depth(T) rounds later.
    depths = [int(tree.dist[v]) for v, ids in placement.items() for _ in ids]
    if k:
        last_send = max(d + sum(e >= d for e in depths) for d in depths) - 1
        assert out.rounds == tree.depth + last_send <= 2 * tree.depth + k - 1
    else:
        assert out.rounds == 0
    assert out.max_congestion <= 2 * k + 1


@given(connected_graph_and_placement())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scheduled_equals_pipeline_for_single_job(case):
    g, placement, k, root = case
    tree = run_bfs(g, root)
    sched = run_scheduled_broadcast(g, {0: tree}, {0: placement}, max_delay=0, seed=1)
    alone = run_tree_broadcast(g, {0: tree}, {0: placement})
    # One job with no delay = plain pipeline, up to 1 round of bookkeeping.
    assert abs(sched.makespan - alone.rounds) <= 1


@given(connected_graph_and_placement())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_numbering_partitions_for_arbitrary_counts(case):
    g, placement, k, root = case
    counts = np.zeros(g.n, dtype=np.int64)
    for v, ids in placement.items():
        counts[v] = len(ids)
    tree = run_bfs(g, root)
    starts, _rounds = assign_item_numbers(g, tree, counts)  # self-certifying
    total = int(counts.sum())
    ids = sorted(
        i
        for v in range(g.n)
        for i in range(int(starts[v]), int(starts[v] + counts[v]))
    )
    assert ids == list(range(1, total + 1))
