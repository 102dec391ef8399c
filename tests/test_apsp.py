"""Tests for the APSP applications (Theorems 4, 5, Corollary 1)."""

import numpy as np
import pytest

from repro.apsp import (
    approx_apsp_unweighted,
    approx_apsp_weighted,
    baswana_sen_spanner,
    build_clustering,
    center_sampling_probability,
    check_32_approximation,
    check_spanner_stretch,
    check_weighted_stretch,
    corollary1_k,
    dfs_timestamps,
    prt_apsp,
)
from repro.graphs import (
    bfs_distances,
    random_regular,
    random_weights,
    thick_cycle,
)
from repro.util.errors import ValidationError


class TestClustering:
    def test_every_node_in_adjacent_cluster(self, reg_medium):
        cl = build_clustering(reg_medium, seed=1)
        cl.validate()

    def test_cluster_count_scale(self, reg_medium):
        # k ≈ n·p = n·c·ln n/δ.
        cl = build_clustering(reg_medium, c=3.0, seed=1)
        p = center_sampling_probability(reg_medium.n, reg_medium.min_degree(), 3.0)
        expected = reg_medium.n * p
        assert 0.4 * expected <= cl.k <= 1.8 * expected

    def test_one_round_cost(self, reg_medium):
        assert build_clustering(reg_medium, seed=1).rounds == 1

    def test_members_partition_nodes(self, reg_medium):
        cl = build_clustering(reg_medium, seed=2)
        total = sum(len(cl.members(i)) for i in range(cl.k))
        assert total == reg_medium.n

    def test_centers_join_themselves(self, reg_medium):
        cl = build_clustering(reg_medium, seed=3)
        for i, c in enumerate(cl.centers):
            assert cl.s[c] == i

    def test_probability_formula(self):
        assert center_sampling_probability(100, 10, c=2.0) == pytest.approx(
            2.0 * np.log(100) / 10
        )
        assert center_sampling_probability(10, 1, c=5.0) == 1.0


class TestPRT:
    def test_dfs_timestamps_bounded(self, reg_small):
        pi = dfs_timestamps(reg_small)
        assert pi[0] == 0
        assert len(np.unique(pi)) == reg_small.n  # distinct first-visits
        assert pi.max() <= 2 * (reg_small.n - 1)

    def test_dfs_walk_property(self, reg_small):
        """d(u, w) <= |pi(u) - pi(w)| — the inequality PRT's proof needs."""
        from repro.graphs import bfs_distances

        pi = dfs_timestamps(reg_small)
        d0 = bfs_distances(reg_small, 0)
        for v in range(reg_small.n):
            assert d0[v] <= pi[v]

    def test_exact_distances(self, reg_small):
        res = prt_apsp(reg_small)
        rows = [bfs_distances(reg_small, v) for v in range(reg_small.n)]
        assert np.array_equal(res.dist, np.stack(rows))

    def test_no_collisions_certified(self, q4):
        res = prt_apsp(q4)
        assert res.collisions_checked

    def test_virtual_rounds_linear(self, reg_small):
        res = prt_apsp(reg_small)
        assert res.virtual_rounds <= 4 * reg_small.n + 2  # 2π + D + 1

    def test_disconnected_raises(self):
        from repro.graphs import Graph

        with pytest.raises(ValidationError):
            prt_apsp(Graph(4, [(0, 1), (2, 3)]))


class TestTheorem4:
    def test_32_approximation_holds(self):
        g = random_regular(70, 14, seed=6)
        res = approx_apsp_unweighted(g, lam=14, C=1.2, seed=2)
        ok, worst = check_32_approximation(g, res.estimate)
        assert ok
        assert worst <= 3.0 + 1e-9

    def test_diagonal_zero(self):
        g = random_regular(70, 14, seed=6)
        res = approx_apsp_unweighted(g, lam=14, C=1.2, seed=2)
        assert (np.diag(res.estimate) == 0).all()

    def test_round_ledger_complete(self):
        g = random_regular(70, 14, seed=6)
        res = approx_apsp_unweighted(g, lam=14, C=1.2, seed=2)
        assert set(res.charged_rounds) == {
            "clustering",
            "learn_cluster_neighbors",
            "prt_on_cluster_graph",
            "intra_cluster_distances",
        }
        assert res.simulated_rounds["broadcast_s"] > 0
        assert res.rounds > 0

    def test_estimate_symmetric(self):
        g = random_regular(70, 14, seed=6)
        res = approx_apsp_unweighted(g, lam=14, C=1.2, seed=2)
        assert np.array_equal(res.estimate, res.estimate.T)

    def test_works_on_thick_cycle(self):
        g = thick_cycle(10, 8)  # λ = 16, D = 5
        res = approx_apsp_unweighted(g, lam=16, C=1.2, seed=4)
        ok, _ = check_32_approximation(g, res.estimate)
        assert ok


class TestBaswanaSen:
    def test_stretch_various_k(self, weighted_medium):
        for k in (2, 3):
            sp = baswana_sen_spanner(weighted_medium, k, seed=k)
            ok, worst = check_spanner_stretch(weighted_medium, sp.spanner, k)
            assert ok, f"stretch {worst} > {2*k-1}"

    def test_size_scales_down_with_k(self, weighted_medium):
        sizes = [
            baswana_sen_spanner(weighted_medium, k, seed=1).m for k in (1, 2, 3)
        ]
        assert sizes[0] == weighted_medium.m
        assert sizes[1] < sizes[0]

    def test_size_near_expected_bound(self):
        g = random_weights(random_regular(100, 20, seed=8), seed=9)
        sp = baswana_sen_spanner(g, 2, seed=3)
        assert sp.m <= 2 * sp.expected_size_bound(g.n)

    def test_k1_identity(self, weighted_medium):
        sp = baswana_sen_spanner(weighted_medium, 1, seed=1)
        assert sp.m == weighted_medium.m

    def test_spanner_is_subgraph_with_weights(self, weighted_medium):
        sp = baswana_sen_spanner(weighted_medium, 3, seed=2)
        for eid_sub in range(sp.spanner.m):
            u, v = sp.spanner.edge_endpoints(eid_sub)
            host_eid = weighted_medium.edge_id(u, v)
            assert sp.spanner.weights[eid_sub] == weighted_medium.weights[host_eid]

    def test_charged_rounds_k_squared(self, weighted_medium):
        assert baswana_sen_spanner(weighted_medium, 3, seed=1).charged_rounds == 9

    def test_unweighted_graph_ok(self, reg_small):
        sp = baswana_sen_spanner(reg_small, 2, seed=4)
        ok, _ = check_spanner_stretch(reg_small, sp.spanner, 2)
        assert ok

    def test_invalid_k(self, reg_small):
        with pytest.raises(ValidationError):
            baswana_sen_spanner(reg_small, 0)


class TestTheorem5:
    def test_weighted_apsp_stretch(self):
        g = random_weights(random_regular(60, 16, seed=10), seed=11)
        res = approx_apsp_weighted(g, k=3, lam=16, C=1.2, seed=5)
        ok, worst = check_weighted_stretch(g, res.estimate, 3)
        assert ok, f"stretch {worst}"

    def test_rounds_ledger(self):
        g = random_weights(random_regular(60, 16, seed=10), seed=11)
        res = approx_apsp_weighted(g, k=3, lam=16, C=1.2, seed=5)
        assert res.charged_rounds["baswana_sen"] == 9
        assert res.simulated_rounds["broadcast_spanner"] > 0
        assert res.messages_broadcast == res.spanner.m

    def test_rejects_unweighted(self, reg_small):
        with pytest.raises(ValidationError):
            approx_apsp_weighted(reg_small, k=2)

    def test_corollary1_k_values(self):
        assert corollary1_k(2) == 2
        k100 = corollary1_k(100)
        assert 2 <= k100 <= 4
        assert corollary1_k(10**6) >= corollary1_k(100)

    def test_corollary1_end_to_end(self):
        g = random_weights(random_regular(60, 16, seed=10), seed=11)
        k = corollary1_k(g.n)
        res = approx_apsp_weighted(g, k=k, lam=16, C=1.2, seed=6)
        ok, _ = check_weighted_stretch(g, res.estimate, k)
        assert ok
