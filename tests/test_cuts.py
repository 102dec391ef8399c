"""Tests for the cut-approximation application (Theorems 6–7)."""

import numpy as np
import pytest

from repro.cuts import (
    approx_all_cuts,
    bundle_size,
    effective_resistance_sparsifier,
    evaluate_cut_quality,
    koutis_xu_sparsifier,
)
from repro.graphs import (
    complete_graph,
    cut_value,
    random_weights,
    stoer_wagner,
    thick_cycle,
)
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def dense():
    """Dense host where sparsification actually shrinks the edge set."""
    return complete_graph(60)  # m = 1770


class TestBundleSize:
    def test_monotone_in_eps(self):
        assert bundle_size(200, 0.5) <= bundle_size(200, 0.2)

    def test_invalid_eps(self):
        with pytest.raises(ValidationError):
            bundle_size(100, 0.0)
        with pytest.raises(ValidationError):
            bundle_size(100, 1.5)


class TestKoutisXu:
    def test_sparsifies_dense_graph(self, dense):
        res = koutis_xu_sparsifier(dense, eps=0.5, seed=1, tau=3)
        assert res.m < dense.m
        assert res.levels >= 1

    def test_cut_quality_within_envelope(self, dense):
        res = koutis_xu_sparsifier(dense, eps=0.5, seed=1, tau=3)
        q = evaluate_cut_quality(dense, res.sparsifier, seed=2)
        assert q["max_rel_error"] <= 0.5

    def test_total_weight_preserved_in_expectation(self, dense):
        res = koutis_xu_sparsifier(dense, eps=0.5, seed=3, tau=3)
        assert res.sparsifier.total_weight() == pytest.approx(
            dense.total_weight(), rel=0.35
        )

    @pytest.mark.parametrize("backend", ["simulator", "vectorized"])
    def test_bundle_taking_every_edge_returns_the_host(self, backend):
        """m > τ·n, so one level runs, but its τ = 3 spanners (k = 3) take
        all 28 edges of K8, leaving nothing to sample: H is the host, weights
        included. Theorem 6 allows it (τ·k·n^{1+1/k} exceeds m). The repo
        benchmark's apsp-cuts workload hits the same case at n = 2000 with
        seed 2404, where four spanners take all 40,000 edges."""
        g = random_weights(complete_graph(8), 1, 2, seed=2)
        res = koutis_xu_sparsifier(g, eps=0.5, seed=0, tau=3, backend=backend)
        assert g.m > 3 * g.n
        assert res.levels == 1 and res.bundle_sizes == [3]
        assert res.sparsifier == g

    def test_small_graph_passthrough(self, reg_small):
        # τ·n exceeds m: nothing to do; the graph itself is the sparsifier.
        res = koutis_xu_sparsifier(reg_small, eps=0.3, seed=1)
        assert res.m == reg_small.m
        assert res.levels == 0

    def test_charged_rounds_positive_when_active(self, dense):
        res = koutis_xu_sparsifier(dense, eps=0.5, seed=1, tau=3)
        assert res.charged_rounds > 0

    def test_weighted_host(self):
        g = random_weights(complete_graph(40), seed=5)
        res = koutis_xu_sparsifier(g, eps=0.5, seed=6, tau=3)
        q = evaluate_cut_quality(g, res.sparsifier, seed=7)
        assert q["max_rel_error"] <= 0.6

    def test_deterministic_in_seed(self, dense):
        a = koutis_xu_sparsifier(dense, eps=0.5, seed=9, tau=3)
        b = koutis_xu_sparsifier(dense, eps=0.5, seed=9, tau=3)
        assert a.sparsifier == b.sparsifier


class TestEffectiveResistance:
    def test_cut_quality(self, dense):
        res = effective_resistance_sparsifier(dense, eps=0.3, seed=1)
        q = evaluate_cut_quality(dense, res.sparsifier, seed=2)
        assert q["max_rel_error"] <= 0.3

    def test_min_cut_preserved(self):
        g = thick_cycle(8, 5)
        res = effective_resistance_sparsifier(g, eps=0.25, seed=3)
        exact, _ = stoer_wagner(g)
        approx, _ = stoer_wagner(res.sparsifier)
        assert approx == pytest.approx(exact, rel=0.3)

    def test_size_guard(self):
        from repro.graphs import Graph

        big = Graph(2001, [(i, i + 1) for i in range(2000)])
        with pytest.raises(ValidationError):
            effective_resistance_sparsifier(big, eps=0.3)


class TestTheorem7Pipeline:
    def test_end_to_end(self):
        g = thick_cycle(10, 8)  # λ = 16, dense enough to sparsify
        res = approx_all_cuts(g, eps=0.5, lam=16, C=1.2, seed=4, tau=2)
        assert res.rounds > 0
        assert res.simulated_rounds["broadcast_sparsifier"] > 0
        q = evaluate_cut_quality(g, res.sparsifier.sparsifier, seed=5)
        assert q["max_rel_error"] <= 0.6

    def test_estimate_cut_accessor(self):
        g = thick_cycle(10, 8)
        res = approx_all_cuts(g, eps=0.5, lam=16, C=1.2, seed=4, tau=2)
        side = np.zeros(g.n, dtype=bool)
        side[: g.n // 2] = True
        est = res.estimate_cut(side)
        exact = cut_value(g, side)
        assert est == pytest.approx(exact, rel=0.6)


class TestEvaluateCutQuality:
    def test_identity_sparsifier_zero_error(self, reg_small):
        q = evaluate_cut_quality(reg_small, reg_small, seed=1)
        assert q["max_rel_error"] == 0.0

    def test_wrong_node_count_raises(self, reg_small):
        with pytest.raises(ValidationError):
            evaluate_cut_quality(reg_small, complete_graph(5), seed=1)
