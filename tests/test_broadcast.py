"""Tests for the k-broadcast algorithms (Theorem 1, Lemma 1, Section 3.2)."""

import numpy as np
import pytest

from repro.core import (
    FaultCell,
    build_packing_with_retry,
    combined_broadcast,
    cut_adversarial_placement,
    evaluate_fault_grid,
    fast_broadcast,
    fast_broadcast_batch,
    random_partition,
    build_tree_packing,
    single_source_placement,
    textbook_broadcast,
    textbook_broadcast_batch,
    uniform_random_placement,
)
from repro.core.resilient import redundant_broadcast
from repro.graphs import (
    Graph,
    barbell,
    cycle_graph,
    diameter,
    min_cut,
    path_graph,
    random_regular,
    thick_cycle,
)
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def host():
    """80 nodes, λ = δ = 24: supports a 3-part decomposition."""
    return random_regular(80, 24, seed=4)


class TestPlacements:
    def test_uniform_total(self):
        pl = uniform_random_placement(50, 200, seed=1)
        assert sum(pl.values()) == 200
        assert all(0 <= v < 50 for v in pl)

    def test_single_source(self):
        assert single_source_placement(3, 7) == {3: 7}

    def test_cut_adversarial(self):
        g = barbell(6)
        side, _ = min_cut(g)
        pl = cut_adversarial_placement(g, side, 20)
        assert sum(pl.values()) == 20
        assert all(side[v] for v in pl)

    def test_cut_adversarial_empty_side(self):
        g = barbell(6)
        with pytest.raises(ValidationError):
            cut_adversarial_placement(g, np.zeros(g.n, dtype=bool), 5)


class TestPlacementRange:
    """A placement node outside [0, n) fails on both backends alike; node
    -1 used to alias node n-1 in the vectorized prologue's count array."""

    @pytest.mark.parametrize("backend", ["simulator", "vectorized"])
    @pytest.mark.parametrize("node", [-1, "n"])
    def test_entry_points_reject_node(self, backend, node):
        g, t = cycle_graph(6), thick_cycle(6, 4)
        packing, _ = build_packing_with_retry(
            t, 2, seed=1, distributed=False, backend="vectorized"
        )
        calls = [
            (g, lambda pl: textbook_broadcast(g, pl, backend=backend)),
            (t, lambda pl: fast_broadcast(t, pl, backend=backend)),
            (t, lambda pl: combined_broadcast(t, pl, backend=backend)),
            (t, lambda pl: redundant_broadcast(t, pl, packing, backend=backend)),
        ]
        for host, call in calls:
            v = host.n if node == "n" else node
            with pytest.raises(ValidationError):
                call({v: 2})


class TestDisconnectedHost:
    """Every broadcast entry point fails a disconnected host with
    ValidationError on both backends; leader election used to raise
    RuntimeError before the prologue could say so."""

    @pytest.mark.parametrize("backend", ["simulator", "vectorized"])
    def test_entry_points_raise_validation_error(self, backend):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        pl = {0: 2, 4: 1}
        calls = [
            lambda: textbook_broadcast(g, pl, backend=backend),
            lambda: fast_broadcast(g, pl, lam=2, backend=backend),
            lambda: textbook_broadcast_batch(g, [pl], backend=backend),
            lambda: fast_broadcast_batch(g, [pl], lam=2, backend=backend),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=r"component leaders \[0, 3\]"):
                call()


class TestIntegerInputs:
    """Placement node ids, message counts and redundancy must be integers.
    A fractional count used to be delivered as a fractional k, a float node
    id raised IndexError, and the vectorized grid truncated a fractional
    redundancy to an integer."""

    @pytest.mark.parametrize("backend", ["simulator", "vectorized"])
    @pytest.mark.parametrize("placement", [{0: 1.5}, {0: 2.5}, {2.0: 3}])
    def test_broadcast_entry_points_reject_non_integers(self, backend, placement):
        g = thick_cycle(6, 4)
        calls = [
            lambda: textbook_broadcast(g, placement, backend=backend),
            lambda: fast_broadcast(g, placement, lam=8, backend=backend),
            lambda: textbook_broadcast_batch(g, [placement], backend=backend),
            lambda: fast_broadcast_batch(g, [{0: 1}, placement], lam=8, backend=backend),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="must be integers"):
                call()

    @pytest.mark.parametrize("backend", ["simulator", "vectorized"])
    def test_fractional_redundancy_rejected(self, backend):
        g = thick_cycle(6, 4)
        packing, _ = build_packing_with_retry(g, 2, seed=1, distributed=False)
        with pytest.raises(ValidationError, match="redundancy must be an integer"):
            evaluate_fault_grid(
                g, {0: 2}, packing, [FaultCell(redundancy=1.5)], backend=backend
            )
        with pytest.raises(ValidationError, match="redundancy must be an integer"):
            redundant_broadcast(g, {0: 2}, packing, redundancy=1.5, backend=backend)

    @pytest.mark.parametrize("backend", ["simulator", "vectorized"])
    def test_integer_like_inputs_still_accepted(self, backend):
        g = thick_cycle(6, 4)
        plain = textbook_broadcast(g, {0: 2, 5: 1}, backend=backend)
        numpy_keys = textbook_broadcast(
            g, {np.int64(0): np.int32(2), np.uint8(5): True}, backend=backend
        )
        assert (numpy_keys.k, numpy_keys.phases) == (plain.k, plain.phases)
        assert textbook_broadcast(g, {}, backend=backend).k == 0


class TestTextbookBroadcast:
    def test_delivers_and_counts(self, host):
        pl = uniform_random_placement(host.n, 100, seed=2)
        res = textbook_broadcast(host, pl)
        assert res.delivered and res.k == 100 and res.parts == 1
        assert set(res.phases) == {
            "leader_election",
            "global_bfs",
            "numbering",
            "pipeline",
        }

    def test_rounds_near_D_plus_k(self, host):
        k = 120
        res = textbook_broadcast(host, uniform_random_placement(host.n, k, seed=3))
        D = diameter(host)
        assert res.rounds <= 6 * D + 2 * k + 10
        assert res.rounds >= k  # k messages must leave the root one by one

    def test_congestion_O_k(self, host):
        k = 60
        res = textbook_broadcast(host, uniform_random_placement(host.n, k, seed=4))
        assert res.max_congestion <= 2 * k

    def test_single_message(self, host):
        res = textbook_broadcast(host, {5: 1})
        assert res.k == 1
        assert res.rounds <= 8 * diameter(host) + 10

    def test_disconnected_raises(self):
        from repro.graphs import Graph

        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(Exception):
            textbook_broadcast(g, {0: 3})


class TestFastBroadcast:
    def test_delivers_with_multiple_trees(self, host):
        pl = uniform_random_placement(host.n, 150, seed=5)
        res = fast_broadcast(host, pl, lam=24, C=1.2, seed=6)
        assert res.delivered
        assert res.parts >= 2
        assert "tree_packing" in res.phases

    def test_beats_textbook_at_large_k(self):
        # High-diameter, high-λ host: the paper's winning regime.
        g = thick_cycle(14, 10)  # n=140, λ=20, D=7
        k = 500
        pl = uniform_random_placement(g.n, k, seed=7)
        fast = fast_broadcast(g, pl, lam=20, C=1.2, seed=8)
        text = textbook_broadcast(g, pl)
        assert fast.parts >= 2
        assert fast.rounds < text.rounds

    def test_congestion_split_across_trees(self, host):
        k = 120
        pl = uniform_random_placement(host.n, k, seed=9)
        fast = fast_broadcast(host, pl, lam=24, C=1.2, seed=10)
        # Per-tree load is ~k/parts, so per-edge congestion must be well
        # below the single-tree 2k.
        assert fast.max_congestion <= 2 * (k // fast.parts) + 10

    def test_lambda_one_degenerates_to_single_tree(self):
        g = barbell(8, bridge_len=3)
        pl = uniform_random_placement(g.n, 30, seed=1)
        res = fast_broadcast(g, pl, lam=1, seed=2)
        assert res.parts == 1
        assert res.delivered

    def test_lambda_computed_when_omitted(self, host):
        res = fast_broadcast(host, {0: 10}, seed=3)
        assert res.delivered

    def test_reuse_decomposition(self, host):
        decomp = random_partition(host, 3, seed=11)
        pl = uniform_random_placement(host.n, 50, seed=12)
        res = fast_broadcast(host, pl, decomposition=decomp, seed=11)
        assert res.parts == 3 and res.delivered

    def test_reuse_packing_charges_zero_construction(self, host):
        decomp = random_partition(host, 3, seed=11)
        packing = build_tree_packing(decomp, distributed=False)
        res = fast_broadcast(host, {0: 20}, packing=packing)
        assert res.phases["tree_packing"] == 0
        assert res.delivered

    def test_distributed_and_centralized_packing_same_rounds(self, host):
        pl = uniform_random_placement(host.n, 40, seed=13)
        a = fast_broadcast(host, pl, lam=24, C=1.2, seed=14, distributed_packing=True)
        b = fast_broadcast(host, pl, lam=24, C=1.2, seed=14, distributed_packing=False)
        assert a.phases["pipeline"] == b.phases["pipeline"]
        # Packing rounds agree up to the charge convention (+/- 1).
        assert abs(a.phases["tree_packing"] - b.phases["tree_packing"]) <= 1

    def test_messages_partitioned_by_contiguous_ranges(self, host):
        # k = parts * 10 exactly: each tree must carry exactly 10 messages.
        decomp = random_partition(host, 3, seed=11)
        packing = build_tree_packing(decomp, distributed=False)
        res = fast_broadcast(host, {0: 30}, packing=packing)
        assert res.k == 30 and res.parts == 3


class TestCombinedBroadcast:
    def test_picks_textbook_on_path(self):
        g = path_graph(40)
        res = combined_broadcast(g, {0: 5}, lam=1, seed=1)
        assert res.algorithm == "combined/textbook"
        assert res.delivered

    def test_picks_fast_on_thick_cycle_large_k(self):
        g = thick_cycle(14, 10)
        pl = uniform_random_placement(g.n, 600, seed=2)
        res = combined_broadcast(g, pl, lam=20, C=1.2, seed=3)
        assert res.algorithm == "combined/fast"
        assert res.delivered

    def test_small_k_prefers_textbook_even_when_connected(self, host):
        res = combined_broadcast(host, {0: 2}, lam=24, seed=4)
        assert res.algorithm == "combined/textbook"
