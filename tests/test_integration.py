"""Cross-module integration tests: full pipelines on shared workloads,
cross-validation between independent implementations, and failure injection."""

import numpy as np
import pytest

from repro.apsp import approx_apsp_unweighted, check_32_approximation
from repro.core import (
    broadcast_unknown_lambda,
    build_packing_with_retry,
    combined_broadcast,
    fast_broadcast,
    num_parts,
    textbook_broadcast,
    uniform_random_placement,
)
from repro.graphs import (
    bfs_distances,
    min_cut,
    random_regular,
    thick_cycle,
)
from repro.lower_bounds import verify_broadcast_meets_bound
from repro.theory import universal_optimality_ratio
from repro.util.bits import message_bit_budget


class TestEndToEndBroadcast:
    """One workload, every algorithm, mutual consistency."""

    @pytest.fixture(scope="class")
    def setup(self):
        g = thick_cycle(12, 10)  # n=120, λ=20, D=6
        k = 240
        pl = uniform_random_placement(g.n, k, seed=21)
        return g, k, pl

    def test_all_algorithms_deliver_and_fast_wins(self, setup):
        g, k, pl = setup
        fast = fast_broadcast(g, pl, lam=20, C=1.5, seed=22)
        text = textbook_broadcast(g, pl)
        combo = combined_broadcast(g, pl, lam=20, C=1.5, seed=22)
        assert fast.delivered and text.delivered and combo.delivered
        assert fast.rounds < text.rounds
        assert combo.rounds <= max(fast.rounds, text.rounds)

    def test_lower_bound_certificates(self, setup):
        g, k, pl = setup
        budget = message_bit_budget(g.n)
        for res in (
            fast_broadcast(g, pl, lam=20, C=1.5, seed=22),
            textbook_broadcast(g, pl),
        ):
            cert = verify_broadcast_meets_bound(
                g, k, res.rounds, message_bits=budget, bandwidth_bits=budget
            )
            assert cert.holds

    def test_universal_optimality_ratio_is_logarithmic(self, setup):
        """k = 2n: measured/(k/λ) must be O(log n) — the headline claim."""
        g, k, pl = setup
        fast = fast_broadcast(g, pl, lam=20, C=1.5, seed=22)
        ratio = universal_optimality_ratio(fast.rounds, k, 20)
        assert ratio <= 12 * np.log(g.n)

    def test_unknown_lambda_close_to_known(self, setup):
        g, k, pl = setup
        known = fast_broadcast(g, pl, lam=20, C=1.5, seed=22)
        unknown, search = broadcast_unknown_lambda(g, pl, seed=22, C=1.5)
        # Same asymptotics: within a small factor of the known-λ run.
        assert unknown.rounds <= 4 * known.rounds + 100


class TestPackingPipelineConsistency:
    def test_retry_helper_matches_direct_build(self):
        g = random_regular(80, 24, seed=4)
        parts = num_parts(24, g.n, C=1.5)
        packing, attempts = build_packing_with_retry(g, parts, seed=5, distributed=False)
        assert attempts >= 1
        packing.validate()
        assert packing.size == parts

    def test_broadcast_over_every_tree_alone_delivers(self):
        """Each tree of the packing is independently a working broadcast
        substrate (spanning + connected)."""
        from repro.core.broadcast import _bfs_view
        from repro.primitives.pipeline import run_tree_broadcast

        g = random_regular(80, 24, seed=4)
        packing, _ = build_packing_with_retry(g, 3, seed=6, distributed=False)
        for i in range(packing.size):
            out = run_tree_broadcast(
                g, {0: _bfs_view(packing, i)}, {0: {0: [1, 2, 3]}}
            )
            assert out.k_total == 3


class TestAPSPBroadcastInterplay:
    def test_apsp_uses_fast_broadcast_rounds_sublinearly(self):
        """Õ(n/λ) scaling: double λ (at same n) → broadcast phase shrinks."""
        g_lo = thick_cycle(15, 4)  # n=60, λ=8
        g_hi = thick_cycle(5, 12)  # n=60, λ=24
        r_lo = approx_apsp_unweighted(g_lo, lam=8, C=1.5, seed=2)
        r_hi = approx_apsp_unweighted(g_hi, lam=24, C=1.5, seed=2)
        ok_lo, _ = check_32_approximation(g_lo, r_lo.estimate)
        ok_hi, _ = check_32_approximation(g_hi, r_hi.estimate)
        assert ok_lo and ok_hi
        assert r_hi.simulated_rounds["broadcast_s"] < r_lo.simulated_rounds["broadcast_s"] * 1.5


class TestFailureInjection:
    def test_broadcast_detects_non_spanning_tree(self):
        """Injected fault: drop a tree edge from the packing — delivery
        verification must catch the loss, not silently succeed."""
        from repro.core.broadcast import _bfs_view
        from repro.primitives.bfs import BFSResult
        from repro.primitives.pipeline import run_tree_broadcast
        from repro.util.errors import ProtocolError, ValidationError

        g = random_regular(40, 6, seed=11)
        packing, _ = build_packing_with_retry(g, 1, seed=1, distributed=False)
        view = _bfs_view(packing, 0)
        # Cut off one leaf: set its parent to itself (orphaned island).
        leaf = next(
            v for v in range(g.n) if v != view.root and not view.children[v]
        )
        bad_parent = view.parent.copy()
        bad_parent[leaf] = leaf
        bad_children = [list(c) for c in view.children]
        bad_children[int(view.parent[leaf])].remove(leaf)
        bad_edge = view.parent_edge.copy()
        bad_edge[leaf] = -1
        bad = BFSResult(
            root=view.root,
            parent=bad_parent,
            dist=view.dist,
            children=bad_children,
            rounds=0,
            parent_edge=bad_edge,
        )
        with pytest.raises((ProtocolError, ValidationError)):
            run_tree_broadcast(g, {0: bad}, {0: {0: [1, 2]}})

    def test_min_cut_placement_is_hardest(self):
        """Adversarial placement across the min cut should not be easier
        than a uniform one (sanity for the Theorem 3 experiments)."""
        from repro.core import cut_adversarial_placement

        g = thick_cycle(12, 10)
        side, _ = min_cut(g)
        k = 200
        adv = cut_adversarial_placement(g, side, k)
        res = fast_broadcast(g, adv, lam=20, C=1.5, seed=3)
        assert res.delivered


class TestDistributedVsCentralizedCrossValidation:
    def test_bfs_implementations_agree_everywhere(self):
        from repro.primitives import run_bfs

        for seed in (1, 2):
            g = random_regular(60, 8, seed=seed)
            for root in (0, 7):
                tree = run_bfs(g, root)
                assert np.array_equal(tree.dist, bfs_distances(g, root))

    def test_packing_rounds_match_depth_observation(self):
        g = random_regular(80, 24, seed=4)
        packing, attempts = build_packing_with_retry(g, 2, seed=7, distributed=True)
        per_attempt = packing.construction_rounds // attempts
        assert packing.max_depth <= per_attempt <= packing.max_depth + 2
