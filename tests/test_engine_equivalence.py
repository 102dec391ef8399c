"""Property-based equivalence: vectorized backend == simulator, bit for bit.

The vectorized engine (:mod:`repro.engine`) inherits the simulator's
certification *by testing*: these tests assert exact equality of parents,
dists, children, round counts, congestion, and message/bit totals across
random graphs, edge masks, and multi-channel configurations. Any divergence
is a bug in the fast path, never an accepted approximation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.broadcast import fast_broadcast, uniform_random_placement
from repro.core.decomposition import random_partition
from repro.core.lambda_search import find_packing_unknown_lambda
from repro.core.tree_packing import build_packing_with_retry, build_tree_packing
from repro.engine import BACKENDS, validate_backend
from repro.engine.fastpath import vectorized_tree_broadcast
from repro.engine.verify import (
    check_apsp_pipeline,
    check_bfs,
    check_broadcast_pipeline,
    check_clustering,
    check_combined_broadcast,
    check_coverage_repair,
    check_cuts_pipeline,
    check_fault_paths,
    check_faulty_bfs,
    check_kernels,
    check_leader,
    check_numbering,
    check_parallel_bfs,
    check_redundant_broadcast,
    check_root_policies,
    check_spanner,
    check_sparsifier,
    check_tournament,
    check_tree_broadcast,
    check_unknown_lambda_broadcast,
    check_weighted_apsp,
    random_connected_graph,
    random_edge_masks,
    random_fault_plan,
    verify_equivalence,
)
from repro.graphs import Graph, path_of_cliques, random_weights, thick_cycle
from repro.primitives.bfs import run_bfs, run_parallel_bfs
from repro.util.errors import BandwidthExceeded, ValidationError

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBFSEquivalence:
    @_SETTINGS
    @given(
        n=st.integers(2, 20),
        extra=st.integers(0, 24),
        seed=st.integers(0, 10_000),
        root_pick=st.integers(0, 1_000_000),
    )
    def test_single_channel(self, n, extra, seed, root_pick):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_bfs(g, root_pick % n) == []

    @_SETTINGS
    @given(
        n=st.integers(2, 18),
        extra=st.integers(0, 20),
        seed=st.integers(0, 10_000),
        parts=st.integers(1, 4),
    )
    def test_multi_channel_masks(self, n, extra, seed, parts):
        g = random_connected_graph(n, extra, seed=seed)
        masks = random_edge_masks(g, parts, seed=seed + 1)
        assert check_parallel_bfs(g, masks) == []
        # Masked single-channel BFS, including classes that may not span.
        assert check_bfs(g, 0, edge_mask=masks[0]) == []

    def test_single_node_graph(self):
        from repro.graphs import Graph

        g = Graph(1, [])
        assert check_bfs(g, 0) == []

    def test_disconnected_mask_exact_dists(self):
        g = thick_cycle(6, 3)
        mask = np.zeros(g.m, dtype=bool)
        mask[:4] = True
        assert check_bfs(g, 0, edge_mask=mask) == []

    def test_invalid_backend_rejected(self):
        g = thick_cycle(4, 3)
        with pytest.raises(ValidationError):
            run_bfs(g, 0, backend="gpu")
        assert validate_backend(BACKENDS[0]) == "simulator"


class TestPrologueEquivalence:
    @_SETTINGS
    @given(
        n=st.integers(2, 20),
        extra=st.integers(0, 24),
        seed=st.integers(0, 10_000),
    )
    def test_leader_election(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_leader(g) == []

    @_SETTINGS
    @given(
        n=st.integers(2, 18),
        extra=st.integers(0, 20),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    def test_numbering(self, n, extra, seed, data):
        g = random_connected_graph(n, extra, seed=seed)
        counts = data.draw(
            st.lists(st.integers(0, 5), min_size=n, max_size=n).map(np.asarray)
        )
        assert check_numbering(g, counts) == []


class TestPipelineEquivalence:
    @_SETTINGS
    @given(
        n=st.integers(2, 16),
        extra=st.integers(0, 18),
        seed=st.integers(0, 10_000),
        parts=st.integers(1, 3),
        k=st.integers(0, 30),
    )
    def test_tree_broadcast_rounds_and_metrics(self, n, extra, seed, parts, k):
        g = random_connected_graph(n, extra, seed=seed)
        masks = random_edge_masks(g, parts, seed=seed + 2)
        assert check_tree_broadcast(g, masks, k, seed=seed + 3) == []

    def test_oversized_payload_raises_like_simulator(self):
        g = thick_cycle(4, 3)
        tree = run_bfs(g, 0, backend="vectorized")
        with pytest.raises(BandwidthExceeded):
            vectorized_tree_broadcast(g, {0: tree}, {0: {0: [1 << 200]}})

    def test_overlapping_trees_rejected(self):
        g = thick_cycle(4, 3)
        tree = run_bfs(g, 0, backend="vectorized")
        with pytest.raises(ValidationError):
            vectorized_tree_broadcast(g, {0: tree, 1: tree}, {0: {0: [1]}, 1: {0: [2]}})

    def test_non_bfs_layered_tree_rejected(self):
        g = thick_cycle(4, 3)
        tree = run_bfs(g, 0, backend="vectorized")
        tree.dist = tree.dist + (tree.dist > 0)  # non-roots one layer too deep
        with pytest.raises(ValidationError):
            vectorized_tree_broadcast(g, {0: tree}, {0: {0: [1]}})


class TestPackingEquivalence:
    def test_vectorized_packing_validates_and_matches(self):
        g = thick_cycle(10, 6)
        decomp = random_partition(g, 2, seed=4)
        sim = build_tree_packing(decomp, backend="simulator")
        vec = build_tree_packing(decomp, backend="vectorized")
        vec.validate()  # TreePacking certification of the fast path
        assert vec.is_edge_disjoint
        assert sim.construction_rounds == vec.construction_rounds
        assert np.array_equal(sim.edge_tree_count, vec.edge_tree_count)
        for a, b in zip(sim.trees, vec.trees):
            assert np.array_equal(a.parent, b.parent)
            assert np.array_equal(a.depth_of, b.depth_of)

    def test_unknown_lambda_search_same_trace(self):
        g = path_of_cliques(3, 8, 2)
        sim = find_packing_unknown_lambda(g, seed=2, C=1.0, backend="simulator")
        vec = find_packing_unknown_lambda(g, seed=2, C=1.0, backend="vectorized")
        assert sim.guesses == vec.guesses
        assert sim.validation_rounds == vec.validation_rounds
        assert sim.seeds == vec.seeds
        assert sim.accepted_guess == vec.accepted_guess
        assert sim.packing.construction_rounds == vec.packing.construction_rounds


class TestEndToEndBroadcast:
    def test_thick_cycle_ledgers_match(self):
        g = thick_cycle(8, 6)
        assert check_broadcast_pipeline(g, 40, seed=5, lam=12) == []

    @_SETTINGS
    @given(
        n=st.integers(4, 14),
        extra=st.integers(4, 20),
        seed=st.integers(0, 10_000),
        k=st.integers(1, 20),
    )
    def test_random_graph_ledgers_match(self, n, extra, seed, k):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_broadcast_pipeline(g, k, seed=seed) == []

    def test_combined_broadcast_winner_and_ledgers_match(self):
        g = thick_cycle(8, 6)
        assert check_combined_broadcast(g, 24, seed=7) == []

    @_SETTINGS
    @given(
        n=st.integers(4, 12),
        extra=st.integers(4, 16),
        seed=st.integers(0, 10_000),
        k=st.integers(1, 12),
    )
    def test_combined_broadcast_random_graphs(self, n, extra, seed, k):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_combined_broadcast(g, k, seed=seed) == []

    def test_unknown_lambda_trace_matches(self):
        g = thick_cycle(6, 5)
        assert check_unknown_lambda_broadcast(g, 12, seed=3) == []

    def test_weighted_apsp_ledgers_match(self):
        g = random_weights(thick_cycle(6, 5), seed=2)
        assert check_weighted_apsp(g, 2, seed=4) == []

    def test_vectorized_fast_broadcast_delivers(self):
        g = thick_cycle(10, 8)
        pl = uniform_random_placement(g.n, 60, seed=9)
        res = fast_broadcast(g, pl, lam=16, C=1.5, seed=3, backend="vectorized")
        assert res.delivered and res.k == 60
        assert res.rounds == sum(res.phases.values())


class TestPipelineTwins:
    """APSP + cut-sparsifier vectorized paths: bit-identical to the loops."""

    @_SETTINGS
    @given(
        n=st.integers(6, 24),
        extra=st.integers(4, 30),
        seed=st.integers(0, 10_000),
    )
    def test_clustering_port_matches_reference(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_clustering(g, seed=seed + 1) == []

    @_SETTINGS
    @given(
        n=st.integers(2, 24),
        extra=st.integers(0, 30),
        seed=st.integers(0, 10_000),
        k=st.integers(2, 4),
        weighted=st.booleans(),
        high=st.sampled_from((2, 100)),
    )
    def test_spanner_backends_identical(self, n, extra, seed, k, weighted, high):
        # Weights in {1, 2} make (w, eid) ties common; 1–100 rarely tie.
        g = random_connected_graph(n, extra, seed=seed)
        if weighted:
            g = random_weights(g, high=high, seed=seed + 1)
        assert check_spanner(g, k, seed=seed + 2) == []

    @_SETTINGS
    @given(
        n=st.integers(4, 20),
        extra=st.integers(10, 40),
        seed=st.integers(0, 10_000),
        weighted=st.booleans(),
        high=st.sampled_from((2, 100)),
    )
    def test_sparsifier_backends_identical(self, n, extra, seed, weighted, high):
        g = random_connected_graph(n, extra, seed=seed)
        if weighted:
            g = random_weights(g, high=high, seed=seed + 1)
        assert check_sparsifier(g, eps=0.5, seed=seed + 2, tau=2) == []

    def test_apsp_pipeline_ledgers_match(self):
        g = thick_cycle(8, 6)
        assert check_apsp_pipeline(g, seed=5, lam=12) == []

    def test_cuts_pipeline_ledgers_match(self):
        g = thick_cycle(8, 6)
        assert check_cuts_pipeline(g, eps=0.4, seed=6, lam=12, tau=2) == []

    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_random_apsp_and_cuts_pipelines(self, seed):
        g = random_connected_graph(10 + seed % 8, 20, seed=seed)
        assert check_apsp_pipeline(g, seed=seed + 1) == []
        assert check_cuts_pipeline(g, eps=0.5, seed=seed + 2, tau=2) == []


class TestAwkwardInputs:
    """The inputs the randomized sweep rarely produces (ISSUE 2 satellite)."""

    def test_disconnected_graph_bfs(self):
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
        assert check_bfs(g, 0) == []
        assert check_bfs(g, 3) == []

    def test_masked_bfs_with_isolated_last_node(self):
        # Node 3 has no edges and node 2 has two: the masked CSR must still
        # end node 2's block after both of its arcs.
        g = Graph(4, [(0, 2), (1, 2)])
        full = np.ones(g.m, dtype=bool)
        assert check_bfs(g, 0, edge_mask=full) == []
        assert np.array_equal(g.masked_csr(full)[0], g._indptr)
        halves = [np.array([True, False]), np.array([False, True])]
        for mask, (indptr, indices) in zip(halves, g.disjoint_masked_csrs(halves)):
            sub = g.edge_subgraph(mask)
            assert np.array_equal(indptr, sub._indptr)
            assert np.array_equal(indices, sub._indices)

    def test_disconnected_graph_spanner(self):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
        assert check_spanner(g, 2, seed=3) == []
        assert check_spanner(g, 3, seed=4) == []

    def test_weighted_graph_bfs_ignores_weights(self):
        g = random_weights(thick_cycle(5, 3), seed=2)
        assert check_bfs(g, 4) == []
        masks = random_edge_masks(g, 2, seed=3)
        assert check_parallel_bfs(g, masks) == []

    def test_weighted_sparsifier_weighted_host(self):
        g = random_weights(random_connected_graph(14, 40, seed=9), seed=10)
        assert check_sparsifier(g, eps=0.5, seed=11, tau=2) == []

    def test_single_node_graph_everywhere(self):
        g = Graph(1, [])
        assert check_bfs(g, 0) == []
        assert check_spanner(g, 2, seed=1) == []
        assert check_sparsifier(g, eps=0.5, seed=2, tau=1) == []
        # Pipelined broadcast degenerates to the root popping its own queue.
        tree = run_bfs(g, 0, backend="vectorized")
        out = vectorized_tree_broadcast(g, {0: tree}, {0: {0: [1, 2, 3]}})
        assert out.rounds == 2 and out.k_total == 3
        # Parallel BFS over the one empty edge mask, and the packing and
        # fast broadcast built on it, run and agree on both backends.
        assert check_parallel_bfs(g, [np.zeros(0, dtype=bool)]) == []
        runs = {}
        for backend in BACKENDS:
            packing = build_tree_packing(random_partition(g, 1, seed=0), backend=backend)
            retried, attempts = build_packing_with_retry(g, 1, seed=0, backend=backend)
            fast = fast_broadcast(g, {0: 3}, lam=1, backend=backend)
            runs[backend] = (
                packing.construction_rounds,
                retried.construction_rounds,
                attempts,
                fast.phases,
                fast.max_congestion,
            )
        assert runs["simulator"] == runs["vectorized"]

    def test_all_masked_edge_set(self):
        g = thick_cycle(5, 3)
        empty = np.zeros(g.m, dtype=bool)
        assert check_bfs(g, 0, edge_mask=empty) == []
        assert check_parallel_bfs(g, [empty, empty.copy()]) == []

    def test_full_mask_equals_unmasked(self):
        g = thick_cycle(5, 3)
        full = np.ones(g.m, dtype=bool)
        a = run_bfs(g, 2, edge_mask=full, backend="vectorized")
        b = run_bfs(g, 2, backend="vectorized")
        assert np.array_equal(a.parent, b.parent) and a.rounds == b.rounds


class TestMaskedCSRMemoization:
    def test_cache_hit_on_repeated_mask(self):
        g = thick_cycle(6, 4)
        mask = random_edge_masks(g, 2, seed=1)[0]
        indptr1, indices1 = g.masked_csr(mask)
        assert g.masked_csr_hits == 0
        indptr2, indices2 = g.masked_csr(mask.copy())  # equal content, new array
        assert g.masked_csr_hits == 1
        assert indptr1 is indptr2 and indices1 is indices2
        # A different mask is a different cache entry, not a stale hit.
        other = ~mask
        indptr3, _ = g.masked_csr(other)
        assert g.masked_csr_hits == 1
        assert not np.array_equal(indptr1, indptr3)

    # Parallel BFS sweeps each decomposition once, so its channel CSRs are
    # built fresh by ``disjoint_masked_csrs`` and never memoized: a repeat
    # run rebuilds them to the same result and leaves the memo empty. The
    # two tests keep their historical IDs from when these runs hit the memo.
    @staticmethod
    def _assert_repeat_run_rebuilds(parts):
        g = thick_cycle(6, 4)
        masks = random_edge_masks(g, parts, seed=2)
        first, first_rounds = run_parallel_bfs(g, masks, backend="vectorized")
        again, again_rounds = run_parallel_bfs(g, masks, backend="vectorized")
        assert first_rounds == again_rounds
        for a, b in zip(first, again, strict=True):
            assert np.array_equal(a.parent, b.parent)
            assert np.array_equal(a.dist, b.dist) and a.rounds == b.rounds
        assert g._masked_csr_cache == {} and g.masked_csr_hits == 0

    def test_parallel_bfs_reuses_cached_csr(self):
        self._assert_repeat_run_rebuilds(1)

    def test_batched_parallel_bfs_reuses_cached_csr(self):
        self._assert_repeat_run_rebuilds(3)

    def test_none_mask_is_not_cached_copy(self):
        g = thick_cycle(6, 4)
        indptr, indices = g.masked_csr(None)
        assert indptr is g._indptr and indices is g._indices
        assert g.masked_csr_hits == 0


class TestFaultEngineEquivalence:
    """Fault-aware engine (ISSUE 5): drops, receipts, and the fault RNG
    stream must be bit-identical to the FaultySimulator execution."""

    @_SETTINGS
    @given(
        n=st.integers(2, 20),
        extra=st.integers(0, 24),
        seed=st.integers(0, 10_000),
        rate=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        masked=st.booleans(),
    )
    def test_faulty_bfs_backends_identical(self, n, extra, seed, rate, masked):
        g = random_connected_graph(n, extra, seed=seed)
        plan = random_fault_plan(g, seed=seed + 1, rate=rate)
        mask = random_edge_masks(g, 2, seed=seed + 2)[0] if masked else None
        assert check_faulty_bfs(g, seed % n, plan, fault_seed=seed, edge_mask=mask) == []

    @_SETTINGS
    @given(
        n=st.integers(4, 16),
        extra=st.integers(4, 24),
        seed=st.integers(0, 10_000),
        k=st.integers(0, 20),
        parts=st.integers(1, 3),
        redundancy=st.integers(1, 3),
    )
    def test_redundant_broadcast_backends_identical(
        self, n, extra, seed, k, parts, redundancy
    ):
        g = random_connected_graph(n, extra, seed=seed)
        assert (
            check_redundant_broadcast(
                g, k, seed=seed, parts=parts, redundancy=redundancy
            )
            == []
        )

    def test_every_adversary_type_on_a_packing_host(self):
        """The acceptance sweep: each AdversarySchedule flavor, both
        backends, exact DeliveryReport + RNG-state equality."""
        from repro.congest.adversary import (
            MobileAdversary,
            RandomLoss,
            StaticSaboteur,
            TargetedCutAdversary,
            compose_schedules,
        )
        from repro.core import (
            build_packing_with_retry,
            redundant_broadcast,
            tree_edge_ids,
            uniform_random_placement,
        )

        g = thick_cycle(8, 5)
        packing, _ = build_packing_with_retry(g, 3, seed=1, distributed=False)
        pl = uniform_random_placement(g.n, 30, seed=2)
        # A mobile adversary over trees 0 and 1 for the whole run hits late
        # downcast crossings, including arcs of tree 0 that are already dead.
        run = redundant_broadcast(
            g, pl, packing, redundancy=2, seed=4, backend="vectorized"
        ).rounds
        pool = sorted(tree_edge_ids(packing, 0) | tree_edge_ids(packing, 1))
        dead_and_mobile = StaticSaboteur(tree_index=0) + MobileAdversary.sweeping(
            pool, budget=6, rounds=2 * run
        )
        schedules = [
            None,
            StaticSaboteur(tree_index=0),
            MobileAdversary.sweeping(range(g.m), budget=6, rounds=12),
            RandomLoss(0.2),
            RandomLoss(1.0),
            TargetedCutAdversary(eps=0.5, budget=4, candidates=4, seed=3, tau=2),
            StaticSaboteur(tree_index=1) + RandomLoss(0.1),
            compose_schedules(
                MobileAdversary({2: {0, 1}}), RandomLoss(0.05), StaticSaboteur({5})
            ),
            dead_and_mobile,
            dead_and_mobile + RandomLoss(0.2),  # the same, on the replay
            # Half of tree 0 dead: mobile hits on dead arcs whose parent
            # holds the emission must not count a second drop.
            StaticSaboteur(sorted(tree_edge_ids(packing, 0))[::2])
            + MobileAdversary.sweeping(pool, budget=6, rounds=2 * run),
        ]
        for adv in schedules:
            reports = {
                backend: redundant_broadcast(
                    g,
                    pl,
                    packing,
                    redundancy=2,
                    adversary=adv,
                    seed=4,
                    fault_seed=5,
                    backend=backend,
                    collect_receipts=True,
                )
                for backend in BACKENDS
            }
            sim, vec = reports["simulator"], reports["vectorized"]
            assert sim.rounds == vec.rounds, adv
            assert sim.dropped_messages == vec.dropped_messages, adv
            assert sim.per_message_coverage == vec.per_message_coverage, adv
            assert sim.receipts == vec.receipts, adv
            assert sim.fault_rng_state == vec.fault_rng_state, adv
            assert (sim.total_messages, sim.total_bits) == (
                vec.total_messages,
                vec.total_bits,
            ), adv

    @pytest.mark.parametrize("rate", [0.0, 0.01])
    def test_one_message_reaches_two_roots_in_one_receipt_byte(self, rate):
        """Roots 0 and 1 share a byte of the receipt matrix. The message at
        node 6 (depth 1 in both trees) reaches both roots in round 1, so
        one receipt write sets two bits of one byte. Killing the arc into
        each root in the other tree leaves that write as the only way the
        roots receive it. Rate 0 takes the span path, 0.01 the replay; only
        the replay has no second record of a root's up arrivals (the span
        path's downcast marks every emission as received by its root)."""
        from repro.core import build_packing_with_retry, redundant_broadcast
        from repro.core.resilient import _bfs_view

        g = thick_cycle(8, 5)
        packing, _ = build_packing_with_retry(
            g, 2, seed=1, distributed=False, roots=[0, 1]
        )
        views = [_bfs_view(packing, c) for c in (0, 1)]
        assert [int(t.dist[6]) for t in views] == [1, 1]
        dead = [g.edge_id(int(views[1 - r].parent[r]), r) for r in (0, 1)]
        reports = {
            backend: redundant_broadcast(
                g,
                {6: 1},
                packing,
                redundancy=2,
                dead_edges=dead,
                drop_rate=rate,
                seed=4,
                fault_seed=5,
                backend=backend,
                collect_receipts=True,
            )
            for backend in BACKENDS
        }
        sim, vec = reports["simulator"], reports["vectorized"]
        assert {0, 1} <= next(iter(sim.receipts.values()))
        assert sim.receipts == vec.receipts
        assert (sim.rounds, sim.dropped_messages) == (vec.rounds, vec.dropped_messages)
        assert sim.fault_rng_state == vec.fault_rng_state


class TestRobustnessEquivalence:
    """ISSUE 7: multi-root packings, the repair loop, and the tournament
    surface must be bit-identical across backends."""

    @_SETTINGS
    @given(
        n=st.integers(4, 18),
        extra=st.integers(4, 24),
        seed=st.integers(0, 10_000),
        parts=st.integers(1, 3),
    )
    def test_root_policies_backends_identical(self, n, extra, seed, parts):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_root_policies(g, parts, seed=seed + 1) == []

    @_SETTINGS
    @given(
        n=st.integers(4, 16),
        extra=st.integers(4, 24),
        seed=st.integers(0, 10_000),
        k=st.integers(0, 20),
        parts=st.integers(1, 3),
    )
    def test_coverage_repair_backends_identical(self, n, extra, seed, k, parts):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_coverage_repair(g, k, seed=seed + 1, parts=parts) == []

    def test_tournament_payloads_identical(self):
        assert check_tournament(thick_cycle(8, 5), 24, seed=3) == []

    def test_tournament_full_grid_on_packing_host(self):
        """Every registered adversary x a policy-diverse defense slate."""
        from repro.congest.tournament import (
            DEFAULT_ADVERSARIES,
            run_tournament,
        )
        from repro.engine import BACKENDS

        g = thick_cycle(8, 5)
        payloads = {}
        for backend in BACKENDS:
            res = run_tournament(
                g, 24, parts=3,
                adversaries=list(DEFAULT_ADVERSARIES),
                defenses=["shared-r1", "spread-r2", "cut-aware-r2"],
                seed=2, backend=backend, mobile_rounds=64,
            )
            pay = res.to_payload()
            assert pay.pop("backend") == backend
            payloads[backend] = pay
        assert payloads["simulator"] == payloads["vectorized"]


class TestStepStrategyEquivalence:
    """The span-batched engine paths against the simulator: one
    deterministic anchor here; the randomized property suite lives in
    ``tests/test_span_engine.py``."""

    def test_step_checks_on_packing_host(self):
        g = thick_cycle(8, 5)
        masks = random_edge_masks(g, 2, seed=3)
        assert check_tree_broadcast(g, masks, 20, seed=4) == []
        assert check_kernels(g, seed=4) == []
        assert check_fault_paths(g, 20, seed=5, parts=2) == []


class TestHarnessSweep:
    def test_randomized_sweep_is_clean(self):
        report = verify_equivalence(trials=6, seed=11, max_n=20)
        assert report.checks == 6 * 25
        assert report.ok, report.mismatches
