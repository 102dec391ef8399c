"""Property tests for the span-batched engine paths.

The vectorized engine reads the Lemma 1 round count off the origin-depth
histogram, and the fault engine trades per-round steps for closed forms
where the plan allows (untouched trees, the downcast of touched ones,
total loss). These tests assert it is **bit-identical** to the
round-by-round simulator — receipts, rounds, bits, drops, and the fault
RNG stream — on randomized graphs and fault plans, including the
``drop_rate=1.0`` and single-node boundaries, and that the kernels match
their plain-Python references.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.verify import (
    check_fault_paths,
    check_faulty_bfs,
    check_kernels,
    check_tree_broadcast,
    random_connected_graph,
    random_edge_masks,
    random_fault_plan,
)
from repro.graphs import Graph, thick_cycle

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSpanPipelineEquivalence:
    """The Lemma 1 closed form vs the simulator, and the kernels (frontier
    sweeps, upcast spans, root service) vs their plain-Python references."""

    @_SETTINGS
    @given(
        n=st.integers(2, 18),
        extra=st.integers(0, 24),
        seed=st.integers(0, 10_000),
        parts=st.integers(1, 3),
        k=st.integers(0, 30),
    )
    def test_span_equals_round(self, n, extra, seed, parts, k):
        g = random_connected_graph(n, extra, seed=seed)
        masks = random_edge_masks(g, parts, seed=seed + 1)
        assert check_tree_broadcast(g, masks, k, seed=seed + 2) == []
        assert check_kernels(g, seed=seed + 2) == []

    def test_single_node_graph(self):
        g = Graph(1, [])
        masks = [np.zeros(0, dtype=bool)]
        assert check_tree_broadcast(g, masks, 3, seed=1) == []
        assert check_kernels(g, seed=1) == []

    def test_two_node_graph(self):
        g = Graph(2, [(0, 1)])
        masks = [np.ones(1, dtype=bool)]
        assert check_tree_broadcast(g, masks, 5, seed=2) == []
        assert check_kernels(g, seed=2) == []

    def test_deep_path_many_items(self):
        """A long path stresses the busy scan's layer shifting."""
        g = Graph(40, [(v, v + 1) for v in range(39)])
        masks = [np.ones(g.m, dtype=bool)]
        assert check_tree_broadcast(g, masks, 60, seed=3) == []
        assert check_kernels(g, seed=3) == []


class TestSpanFaultEquivalence:
    """Every fault-engine path vs the round-by-round FaultySimulator."""

    @_SETTINGS
    @given(
        n=st.integers(2, 16),
        extra=st.integers(0, 20),
        seed=st.integers(0, 10_000),
        k=st.integers(0, 20),
        parts=st.integers(1, 3),
    )
    def test_faulty_span_equals_round(self, n, extra, seed, k, parts):
        g = random_connected_graph(n, extra, seed=seed)
        assert check_fault_paths(g, k, seed=seed + 1, parts=parts) == []

    @_SETTINGS
    @given(seed=st.integers(0, 10_000), k=st.integers(0, 16))
    def test_total_loss_boundary(self, seed, k):
        """drop_rate=1.0: every coin flipped, nothing delivered — the
        closed form must burn the simulator's RNG stream exactly."""
        from repro.core.broadcast import uniform_random_placement
        from repro.core.resilient import redundant_broadcast
        from repro.core.tree_packing import build_packing_with_retry

        g = thick_cycle(6, 4)
        packing, _ = build_packing_with_retry(g, 2, seed=seed, distributed=False)
        placement = uniform_random_placement(g.n, k, seed=seed)
        reports = {
            backend: redundant_broadcast(
                g,
                placement,
                packing,
                redundancy=2,
                drop_rate=1.0,
                seed=seed,
                fault_seed=seed + 1,
                backend=backend,
                collect_receipts=True,
            )
            for backend in ("simulator", "vectorized")
        }
        a, b = reports["simulator"], reports["vectorized"]
        assert a.rounds == b.rounds
        assert a.dropped_messages == b.dropped_messages
        assert a.per_message_coverage == b.per_message_coverage
        assert a.receipts == b.receipts
        assert a.fault_rng_state == b.fault_rng_state
        assert (a.total_messages, a.total_bits) == (b.total_messages, b.total_bits)

    def test_single_node_faulty_bfs(self):
        g = Graph(1, [])
        plan = random_fault_plan(g, seed=1, rate=0.0)
        assert check_faulty_bfs(g, 0, plan, fault_seed=2) == []

    def test_placement_outside_the_graph_rejected(self):
        """Queue ids are channel·n + node, so a node id outside [0, n)
        would alias another channel's queue instead of failing."""
        from repro.engine.faults import vectorized_faulty_broadcast
        from repro.primitives.bfs import run_bfs
        from repro.util.errors import ValidationError

        paths = [[(0, 1), (1, 2), (2, 3)], [(0, 2), (0, 3), (1, 3)]]
        g = Graph(4, paths[0] + paths[1])
        trees = {}
        for c, edges in enumerate(paths):
            mask = np.zeros(g.m, dtype=bool)
            mask[[g.edge_id(u, v) for u, v in edges]] = True
            trees[c] = run_bfs(g, 0, edge_mask=mask)
        for v in (-1, 4):
            with pytest.raises(ValidationError):
                vectorized_faulty_broadcast(g, trees, {0: {v: [1]}})
