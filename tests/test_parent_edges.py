"""Every BFS tree carries the edge id of each node's parent edge.

``BFSResult.parent_edge`` holds, for every node ``v`` whose parent is
another node, the host edge ``{parent[v], v}``, and ``-1`` at roots and
unreached nodes; a packing's trees are ``BFSResult`` objects too. Each
producer fills it from the arc or port it adopted over, and the packing,
the Lemma 1 pipelines and the faulty engine read it without looking an
edge up by its endpoints. These tests compare each producer's ids with
:meth:`Graph.edge_id` of its parent pointers, on both backends where both
exist.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest.adversary import FaultPlan, MobileAdversary
from repro.core import build_packing_with_retry, uniform_random_placement
from repro.core.alt_packing import greedy_low_diameter_packing
from repro.core.decomposition import random_partition
from repro.core.resilient import repair_coverage, tree_edge_ids
from repro.core.tree_packing import build_tree_packing
from repro.engine import plane
from repro.engine.faults import faulty_bfs, faulty_bfs_grid
from repro.engine.verify import random_connected_graph
from repro.graphs import thick_cycle
from repro.primitives.bfs import run_bfs, run_bfs_batch, run_parallel_bfs
from repro.util.errors import ValidationError

BACKENDS = ("simulator", "vectorized")


def _assert_carries_edges(g, parent, parent_edge) -> None:
    want = [-1 if p in (-1, v) else g.edge_id(p, v) for v, p in enumerate(parent.tolist())]
    assert parent_edge.dtype == np.int64
    assert parent_edge.tolist() == want


@pytest.fixture(scope="module")
def host():
    return random_connected_graph(30, 40, seed=5)


class TestFloods:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("masked", [False, True])
    def test_solo(self, host, backend, masked):
        mask = np.arange(host.m) % 3 != 0 if masked else None
        res = run_bfs(host, 4, edge_mask=mask, backend=backend)
        _assert_carries_edges(host, res.parent, res.parent_edge)
        if masked:
            assert mask[res.parent_edge[res.parent_edge >= 0]].all()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_with_duplicate_roots(self, host, backend):
        results = run_bfs_batch(host, [7, 0, 7, 29], backend=backend)
        for res in results:
            _assert_carries_edges(host, res.parent, res.parent_edge)
        assert np.array_equal(results[0].parent_edge, results[2].parent_edge)

    def test_chunked_plane(self, host, monkeypatch):
        roots = list(range(host.n))
        resident = run_bfs_batch(host, roots, backend="vectorized")
        monkeypatch.setattr(plane, "_PLANE_MAX_CELLS", 2 * host.n)
        chunked = run_bfs_batch(host, roots, backend="vectorized")
        for a, b in zip(resident, chunked, strict=True):
            _assert_carries_edges(host, b.parent, b.parent_edge)
            assert np.array_equal(a.parent_edge, b.parent_edge)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_union_sweep(self, host, backend):
        masks = random_partition(host, 3, seed=2).masks()
        results, _rounds = run_parallel_bfs(host, masks, roots=[0, 9, 29], backend=backend)
        for mask, res in zip(masks, results, strict=True):
            _assert_carries_edges(host, res.parent, res.parent_edge)
            assert mask[res.parent_edge[res.parent_edge >= 0]].all()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", ["dead", "mobile", "lossy"])
    def test_faulty_flood(self, host, backend, kind):
        dead = frozenset(range(0, host.m, 5))
        plan = {
            "dead": FaultPlan(dead_edges=dead),
            "mobile": MobileAdversary({1: {0, 1, 2}, 2: set(range(3, 40))}).compile(host),
            "lossy": FaultPlan(drop_rate=0.3),
        }[kind]
        for out in faulty_bfs_grid(host, [0, 12], plan, fault_seeds=[3, 4], backend=backend):
            res = out.result
            _assert_carries_edges(host, res.parent, res.parent_edge)
            if kind == "dead":
                assert not any(e in dead for e in res.parent_edge.tolist())
        # A flood that reaches only part of the graph: unreached nodes get -1.
        out = faulty_bfs(host, 0, FaultPlan(drop_rate=0.6), fault_seed=1, backend=backend)
        assert (out.result.parent_edge[out.result.dist < 0] == -1).all()
        _assert_carries_edges(host, out.result.parent, out.result.parent_edge)


class TestPackings:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_theorem2_packing(self, backend):
        g = thick_cycle(6, 6)
        packing = build_tree_packing(random_partition(g, 2, seed=1), backend=backend)
        for tree in packing.trees:
            _assert_carries_edges(g, tree.parent, tree.parent_edge)
        packing.validate()

    def test_greedy_packing(self):
        g = thick_cycle(6, 6)
        packing = greedy_low_diameter_packing(g, 3, seed=2)
        count = np.zeros(g.m, dtype=np.int64)
        for tree in packing.trees:
            _assert_carries_edges(g, tree.parent, tree.parent_edge)
            count[tree.parent_edge[tree.parent_edge >= 0]] += 1
        assert np.array_equal(packing.edge_tree_count, count)
        packing.validate()

    def test_validate_refuses_a_stale_parent_edge(self):
        g = thick_cycle(6, 6)
        packing, _ = build_packing_with_retry(g, 2, seed=1, distributed=False)
        tree = packing.trees[0]
        v = int(np.flatnonzero(tree.parent != np.arange(g.n))[0])
        tree.parent_edge[v] = packing.trees[1].parent_edge[v]
        with pytest.raises(ValidationError, match="tree 0: parent_edge"):
            packing.validate()


class TestRepair:
    """The two repair paths of :func:`repair_coverage` on the fixture of
    ``tests/test_resilience.py``: a re-rooted tree names host edges of its
    class, and a rebuilt packing's trees, built on the live subgraph, name
    host edges through the subgraph's id map."""

    @pytest.fixture(scope="class")
    def setup(self):
        g = thick_cycle(10, 10)
        packing, _ = build_packing_with_retry(g, 3, seed=2, distributed=False)
        return g, packing, uniform_random_placement(g.n, 90, seed=3)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("path", ["re-root", "rebuild"])
    def test_repaired_trees_carry_host_edges(self, setup, backend, path):
        g, packing, pl = setup
        dead = sorted(tree_edge_ids(packing, 0))
        if path == "re-root":
            dead = dead[-12:]
        out = repair_coverage(
            g, pl, packing, redundancy=1, dead_edges=dead, backend=backend
        )
        assert out.rebuilt == (path == "rebuild") and out.final.min_coverage == 1.0
        for tree in out.packing.trees:
            _assert_carries_edges(g, tree.parent, tree.parent_edge)
            assert not set(tree.parent_edge.tolist()) & set(dead)
        out.packing.validate()
