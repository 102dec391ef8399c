"""Unit tests for the Graph container."""

import tracemalloc

import numpy as np
import pytest

from repro.core.decomposition import random_partition
from repro.engine.verify import random_connected_graph
from repro.graphs import Graph, complete_graph, random_regular, thick_cycle
from repro.graphs.traversal import all_pairs_distances
from repro.primitives.bfs import run_parallel_bfs
from repro.util.errors import ValidationError


def tiny() -> Graph:
    # 0-1, 0-2, 1-2, 2-3 ("triangle with a tail")
    return Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


class TestConstruction:
    def test_basic_counts(self):
        g = tiny()
        assert g.n == 4 and g.m == 4

    def test_edge_order_normalized(self):
        g = Graph(3, [(2, 0), (1, 0)])
        assert (g.edge_u < g.edge_v).all()

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            Graph(3, [(1, 1)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValidationError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            Graph(3, [(0, 3)])

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValidationError):
            Graph(0, [])

    def test_empty_edge_set_ok(self):
        g = Graph(5, [])
        assert g.m == 0 and g.min_degree() == 0

    def test_weights_validated(self):
        with pytest.raises(ValidationError):
            Graph(3, [(0, 1)], weights=[0.0])
        with pytest.raises(ValidationError):
            Graph(3, [(0, 1)], weights=[1.0, 2.0])

    @pytest.mark.parametrize(
        "n, edges, weights, message",
        [
            (0, [(0, 1, 2)], None, "at least one node"),
            (3, [(0, 1, 2), (3, 3, 3)], None, r"\(u, v\) pairs"),
            (3, [(1, 1), (0, 3)], None, "out of range"),
            (3, [(0, 1), (1, 0), (2, 2)], None, "self-loops"),
            (3, [(0, 1), (1, 0)], [1.0, -1.0], "parallel edges"),
            (3, [(0, 1), (1, 0)], [1.0], "parallel edges"),
            (3, [(0, 1), (1, 2)], [0.0, 0.0, 0.0], "weights shape"),
        ],
    )
    def test_first_fault_reported(self, n, edges, weights, message):
        # Each input has two faults; the earlier check in the constructor
        # names its own.
        with pytest.raises(ValidationError, match=message):
            Graph(n, edges, weights=weights)


def _reference_csr(g: Graph) -> dict[str, np.ndarray]:
    """The CSR built from the concatenated arcs with an argsort of
    ``rows·n + cols``, and the views derived from it."""
    m, n = g.m, g.n
    rows = np.concatenate([g.edge_u, g.edge_v])
    cols = np.concatenate([g.edge_v, g.edge_u])
    eids = np.concatenate([np.arange(m), np.arange(m)])
    order = np.argsort(rows * np.int64(n) + cols)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = cols[order]
    sources = rows[order]
    keys = sources * n + indices
    return {
        "_indptr": indptr,
        "_indices": indices,
        "_adj_edge_id": eids[order],
        "arc_sources": sources,
        "arc_twins": np.searchsorted(keys, indices * n + sources),
    }


_CSR_HOSTS = {
    **{
        f"random{s}": (lambda s=s: random_connected_graph(6 + 5 * s, 3 * s, seed=s))
        for s in range(5)
    },
    "thick_cycle(5, 3)": lambda: thick_cycle(5, 3),
    "single node": lambda: Graph(1, []),
    "edgeless": lambda: Graph(5, []),
    "isolated last node": lambda: Graph(6, [(0, 2), (1, 2), (2, 4), (3, 4)]),
    "reversed, unsorted": lambda: Graph(6, [(5, 0), (3, 1), (4, 2), (1, 0), (5, 4), (2, 1)]),
    "int32 array": lambda: Graph(
        6, np.array([(5, 0), (3, 1), (4, 2), (1, 0), (5, 4)], dtype=np.int32)
    ),
}


class TestOneSortCSR:
    """The constructor's one argsort builds the same CSR, views and
    dtypes as the concatenated-arc build it replaced."""

    @pytest.mark.parametrize("host", sorted(_CSR_HOSTS))
    def test_csr_equals_reference(self, host):
        g = _CSR_HOSTS[host]()
        for name, want in _reference_csr(g).items():
            got = getattr(g, name)
            got = got() if callable(got) else got
            assert got.dtype == want.dtype == np.int64, name
            assert np.array_equal(got, want), name
        assert g.edge_u.dtype == g.edge_v.dtype == np.int64


class TestDisjointUnionCSR:
    @pytest.mark.parametrize("classes", [1, 2, 3, 4])
    def test_blocks_equal_shifted_masked_csrs(self, classes):
        g = thick_cycle(6, 4)
        colors = np.random.default_rng(classes).integers(classes + 1, size=g.m)
        # Colour `classes` is left uncovered, and the last class is empty.
        masks = [colors == c for c in range(classes - 1)]
        masks.append(np.zeros(g.m, dtype=bool))
        indptr, indices, arc_class = g.disjoint_masked_csrs(masks)
        n = g.n
        assert indptr.shape == (classes * n + 1,)
        assert indptr.dtype == indices.dtype == np.int64
        assert indices.size == indptr[-1]
        # The last arc of every union row names its class's edge, as
        # masked_csr does; an empty row names none.
        last = np.where(np.diff(indptr) > 0, indptr[1:] - 1, -1)
        edge = g.disjoint_edge_ids(arc_class, indptr, last)
        for c, mask in enumerate(masks):
            want_ptr, want_idx, want_eid = g.masked_csr(mask)
            block = indptr[c * n : (c + 1) * n + 1]
            assert np.array_equal(block - block[0], want_ptr)
            assert np.array_equal(indices[block[0] : block[-1]] - c * n, want_idx)
            rows = np.diff(want_ptr) > 0
            want_last = np.full(n, -1)
            want_last[rows] = want_eid[want_ptr[1:][rows] - 1]
            assert np.array_equal(edge[c * n : (c + 1) * n], want_last)

    def test_wide_labels(self):
        # 300 classes need a label wider than one byte.
        g = thick_cycle(10, 6)
        masks = [np.arange(g.m) % 300 == c for c in range(300)]
        indptr, indices, arc_class = g.disjoint_masked_csrs(masks)
        assert g.mask_labels(masks).dtype == arc_class.dtype == np.uint16
        for c in (0, 1, 255, 299):
            want_ptr, want_idx, _ = g.masked_csr(masks[c])
            block = indptr[c * g.n : (c + 1) * g.n + 1]
            assert np.array_equal(block - block[0], want_ptr)
            assert np.array_equal(indices[block[0] : block[-1]] - c * g.n, want_idx)

    @pytest.mark.parametrize("backend", ["simulator", "vectorized"])
    def test_overlap_raises(self, backend):
        g = thick_cycle(4, 2)
        a = np.arange(g.m) % 2 == 0
        b = a.copy()
        b[1] = True
        b[0] = False
        with pytest.raises(ValidationError, match="edge masks must be pairwise disjoint"):
            run_parallel_bfs(g, [a, ~a, b], roots=[0, 0, 0], backend=backend)
        # 255 + 1 wraps a one-byte label to 0; the count still sees it.
        masks = [np.zeros(g.m, dtype=bool) for _ in range(255)]
        masks[0][3] = masks[254][3] = True
        with pytest.raises(ValidationError, match="edge masks must be pairwise disjoint"):
            run_parallel_bfs(g, masks, backend=backend)


def _traced_peak(fn) -> int:
    """Bytes ``fn`` allocates at its peak beyond what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemoryBudgets:
    """Peak construction memory on ``thick_cycle(250, 40)`` (m = 4·10⁵),
    in bytes per edge. ``tracemalloc`` sees numpy's allocations, so the
    figures repeat exactly. What stays resident is 48 B/edge: ``edge_u``,
    ``edge_v``, ``_indices`` and ``_adj_edge_id``, the CSR's edge ids. No
    arc keys are kept: trees carry their edge ids, so nothing looks an
    edge up by its endpoints."""

    @pytest.fixture(scope="class")
    def host(self):
        return thick_cycle(250, 40)

    def test_resident_arrays(self, host):
        g = Graph(host.n, np.stack([host.edge_u, host.edge_v], axis=1))
        held = sum(
            getattr(g, name).nbytes
            for name in Graph.__slots__
            if isinstance(getattr(g, name), np.ndarray)
        )
        assert held <= 48 * g.m + 8 * (g.n + 1)  # _indptr is per node

    def test_graph_constructor(self, host):
        edges = np.stack([host.edge_u, host.edge_v], axis=1)
        assert _traced_peak(lambda: Graph(host.n, edges)) <= 72 * host.m

    def test_thick_cycle(self, host):
        assert _traced_peak(lambda: thick_cycle(250, 40)) <= 96 * host.m

    def test_parallel_bfs_union(self, host):
        masks = random_partition(host, 3, seed=1).masks()
        peak = _traced_peak(lambda: run_parallel_bfs(host, masks, backend="vectorized"))
        assert peak <= 40 * host.m

    def test_all_pairs_gather_writes_in_place(self):
        """PRT's bit-parallel APSP gathers each layer into one preallocated
        plane. It peaks at the (n, n) output plus 1.46 planes here; the
        default ``np.take`` mode staged every gather in a temporary copy,
        2.26 planes."""
        g = random_regular(600, 40, seed=1)
        plane = 2 * g.m * -(-g.n // 64) * 8  # arcs × uint64 words
        peak = _traced_peak(lambda: all_pairs_distances(g))
        assert peak <= g.n * g.n * 8 + 1.75 * plane


class TestQueries:
    def test_degrees(self):
        g = tiny()
        assert g.degrees().tolist() == [2, 2, 3, 1]
        assert g.min_degree() == 1
        assert g.degree(2) == 3

    def test_neighbors_sorted(self):
        g = tiny()
        assert g.neighbors(2).tolist() == [0, 1, 3]

    def test_has_edge(self):
        g = tiny()
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 3)
        assert not g.has_edge(1, 1)

    def test_edge_id_roundtrip(self):
        g = tiny()
        for eid in range(g.m):
            u, v = g.edge_endpoints(eid)
            assert g.edge_id(u, v) == eid
            assert g.edge_id(v, u) == eid

    def test_edge_id_missing_raises(self):
        with pytest.raises(KeyError):
            tiny().edge_id(0, 3)

    def test_incident_edges_align_with_neighbors(self):
        g = tiny()
        for v in range(g.n):
            for u, eid in zip(g.neighbors(v).tolist(), g.incident_edge_ids(v).tolist()):
                a, b = g.edge_endpoints(eid)
                assert {a, b} == {u, v}

    def test_edges_iterator(self):
        assert sorted(tiny().edges()) == [(0, 1), (0, 2), (1, 2), (2, 3)]

    def test_total_weight(self):
        assert tiny().total_weight() == 4.0
        g = Graph(3, [(0, 1), (1, 2)], weights=[2.0, 3.0])
        assert g.total_weight() == 5.0

    def test_edge_weight_default_one(self):
        assert tiny().edge_weight(0) == 1.0


class TestDerived:
    def test_edge_subgraph_spanning_nodes(self):
        g = tiny()
        sub = g.edge_subgraph(np.array([True, False, False, True]))
        assert sub.n == 4 and sub.m == 2
        assert sorted(sub.edges()) == [(0, 1), (2, 3)]

    def test_edge_subgraph_with_map(self):
        g = tiny()
        sub, ids = g.edge_subgraph_with_map(np.array([False, True, True, False]))
        assert ids.tolist() == [1, 2]

    def test_edge_subgraph_bad_mask(self):
        with pytest.raises(ValidationError):
            tiny().edge_subgraph(np.array([True]))

    def test_reweighted(self):
        g = tiny().reweighted([1, 2, 3, 4])
        assert g.is_weighted and g.weights.tolist() == [1, 2, 3, 4]

    def test_unweighted_strips(self):
        g = tiny().reweighted([1, 2, 3, 4]).unweighted()
        assert not g.is_weighted


class TestInterop:
    def test_networkx_roundtrip(self):
        g = tiny()
        back = Graph.from_networkx(g.to_networkx())
        assert g == back

    def test_networkx_weighted_roundtrip(self):
        g = tiny().reweighted([1.0, 2.0, 3.0, 4.0])
        back = Graph.from_networkx(g.to_networkx())
        assert back.is_weighted
        assert sorted(back.weights.tolist()) == [1.0, 2.0, 3.0, 4.0]

    def test_scipy_csr_symmetric(self):
        a = tiny().to_scipy_csr()
        assert (a != a.T).nnz == 0
        assert a.shape == (4, 4)

    def test_repr(self):
        assert "n=4" in repr(tiny())

    def test_equality_ignores_edge_order(self):
        g1 = Graph(3, [(0, 1), (1, 2)])
        g2 = Graph(3, [(1, 2), (0, 1)])
        assert g1 == g2

    def test_equality_compares_weights(self):
        g = Graph(3, [(0, 1), (1, 2)], weights=[1.0, 5.0])
        assert g != Graph(3, [(0, 1), (1, 2)], weights=[2.0, 7.0])
        assert g != Graph(3, [(0, 1), (1, 2)], weights=[5.0, 1.0])
        assert g != Graph(3, [(0, 1), (1, 2)])
        # Weights follow their edges when the edge order differs.
        assert g == Graph(3, [(1, 2), (0, 1)], weights=[5.0, 1.0])
        assert g != Graph(3, [(1, 2), (0, 1)], weights=[1.0, 5.0])

    def test_inequality(self):
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])
        assert complete_graph(3) != complete_graph(4)
