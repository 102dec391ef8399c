"""Equivalence harness: the vectorized backend vs the simulator, bit for bit.

The fast path inherits the simulator's certification *by testing*: every
``backend=`` entry point runs here on both backends and the two results are
compared whole. One structural differ, :func:`diff`, walks every dataclass
field, dict entry, list item and array of a result, so a field added to a
result type later is compared without any edit here; the ``backend`` tag is
the only exemption (:data:`EXEMPT`). A call that raises
:class:`~repro.util.errors.ValidationError` has that message as its
outcome, so the two sides must fail alike or succeed alike.

Every check builds its comparisons from two helpers: :func:`_pair` diffs
the outcomes of two calls (a batch against the loop of its solo calls,
traced against untraced, a numpy port against its reference loops) and
:func:`_both` runs one call on each backend. The sweep is a table:
each row of :data:`ROWS` maps a :class:`Trial` (one host and every input
drawn from it) to one check call. :func:`verify_equivalence` runs every row
over random hosts and :func:`verify_boundaries` over six fixed boundary
hosts (n = 1, n = 2, edgeless, disconnected, highest-id node isolated, all
weights tied). ``tests/test_engine_equivalence.py`` drives both in CI;
``python -m repro.engine.verify`` runs the sweep and the matrix.

Every check returns a list of mismatch strings (empty = equivalent), each
naming the path of the field that diverged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.apsp.clustering import (
    Clustering,
    _reference_attempt,
    build_clustering,
    center_sampling_probability,
)
from repro.apsp.spanner import baswana_sen_spanner
from repro.apsp.unweighted import approx_apsp_unweighted
from repro.apsp.weighted import approx_apsp_weighted
from repro.congest.adversary import FaultPlan
from repro.congest.tournament import run_tournament
from repro.core.broadcast import (
    combined_broadcast,
    fast_broadcast,
    fast_broadcast_batch,
    textbook_broadcast,
    textbook_broadcast_batch,
    uniform_random_placement,
)
from repro.core.decomposition import random_partition
from repro.core.lambda_search import (
    broadcast_unknown_lambda,
    find_packing_unknown_lambda,
)
from repro.core.resilient import (
    FaultCell,
    evaluate_fault_grid,
    redundant_broadcast,
    repair_coverage,
    tree_edge_ids,
)
from repro.core.tree_packing import (
    ROOT_POLICIES,
    build_packing_with_retry,
    build_tree_packing,
    resolve_roots,
)
from repro.cuts.approx import approx_all_cuts
from repro.cuts.sparsifier import koutis_xu_sparsifier
from repro.engine import kernels
from repro.engine.fastpath import (
    vectorized_elect_leader,
    vectorized_numbering,
    vectorized_tree_broadcast,
)
from repro.engine.faults import faulty_bfs, faulty_bfs_grid
from repro.graphs.connectivity import edge_connectivity
from repro.graphs.generators import random_weights
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances
from repro.primitives.bfs import BFSResult, run_bfs, run_bfs_batch, run_parallel_bfs
from repro.primitives.leader import elect_leader
from repro.primitives.numbering import assign_item_numbers
from repro.primitives.pipeline import run_tree_broadcast
from repro.util.errors import ValidationError
from repro.util.rng import ensure_rng

__all__ = [
    "random_connected_graph",
    "random_edge_masks",
    "random_fault_plan",
    "EXEMPT",
    "Raised",
    "diff",
    "check_bfs",
    "check_parallel_bfs",
    "check_leader",
    "check_numbering",
    "check_tree_broadcast",
    "check_broadcast_pipeline",
    "check_combined_broadcast",
    "check_unknown_lambda_broadcast",
    "check_weighted_apsp",
    "check_clustering",
    "check_spanner",
    "check_sparsifier",
    "check_apsp_pipeline",
    "check_cuts_pipeline",
    "check_faulty_bfs",
    "check_kernels",
    "check_fault_paths",
    "check_bfs_batch",
    "check_broadcast_batch",
    "check_fault_grid",
    "check_redundant_broadcast",
    "check_root_policies",
    "check_coverage_repair",
    "check_tournament",
    "check_trace_transparency",
    "Trial",
    "ROWS",
    "EquivalenceReport",
    "verify_equivalence",
    "verify_boundaries",
]


def random_connected_graph(n: int, extra_edges: int, seed) -> Graph:
    """Random spanning tree plus ``extra_edges`` random non-tree edges."""
    rng = ensure_rng(seed)
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.add((u, v))
    tries = 0
    while len(edges) < (n - 1) + extra_edges and tries < 20 * (extra_edges + 1):
        tries += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def random_edge_masks(graph: Graph, parts: int, seed) -> list[np.ndarray]:
    """Disjoint random edge masks (not necessarily covering every edge)."""
    rng = ensure_rng(seed)
    colors = rng.integers(parts + 1, size=graph.m)  # color `parts` = unused
    return [colors == i for i in range(parts)]


def random_fault_plan(
    graph: Graph, seed, rate: float | None = None, rounds: int = 7
):
    """A randomized :class:`~repro.congest.adversary.FaultPlan`: a few dead
    edges, up to three mobile rounds drawn from ``1..rounds``, and a drop
    rate (``rate=None`` picks one of 0 / 0.3 / 1.0 — including the
    total-loss boundary). Pass the length of the run being checked as
    ``rounds`` so that mobile hits can land anywhere in it, late downcast
    crossings included."""
    rng = ensure_rng(seed)
    dead = set()
    if graph.m:
        dead = {
            int(e)
            for e in rng.choice(graph.m, size=int(rng.integers(0, min(graph.m, 4))), replace=False)
        }
    mobile = {}
    for _ in range(int(rng.integers(0, 4))):
        if graph.m:
            edges = {
                int(e) for e in rng.choice(graph.m, size=min(graph.m, 2), replace=False)
            }
            # Half the time the adversary also holds a dead edge: a hit on
            # an arc that already drops must not count twice.
            if dead and rng.random() < 0.5:
                edges.add(min(dead))
            mobile[int(rng.integers(1, max(1, rounds) + 1))] = edges
    if rate is None:
        rate = [0.0, 0.3, 1.0][int(rng.integers(3))]
    return FaultPlan(dead_edges=dead, drop_rate=rate, mobile=mobile)


def _rate0_and_lossy(graph: Graph, seed, rounds: int) -> list[tuple[str, FaultPlan]]:
    """Random plans for the rate-0 closed form and the per-round replay."""
    return [
        ("rate0", random_fault_plan(graph, seed=seed + 1, rate=0.0, rounds=rounds)),
        ("lossy", random_fault_plan(graph, seed=seed + 2, rate=0.3, rounds=rounds)),
    ]


# --------------------------------------------------------------------------- #
# The differ and the runner
# --------------------------------------------------------------------------- #

#: Field names :func:`diff` never reads: the backend tag is the one field
#: that must differ between the two runs of a comparison.
EXEMPT = frozenset({"backend"})

#: The fields that define the value of the result classes that are not
#: dataclasses: ``Graph`` without its memo caches, ``BFSResult`` with its
#: lazy child lists materialized (so they equal the simulator's collected
#: ones).
_VIEWS: dict[type, tuple[str, ...]] = {
    Graph: ("n", "m", "edge_u", "edge_v", "weights"),
    BFSResult: ("root", "parent", "dist", "rounds", "children"),
}


@dataclass(frozen=True)
class Raised:
    """The outcome of a call that raised :class:`ValidationError`."""

    message: str


def _kind(value) -> str:
    return repr(value) if isinstance(value, Raised) else type(value).__name__


def diff(a, b, path: str = "result") -> list[str]:
    """Every difference between ``a`` and ``b``, each prefixed by its path.

    Recurses through dataclass fields (minus :data:`EXEMPT`) and the
    :data:`_VIEWS` of other result classes, through dicts by key, and
    through lists and tuples by position. Arrays compare by shape, dtype
    and values, exactly; any other leaf with ``==``. NaN equals NaN, and
    values of different types always differ.
    """
    if type(a) is not type(b):
        return [f"{path}: {_kind(a)} != {_kind(b)}"]
    names = _VIEWS.get(type(a))
    if names is None and dataclasses.is_dataclass(a):
        names = tuple(f.name for f in dataclasses.fields(a))
    if names is not None:
        return [
            m
            for name in names
            if name not in EXEMPT
            for m in diff(getattr(a, name), getattr(b, name), f"{path}.{name}")
        ]
    if isinstance(a, dict):
        if a.keys() != b.keys():
            only = sorted(map(repr, a.keys() ^ b.keys()))
            return [f"{path}: keys {only} on one side only"]
        return [m for key in a for m in diff(a[key], b[key], f"{path}[{key!r}]")]
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        return [
            m for i, (x, y) in enumerate(zip(a, b)) for m in diff(x, y, f"{path}[{i}]")
        ]
    if isinstance(a, np.ndarray):
        if (a.shape, a.dtype) != (b.shape, b.dtype):
            return [f"{path}: {a.dtype}{list(a.shape)} != {b.dtype}{list(b.shape)}"]
        nan = a.dtype.kind in "fc"
        return [] if np.array_equal(a, b, equal_nan=nan) else [f"{path}: arrays differ"]
    if a == b or (a != a and b != b):  # the second clause: NaN == NaN
        return []
    return [f"{path}: {a!r} != {b!r}"]


def _outcome(call: Callable[[], Any]) -> Any:
    """``call()``, or :class:`Raised` if it raises :class:`ValidationError`."""
    try:
        return call()
    except ValidationError as err:
        return Raised(str(err))


def _pair(label: str, first: Callable[[], Any], second: Callable[[], Any]) -> list[str]:
    """Diff the outcomes of two zero-argument calls, paths under ``label``."""
    return diff(_outcome(first), _outcome(second), label)


def _both(label: str, call: Callable[[str], Any]) -> list[str]:
    """:func:`_pair` of ``call("simulator")`` and ``call("vectorized")``."""
    return _pair(label, lambda: call("simulator"), lambda: call("vectorized"))


def _packing(graph: Graph, parts: int, seed, roots=None):
    """A Theorem 2 packing for a check's setup, or ``None`` when its w.h.p.
    event fails on the tiny host (the check is then vacuous)."""
    packing = _outcome(
        lambda: build_packing_with_retry(
            graph, parts, seed=seed, distributed=False, roots=roots
        )[0]
    )
    return None if isinstance(packing, Raised) else packing


# --------------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------------- #

def check_bfs(graph: Graph, root: int, edge_mask=None) -> list[str]:
    """run_bfs: simulator vs vectorized."""
    return _both(
        "bfs", lambda b: run_bfs(graph, root, edge_mask=edge_mask, backend=b)
    )


def check_parallel_bfs(graph: Graph, masks, roots=None) -> list[str]:
    """run_parallel_bfs: simulator vs vectorized (shared round clock)."""
    return _both(
        "parallel-bfs",
        lambda b: run_parallel_bfs(graph, masks, roots=roots, backend=b),
    )


def check_leader(graph: Graph) -> list[str]:
    """Min-id flooding: the simulated election vs the closed form."""
    return _pair(
        "leader", lambda: elect_leader(graph), lambda: vectorized_elect_leader(graph)
    )


def check_numbering(graph: Graph, counts: np.ndarray) -> list[str]:
    """Lemma 3 numbering over the same BFS tree, both backends."""
    tree = run_bfs(graph, 0, backend="simulator")
    return _pair(
        "numbering",
        lambda: assign_item_numbers(graph, tree, counts),
        lambda: vectorized_numbering(graph, tree, counts),
    )


def check_tree_broadcast(
    graph: Graph, masks, k: int, seed, roots=None
) -> list[str]:
    """Lemma 1 pipeline over edge-disjoint trees: the whole outcome (rounds,
    per-edge and total messages and bits, per-channel k).

    Channels whose mask does not induce a spanning subgraph are dropped
    (both backends require spanning trees).
    """
    results, _ = run_parallel_bfs(graph, masks, roots=roots, backend="vectorized")
    trees = {c: r for c, r in enumerate(results) if r.spans()}
    if not trees:
        return []
    rng = ensure_rng(seed)
    cids = sorted(trees)
    messages: dict[int, dict[int, list[int]]] = {c: {} for c in cids}
    for j in range(1, k + 1):
        c = cids[int(rng.integers(len(cids)))]
        v = int(rng.integers(graph.n))
        messages[c].setdefault(v, []).append(j)
    return _pair(
        "pipeline",
        lambda: run_tree_broadcast(graph, trees, messages),
        lambda: vectorized_tree_broadcast(graph, trees, messages),
    )


def check_broadcast_pipeline(graph: Graph, k: int, seed, lam: int | None = None) -> list[str]:
    """End-to-end textbook and fast broadcast: whole results, both backends.

    The w.h.p. event of Theorem 2 may legitimately fail on tiny random
    graphs; what matters is that both backends fail identically.
    """
    placement = uniform_random_placement(graph.n, k, seed=seed)
    lam = edge_connectivity(graph) if lam is None else lam
    return _both(
        "textbook", lambda b: textbook_broadcast(graph, placement, backend=b)
    ) + _both(
        "fast",
        lambda b: fast_broadcast(graph, placement, lam=lam, seed=seed, backend=b),
    )


def check_combined_broadcast(graph: Graph, k: int, seed) -> list[str]:
    """Section 3.2's min(textbook, fast): both backends must predict the
    same winner and return identical results."""
    placement = uniform_random_placement(graph.n, k, seed=seed)
    return _both(
        "combined",
        lambda b: combined_broadcast(graph, placement, seed=seed, backend=b),
    )


def check_unknown_lambda_broadcast(graph: Graph, k: int, seed) -> list[str]:
    """§1.1 Remark: the λ-unknown search — guesses, per-iteration validation
    rounds, seeds, the accepted packing — on its own and inside the
    broadcast built on it must be identical across backends."""
    placement = uniform_random_placement(graph.n, k, seed=seed)
    return _both(
        "unknown-lambda-search",
        lambda b: find_packing_unknown_lambda(graph, seed=seed, backend=b),
    ) + _both(
        "unknown-lambda",
        lambda b: broadcast_unknown_lambda(graph, placement, seed=seed, backend=b),
    )


def check_weighted_apsp(graph: Graph, k: int, seed) -> list[str]:
    """Theorem 5 end to end: spanner, estimates, and both round ledgers.

    Unweighted hosts get deterministic random weights first, so the check
    is runnable on any sweep graph.
    """
    if graph.weights is None:
        graph = random_weights(graph, seed=seed)
    return _both(
        "weighted-apsp",
        lambda b: approx_apsp_weighted(graph, k, seed=seed, backend=b),
    )


def check_clustering(graph: Graph, seed, c: float = 3.0) -> list[str]:
    """Theorem 4 cluster growth: O(n+m) numpy port vs the per-node loops.

    Replays the exact coin schedule of :func:`build_clustering` against the
    retained reference (:func:`repro.apsp.clustering._reference_attempt`);
    the whole :class:`~repro.apsp.clustering.Clustering` must match, and
    both must fail alike (δ = 0, or retries exhausted).
    """
    max_tries = 20  # passed explicitly so replay and builder stay locked

    def replay() -> Clustering:
        rng = ensure_rng(seed)
        delta = graph.min_degree()
        p = center_sampling_probability(graph.n, delta, c)
        for _ in range(max_tries):
            is_center = rng.random(graph.n) < p
            ref = _reference_attempt(graph, is_center) if is_center.any() else None
            if ref is not None:
                return Clustering(graph, *ref, rounds=1)
        raise ValidationError(
            "clustering failed: some node had no center neighbor in "
            f"{max_tries} attempts (increase c; δ={delta} may be too small "
            f"for n={graph.n})"
        )

    return _pair(
        "clustering",
        lambda: build_clustering(graph, c=c, seed=seed, max_tries=max_tries),
        replay,
    )


def check_spanner(graph: Graph, k: int, seed) -> list[str]:
    """[BS07] spanner: per-node rules vs whole-array twin, same coins."""
    return _both(
        f"spanner(k={k})",
        lambda b: baswana_sen_spanner(graph, k, seed=seed, backend=b),
    )


def check_sparsifier(
    graph: Graph, eps: float, seed, tau: int | None = None
) -> list[str]:
    """Koutis–Xu sparsifier: both backends through the whole level loop."""
    return _both(
        "sparsifier",
        lambda b: koutis_xu_sparsifier(graph, eps, seed=seed, tau=tau, backend=b),
    )


def check_apsp_pipeline(graph: Graph, seed, lam: int | None = None) -> list[str]:
    """Theorem 4 end to end: estimates, clustering, PRT schedule and round
    ledgers, both backends.

    The w.h.p. events (clustering coverage, Theorem 2 packing) may
    legitimately fail on tiny random hosts; both backends must then fail
    with the same error.
    """
    return _both(
        "apsp",
        lambda b: approx_apsp_unweighted(graph, lam=lam, C=1.5, seed=seed, backend=b),
    )


def check_cuts_pipeline(
    graph: Graph, eps: float, seed, lam: int | None = None, tau: int | None = None
) -> list[str]:
    """Theorem 7 end to end: sparsifier + ledgers, both backends."""
    return _both(
        "cuts",
        lambda b: approx_all_cuts(
            graph, eps=eps, lam=lam, C=1.5, seed=seed, tau=tau, backend=b
        ),
    )


def check_faulty_bfs(
    graph: Graph, root: int, plan, fault_seed, edge_mask=None
) -> list[str]:
    """Lemma 2 flood under faults: forest, rounds, drops, and the fault RNG
    stream (final PCG64 state) must match across backends."""
    return _both(
        "faulty-bfs",
        lambda b: faulty_bfs(
            graph, root, plan=plan, fault_seed=fault_seed, edge_mask=edge_mask,
            backend=b,
        ),
    )


def check_redundant_broadcast(
    graph: Graph, k: int, seed, parts: int = 2, redundancy: int = 1, plan=None,
    rate: float | None = None,
) -> list[str]:
    """Redundant broadcast under an adversary: the full
    :class:`~repro.core.resilient.DeliveryReport` — exact per-message
    receipt sets, dropped counts, round totals — plus the fault RNG state
    must be bit-identical across backends.

    Builds a Theorem 2 packing first; if the w.h.p. packing event fails on
    the tiny random host, the check is vacuous (skipped). With no ``plan``
    it draws :func:`random_fault_plan` at ``rate``, its mobile rounds
    spread over the fault-free run's length.
    """
    packing = _packing(graph, parts, seed)
    if packing is None:
        return []
    placement = uniform_random_placement(graph.n, k, seed=seed)
    redundancy = min(max(1, redundancy), packing.size)
    if plan is None:
        run = redundant_broadcast(
            graph, placement, packing, redundancy=redundancy, seed=seed,
            backend="vectorized",
        ).rounds
        plan = random_fault_plan(graph, seed=seed + 13, rate=rate, rounds=run)
    return _both(
        "redundant",
        lambda b: redundant_broadcast(
            graph, placement, packing, redundancy=redundancy,
            dead_edges=plan.dead_edges, drop_rate=plan.drop_rate, mobile=plan.mobile,
            seed=seed, fault_seed=seed + 1, backend=b, collect_receipts=True,
        ),
    )


def check_root_policies(graph: Graph, parts: int, seed) -> list[str]:
    """Root-assignment policies: :func:`resolve_roots` and the multi-root
    packing it feeds must be bit-identical across backends for every policy
    (plus an explicit root list), as must :func:`build_tree_packing` over
    one random partition.

    The w.h.p. packing event may legitimately fail on tiny random hosts;
    both backends must then fail with the same error.
    """
    out = _both(
        "tree-packing",
        lambda b: build_tree_packing(random_partition(graph, parts, seed), backend=b),
    )
    explicit = [int(i % graph.n) for i in range(parts)]
    for roots in (*ROOT_POLICIES, explicit):
        label = f"roots[{roots if isinstance(roots, str) else 'explicit'}]"
        out += _both(
            f"{label}.resolve",
            lambda b: resolve_roots(graph, parts, roots=roots, seed=seed, backend=b),
        )
        out += _both(
            label,
            lambda b: build_packing_with_retry(
                graph, parts, seed=seed, distributed=False, roots=roots, backend=b
            ),
        )
    return out


def check_coverage_repair(
    graph: Graph, k: int, seed, parts: int = 2
) -> list[str]:
    """Graceful degradation: the whole :class:`~repro.core.resilient.RepairOutcome`
    — broken-channel detection, re-root choices, rebuild decisions, repair
    round charges, both delivery reports and the final packing — must match
    across backends.

    Kills a prefix of tree 0's edges so the repair path actually triggers;
    vacuous if the packing event fails on the tiny host.
    """
    packing = _packing(graph, parts, seed, roots="spread")
    if packing is None:
        return []
    placement = uniform_random_placement(graph.n, k, seed=seed)
    dead = sorted(tree_edge_ids(packing, 0))[: max(1, graph.n // 4)]
    return _both(
        "repair",
        lambda b: repair_coverage(
            graph, placement, packing, redundancy=1, dead_edges=dead, seed=seed,
            fault_seed=seed + 1, backend=b,
        ),
    )


def check_tournament(graph: Graph, k: int, seed) -> list[str]:
    """The scored tournament surface: the whole
    :class:`~repro.congest.tournament.TournamentResult` must be identical
    across backends except the ``backend`` tag itself — every cell score,
    every recorded attack, bit for bit.

    Runs a small grid (two cheap adversaries x two defenses).
    """
    return _both(
        "tournament",
        lambda b: run_tournament(
            graph, k, parts=2,
            adversaries=["dead-tree", "loss"],
            defenses=["shared-r1", "spread-r1"],
            seed=seed, backend=b,
        ),
    )


def check_kernels(graph: Graph, seed) -> list[str]:
    """Direct identities of the :mod:`repro.engine.kernels` primitives.

    ``frontier_sweep`` must give the dists of
    :func:`~repro.graphs.traversal.bfs_distances`, a separate dist-only
    loop, and the parents of the plain-Python smallest-previous-layer
    rule; ``last_send_round_spans`` and ``upcast_spans`` must match
    plain-Python walks (the upcast one round at a time); and the small
    CSR/membership helpers must match their numpy one-liners. The
    pipeline built on them is compared with the simulator by
    :func:`check_tree_broadcast`.
    """
    n = graph.n
    rng = ensure_rng(seed)

    # -- frontier_sweep vs bfs_distances and the python adoption rule --- #
    root = int(rng.integers(n))
    indptr, indices = graph._indptr, graph._indices
    sweep_parent, sweep_dist = kernels.frontier_sweep(n, indptr, indices, root)
    out = diff(sweep_dist, bfs_distances(graph, root), "kernels.frontier_sweep.dist")
    ref_parent = np.full(n, -1, dtype=np.int64)
    ref_parent[root] = root
    for v in range(n):
        if v == root or sweep_dist[v] < 0:
            continue
        prev = [
            int(u)
            for u in indices[indptr[v] : indptr[v + 1]]
            if sweep_dist[u] == sweep_dist[v] - 1
        ]
        if prev:
            ref_parent[v] = min(prev)
    out += diff(sweep_parent, ref_parent, "kernels.frontier_sweep.parent")

    # -- last_send_round_spans vs a per-round queue walk ---------------- #
    widths = rng.integers(1, 4, size=4)
    gaps = rng.integers(0, 3, size=4)
    starts_l, ends_l, prev_end = [], [], 0
    for wd, gp in zip(widths.tolist(), gaps.tolist()):
        s = prev_end + 1 + gp
        prev_end = s + wd - 1
        starts_l.append(s)
        ends_l.append(prev_end)
    rates = rng.integers(1, 4, size=4)
    arrivals: dict[int, int] = {}
    for s, e, rt in zip(starts_l, ends_l, rates.tolist()):
        for r in range(s, e + 1):
            arrivals[r] = arrivals.get(r, 0) + rt
    q = last_sim = 0
    for r in range(1, max(ends_l) + int(rates.sum() * widths.sum()) + 2):
        q += arrivals.get(r, 0)
        if q > 0:
            q -= 1
            last_sim = r
    got_last = kernels.last_send_round_spans(
        np.asarray(starts_l, dtype=np.int64),
        np.asarray(ends_l, dtype=np.int64),
        rates.astype(np.int64),
    )
    out += diff(got_last, last_sim, "kernels.last_send_round_spans")

    # -- CSR builders and membership helpers ---------------------------- #
    parent = sweep_parent  # tree convention: the root is its own parent
    lists = kernels.children_lists(parent)
    ref_lists: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if v != root and parent[v] >= 0:
            ref_lists[int(parent[v])].append(v)
    out += diff(lists, ref_lists, "kernels.children_lists")
    cindptr, cind = kernels.children_csr(parent)
    out += diff(
        (cindptr, cind), kernels.lists_to_csr(lists), "kernels.children_csr"
    )
    rows = rng.integers(0, n, size=min(n, 5))
    sel, counts, offs = kernels.expand_csr_rows(cindptr, rows)
    ref_counts = np.diff(cindptr)[rows]
    ref_vals = (
        np.concatenate([cind[cindptr[r] : cindptr[r + 1]] for r in rows])
        if rows.size
        else np.empty(0, dtype=np.int64)
    )
    ref_offs = (
        np.concatenate([np.arange(c) for c in ref_counts.tolist()])
        if rows.size
        else np.empty(0, dtype=np.int64)
    )
    out += diff(
        (cind[sel], counts, offs), (ref_vals, ref_counts, ref_offs),
        "kernels.expand_csr_rows",
    )
    table = np.unique(rng.integers(0, 2 * n, size=n))
    values = rng.integers(0, 2 * n, size=n)
    out += diff(
        kernels.in_sorted(values, table), np.isin(values, table), "kernels.in_sorted"
    )

    # -- upcast_spans expanded per round == a round-by-round queue walk -- #
    up = rng.integers(0, 4, size=n).astype(np.int64)
    up[root] = 0
    up[sweep_dist < 0] = 0  # unreached nodes have no path to the root
    queue = up.tolist()
    walk: list[tuple[int, int, int]] = []  # (round, root, items arriving)
    r = 0
    while any(queue):
        r += 1
        landed: dict[int, int] = {}
        for v in [v for v in range(n) if queue[v]]:
            queue[v] -= 1  # every nonempty up-queue sends one item
            landed[int(parent[v])] = landed.get(int(parent[v]), 0) + 1
        for u, c in sorted(landed.items()):
            if u == root:
                walk.append((r, u, c))
            else:
                queue[u] += c  # sendable from the next round on
    sn, sb, se, sr = kernels.upcast_spans(up, parent, sweep_dist)
    spans = sorted(
        (rr, int(v), int(rate))
        for v, b, e, rate in zip(sn, sb, se, sr)
        for rr in range(int(b), int(e) + 1)
    )
    return out + diff(spans, walk, "kernels.upcast_spans")


def check_fault_paths(graph: Graph, k: int, seed, parts: int = 2) -> list[str]:
    """Every path of the fault engine against the simulator.

    The vectorized engine picks its path from the plan and the trees: the
    rate-0 closed form (here with dead and mobile edges), the per-round
    replay (rate 0.3), and the total-loss closed form (rate 1, no dead or
    mobile edges). Each rate runs through :func:`check_faulty_bfs` and
    :func:`check_redundant_broadcast`, the random plans' mobile rounds
    spread over the length of the flood and of the broadcast respectively.
    """
    root = int(ensure_rng(seed).integers(graph.n))
    flood = run_bfs(graph, root, backend="vectorized").rounds
    total_loss = FaultPlan(drop_rate=1.0)
    # (tag, flood plan, broadcast plan: None draws one at the flood's rate)
    plans = [(tag, plan, None) for tag, plan in _rate0_and_lossy(graph, seed, flood)]
    plans.append(("total-loss", total_loss, total_loss))
    out = []
    for tag, plan, broadcast_plan in plans:
        mismatches = check_faulty_bfs(graph, root, plan, fault_seed=seed)
        mismatches += check_redundant_broadcast(
            graph, k, seed, parts=parts, redundancy=2, plan=broadcast_plan,
            rate=plan.drop_rate,
        )
        out.extend(f"fault-paths[{tag}] {m}" for m in mismatches)
    return out


def check_bfs_batch(graph: Graph, roots, edge_mask=None) -> list[str]:
    """run_bfs_batch == loop of run_bfs, element-wise, on both backends.

    The vectorized batch rides :func:`~repro.engine.plane.plane_sweep`,
    which runs the same layer loop as the vectorized solo calls, so it is
    also compared with the simulator's solo runs directly.
    """
    backends = ("simulator", "vectorized")
    solos = {
        b: _outcome(lambda: [run_bfs(graph, int(r), edge_mask=edge_mask, backend=b) for r in roots])
        for b in backends
    }
    batches = {
        b: _outcome(lambda: run_bfs_batch(graph, roots, edge_mask=edge_mask, backend=b))
        for b in backends
    }
    out = []
    for b in backends:
        out += _pair(f"bfs-batch[{b}]", lambda: solos[b], lambda: batches[b])
    return out + _pair(
        "bfs-batch[vectorized vs simulator]",
        lambda: solos["simulator"],
        lambda: batches["vectorized"],
    )


def check_broadcast_batch(graph: Graph, k: int, seed) -> list[str]:
    """textbook/fast broadcast batches == loops of solo calls, both backends."""
    rng = ensure_rng(seed)
    placements = [
        uniform_random_placement(graph.n, int(kk), seed=seed + 17 * j)
        for j, kk in enumerate(rng.integers(0, max(1, k) + 1, size=3))
    ]
    seeds = [int(s) for s in rng.integers(0, 3, size=len(placements))]
    out = []
    for b in ("simulator", "vectorized"):
        out += _pair(
            f"textbook-batch[{b}]",
            lambda: [textbook_broadcast(graph, p, backend=b) for p in placements],
            lambda: textbook_broadcast_batch(graph, placements, backend=b),
        )
        solos = _outcome(
            lambda: [
                fast_broadcast(graph, p, seed=s, backend=b)
                for p, s in zip(placements, seeds)
            ]
        )
        out += _pair(
            f"fast-batch[{b}]",
            lambda: solos,
            lambda: fast_broadcast_batch(graph, placements, seeds=seeds, backend=b),
        )
        # A numpy integer is the one-seed form, as a Python int is.
        out += _pair(
            f"fast-batch[{b}][numpy seed]",
            lambda: solos[-1:] if isinstance(solos, list) else solos,
            lambda: fast_broadcast_batch(
                graph, placements[-1:], seeds=np.int64(seeds[-1]), backend=b
            ),
        )
    return out


def check_fault_grid(graph: Graph, k: int, seed, parts: int = 2) -> list[str]:
    """Grid entry points == loops of solo calls, element-wise, both backends.

    Covers :func:`repro.engine.faults.faulty_bfs_grid` (rate-0 plans take
    the plane sweep; lossy plans fall back to the loop, which must still
    agree) and :func:`repro.core.resilient.evaluate_fault_grid` over cells
    mixing redundancy levels, dead edges, drop rates (0, interior, and the
    total-loss boundary), and fault seeds.
    """
    rng = ensure_rng(seed)
    roots = [int(r) for r in rng.integers(0, graph.n, size=3)] + [int(rng.integers(graph.n))]
    roots[1] = roots[0]  # duplicate (root, ·) queries must share results
    fault_seeds = [int(s) for s in rng.integers(0, 8, size=len(roots))]
    flood = max(run_bfs(graph, r, backend="vectorized").rounds for r in roots)
    plans = _rate0_and_lossy(graph, seed, flood)
    out = []
    for tag, plan in plans:
        for b in ("vectorized", "simulator"):
            out += _pair(
                f"bfs-grid[{tag}][{b}]",
                lambda: [
                    faulty_bfs(graph, r, plan=plan, fault_seed=s, backend=b)
                    for r, s in zip(roots, fault_seeds)
                ],
                lambda: faulty_bfs_grid(
                    graph, roots, plan=plan, fault_seeds=fault_seeds, backend=b
                ),
            )

    packing = _packing(graph, parts, seed)
    if packing is None:
        return out
    placement = uniform_random_placement(graph.n, k, seed=seed)
    dead = frozenset(plans[0][1].dead_edges)
    cells = [
        FaultCell(),
        FaultCell(redundancy=min(2, packing.size), drop_rate=0.4, fault_seed=seed + 3),
        FaultCell(dead_edges=dead, drop_rate=1.0),
        FaultCell(redundancy=min(2, packing.size), dead_edges=dead),
    ]
    for b in ("vectorized", "simulator"):
        out += _pair(
            f"fault-grid[{b}]",
            lambda: [
                redundant_broadcast(
                    graph, placement, packing, redundancy=c.redundancy,
                    dead_edges=c.dead_edges, drop_rate=c.drop_rate, mobile=c.mobile,
                    seed=seed, fault_seed=c.fault_seed, backend=b, collect_receipts=True,
                )
                for c in cells
            ],
            lambda: evaluate_fault_grid(
                graph, placement, packing, cells, seed=seed, backend=b,
                collect_receipts=True,
            ),
        )
    return out


def _untraced_vs_traced(label: str, call: Callable[[], Any]) -> list[str]:
    """``(call(), True)`` vs ``(call() under a fresh tracer, whether the
    tracer recorded any span)``."""

    def traced():
        with obs.use_tracer() as tracer:
            result = call()
        return result, bool(tracer.spans)

    return _pair(label, lambda: (call(), True), traced)


def check_trace_transparency(graph: Graph, k: int, seed, parts: int = 2) -> list[str]:
    """Tracing is a pure observer: traced == untraced, bit for bit.

    Runs :func:`repro.core.broadcast.fast_broadcast` and a lossy
    :func:`repro.core.resilient.redundant_broadcast` on both backends with
    an active :class:`repro.obs.Tracer`, and demands the whole results —
    phase ledger, congestion, receipts, the fault RNG end-state — match
    the untraced runs exactly and the tracer record spans: the
    null-overhead contract of the observability layer.
    """
    placement = uniform_random_placement(graph.n, k, seed=seed)
    out = []
    for b in ("vectorized", "simulator"):
        out += _untraced_vs_traced(
            f"trace-broadcast[{b}]",
            lambda: fast_broadcast(graph, placement, seed=seed, backend=b),
        )
    packing = _packing(graph, parts, seed)
    if packing is None:
        return out
    for b in ("vectorized", "simulator"):
        out += _untraced_vs_traced(
            f"trace-faulty[{b}]",
            lambda: redundant_broadcast(
                graph, placement, packing, redundancy=min(2, packing.size),
                drop_rate=0.3, seed=seed, fault_seed=seed + 1, backend=b,
                collect_receipts=True,
            ),
        )
    return out


# --------------------------------------------------------------------------- #
# The row table, the sweep and the boundary matrix
# --------------------------------------------------------------------------- #

@dataclass
class Trial:
    """One host plus every input the rows of :data:`ROWS` draw from it."""

    name: str
    t: int
    seed: int
    graph: Graph
    weighted: Graph  # host of the spanner, sparsifier and weighted-APSP rows
    root: int
    parts: int
    masks: list[np.ndarray]
    k: int
    counts: np.ndarray
    flood_mask: np.ndarray | None
    flood_plan: FaultPlan
    batch_roots: list[int]

    def seed_for(self, base: int) -> int:
        """A row's own seed: ``base · seed + t``."""
        return base * self.seed + self.t


#: The sweep, one check call per row. Every public ``check_*`` is named
#: here, and ``repro lint``'s parity rule reads this table.
ROWS: tuple[Callable[[Trial], list[str]], ...] = (
    lambda tr: check_bfs(tr.graph, tr.root),
    lambda tr: check_bfs(tr.graph, tr.root, edge_mask=tr.masks[0]),
    lambda tr: check_parallel_bfs(tr.graph, tr.masks, roots=[tr.root] * tr.parts),
    lambda tr: check_leader(tr.graph),
    lambda tr: check_numbering(tr.graph, tr.counts),
    lambda tr: check_tree_broadcast(
        tr.graph, tr.masks, tr.k, seed=tr.seed_for(3000), roots=[tr.root] * tr.parts
    ),
    lambda tr: check_combined_broadcast(tr.graph, tr.k, seed=tr.seed_for(3500)),
    lambda tr: check_unknown_lambda_broadcast(tr.graph, tr.k, seed=tr.seed_for(3700)),
    lambda tr: check_clustering(tr.graph, seed=tr.seed_for(4000)),
    lambda tr: check_spanner(tr.weighted, 2 + tr.t % 3, seed=tr.seed_for(5000)),
    lambda tr: check_sparsifier(tr.weighted, eps=0.5, seed=tr.seed_for(6000), tau=2),
    lambda tr: check_apsp_pipeline(tr.graph, seed=tr.seed_for(7000)),
    lambda tr: check_weighted_apsp(tr.weighted, 2 + tr.t % 3, seed=tr.seed_for(7500)),
    lambda tr: check_cuts_pipeline(tr.graph, eps=0.5, seed=tr.seed_for(8000), tau=2),
    lambda tr: check_faulty_bfs(
        tr.graph, tr.root, tr.flood_plan, fault_seed=tr.t, edge_mask=tr.flood_mask
    ),
    lambda tr: check_kernels(tr.graph, seed=tr.seed_for(14_000)),
    lambda tr: check_fault_paths(tr.graph, tr.k, seed=tr.seed_for(15_000), parts=tr.parts),
    lambda tr: check_bfs_batch(tr.graph, tr.batch_roots, edge_mask=tr.flood_mask),
    lambda tr: check_broadcast_batch(tr.graph, tr.k, seed=tr.seed_for(16_000)),
    lambda tr: check_fault_grid(tr.graph, tr.k, seed=tr.seed_for(18_000), parts=tr.parts),
    lambda tr: check_redundant_broadcast(
        tr.graph, tr.k, seed=tr.seed_for(10_000), parts=tr.parts, redundancy=1 + tr.t % 2
    ),
    lambda tr: check_root_policies(tr.graph, tr.parts, seed=tr.seed_for(11_000)),
    lambda tr: check_coverage_repair(
        tr.graph, tr.k, seed=tr.seed_for(12_000), parts=tr.parts
    ),
    lambda tr: (
        check_tournament(tr.graph, tr.k, seed=tr.seed_for(13_000)) if tr.t % 3 == 0 else []
    ),
    lambda tr: check_trace_transparency(
        tr.graph, tr.k, seed=tr.seed_for(19_000), parts=tr.parts
    ),
    lambda tr: check_broadcast_pipeline(tr.graph, tr.k, seed=tr.seed_for(17_000)),
)


@dataclass
class EquivalenceReport:
    """Outcome of one run of :data:`ROWS` over a list of trials."""

    trials: int = 0
    checks: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _run(trials) -> EquivalenceReport:
    report = EquivalenceReport()
    for trial in trials:
        for row in ROWS:
            report.checks += 1
            report.mismatches.extend(f"[{trial.name}] {m}" for m in row(trial))
        report.trials += 1
    return report


def _random_trial(rng, seed: int, t: int, max_n: int) -> Trial:
    n = int(rng.integers(2, max_n + 1))
    extra = int(rng.integers(0, max(1, n)))
    g = random_connected_graph(n, extra, seed=1000 * seed + t)
    # Weighted trials alternate tie-heavy weights in {1, 2} with 1–100.
    high = 2 if t % 4 == 1 else 100
    gw = random_weights(g, high=high, seed=1500 * seed + t) if t % 2 else g
    root = int(rng.integers(n))
    parts = int(rng.integers(1, 4))
    masks = random_edge_masks(g, parts, seed=2000 * seed + t)
    k = int(rng.integers(0, 3 * n))
    flood_mask = masks[0] if t % 2 else None
    flood = run_bfs(g, root, edge_mask=flood_mask, backend="vectorized").rounds
    return Trial(
        name=f"trial {t}, n={n}",
        t=t,
        seed=seed,
        graph=g,
        weighted=gw,
        root=root,
        parts=parts,
        masks=masks,
        k=k,
        counts=rng.integers(0, 4, size=n),
        flood_mask=flood_mask,
        flood_plan=random_fault_plan(g, seed=9000 * seed + t, rounds=flood),
        batch_roots=[root, root, int(rng.integers(n))],
    )


def verify_equivalence(
    trials: int = 10, seed: int = 0, max_n: int = 24
) -> EquivalenceReport:
    """Every row of :data:`ROWS` over ``trials`` random connected hosts."""
    rng = ensure_rng(seed)
    return _run(_random_trial(rng, seed, t, max_n) for t in range(trials))


def _boundary_trial(name: str, host: Graph) -> Trial:
    graph = host.unweighted() if host.is_weighted else host
    n, m = graph.n, graph.m
    masks = [np.arange(m) % 2 == i for i in range(2)]
    return Trial(
        name=name,
        t=0,
        seed=1,
        graph=graph,
        weighted=host,
        root=n - 1,
        parts=2,
        masks=masks,
        k=2 * n,
        counts=np.arange(n) % 4,
        flood_mask=None,
        flood_plan=FaultPlan(dead_edges=frozenset(range(m))),
        batch_roots=[n - 1, n - 1, 0],
    )


def verify_boundaries() -> list[str]:
    """Every row of :data:`ROWS` on six fixed boundary hosts, each flood
    under a plan with every edge dead; returns the mismatches."""
    ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4)]
    hosts = {
        "n=1": Graph(1, []),
        "n=2": Graph(2, [(0, 1)]),
        "edgeless": Graph(4, []),
        "two triangles": Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
        "highest id isolated": Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3)]),
        "tied weights": Graph(6, ring, weights=[2.0] * len(ring)),
    }
    return _run(_boundary_trial(name, g) for name, g in hosts.items()).mismatches


def main() -> int:  # pragma: no cover - thin CLI wrapper
    report = verify_equivalence(trials=25, seed=7, max_n=32)
    mismatches = report.mismatches + verify_boundaries()
    print(f"trials={report.trials} checks={report.checks}, then the boundary matrix")
    for m in mismatches:
        print(f"MISMATCH {m}")
    print("equivalent" if not mismatches else f"{len(mismatches)} mismatches")
    return 0 if not mismatches else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
