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

Parity cannot see a change made to both backends alike, so the outcomes
themselves are pinned too: :func:`golden_digests` hashes every
:func:`_pair` outcome of the tier-1 sweep and the boundary matrix with
:func:`digest`, and a tier-1 test compares the hashes with the committed
:data:`GOLDEN_PATH`. ``python -m repro.engine.verify --update-golden``
rewrites that file after an intended change of an output or an RNG stream.

Every check returns a list of mismatch strings (empty = equivalent), each
naming the path of the field that diverged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter, deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
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
from repro.congest.adversary import FaultPlan, MobileAdversary
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
from repro.graphs.generators import random_weights, thick_cycle
from repro.graphs.graph import Graph
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
    "digest",
    "GOLDEN_PATH",
    "golden_digests",
    "golden_mismatches",
    "write_golden",
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
    "first_port_parents",
    "queue_bfs_dist",
    "boundary_hosts",
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


def one_tree_plan(packing, rounds: int) -> FaultPlan:
    """A rate-0 plan on tree 0's edges alone: the first half dead, the rest
    under a two-edge sweep for ``rounds`` rounds. Every other tree is left
    untouched, so the fault engine splits its channels."""
    edges = sorted(tree_edge_ids(packing, 0))
    half = len(edges) // 2
    mobile = {}
    if edges[half:]:
        mobile = MobileAdversary.sweeping(edges[half:], budget=2, rounds=rounds).mobile
    return FaultPlan(dead_edges=edges[:half], mobile=mobile)


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


def _feed(h, value) -> None:
    """Hash ``value`` into ``h``, walked as :func:`diff` walks it."""
    cls = type(value)
    h.update(f"<{cls.__qualname__}".encode())
    names = _VIEWS.get(cls)
    if names is None and dataclasses.is_dataclass(value):
        names = tuple(f.name for f in dataclasses.fields(value))
    if names is not None:
        for name in names:
            if name not in EXEMPT:
                h.update(f" {name}=".encode())
                _feed(h, getattr(value, name))
    elif isinstance(value, dict):
        for key, item in value.items():
            _feed(h, key)
            _feed(h, item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _feed(h, item)
    elif isinstance(value, (set, frozenset)):
        for text in sorted(map(repr, value)):
            h.update(f" {len(text)}:{text}".encode())
    elif isinstance(value, np.ndarray):
        h.update(f" {value.dtype.str}{list(value.shape)} ".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        text = repr(value)
        h.update(f" {len(text)}:{text}".encode())
    h.update(b">")


def digest(value) -> str:
    """SHA-256 of ``value`` (first 16 hex digits), over what :func:`diff`
    compares: the same :data:`_VIEWS`, minus the same :data:`EXEMPT`
    fields, with :class:`Raised` outcomes as dataclasses. Arrays go in by
    dtype, shape and bytes; any other leaf by type and ``repr``."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:16]


#: While :func:`_run` records digests: the current trial's :func:`_pair`
#: calls as ``(label, digest of both outcomes)``, in call order.
_RECORDED: ContextVar[list[tuple[str, str]] | None] = ContextVar(
    "verify_recorded", default=None
)


def _outcome(call: Callable[[], Any]) -> Any:
    """``call()``, or :class:`Raised` if it raises :class:`ValidationError`."""
    try:
        return call()
    except ValidationError as err:
        return Raised(str(err))


def _pair(label: str, first: Callable[[], Any], second: Callable[[], Any]) -> list[str]:
    """Diff the outcomes of two zero-argument calls, paths under ``label``."""
    a, b = _outcome(first), _outcome(second)
    calls = _RECORDED.get()
    if calls is not None:
        calls.append((label, digest((a, b))))
    return diff(a, b, label)


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
    per-edge and total messages and bits, per-channel k). The vectorized
    side runs twice, on the ``{node: [ids]}`` mapping and on the flat
    ``(origins, ids)`` pair, and both must equal the simulator.

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
    pairs: dict[int, tuple[list[int], list[int]]] = {c: ([], []) for c in cids}
    for j in range(1, k + 1):
        c = cids[int(rng.integers(len(cids)))]
        v = int(rng.integers(graph.n))
        messages[c].setdefault(v, []).append(j)
        pairs[c][0].append(v)
        pairs[c][1].append(j)
    # The same messages as flat (origins, ids) arrays in id order, the
    # form the broadcast tails hand over: it must not change the outcome.
    flat = {
        c: (np.array(o, dtype=np.int64), np.array(i, dtype=np.int64))
        for c, (o, i) in pairs.items()
    }
    reference = _outcome(lambda: run_tree_broadcast(graph, trees, messages))
    return _pair(
        "pipeline",
        lambda: reference,
        lambda: vectorized_tree_broadcast(graph, trees, messages),
    ) + _pair(
        "pipeline-flat",
        lambda: reference,
        lambda: vectorized_tree_broadcast(graph, trees, flat),
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
    spread over the fault-free run's length. ``plan`` may also be a
    function of the packing and that run length, such as
    :func:`one_tree_plan`.
    """
    packing = _packing(graph, parts, seed)
    if packing is None:
        return []
    placement = uniform_random_placement(graph.n, k, seed=seed)
    redundancy = min(max(1, redundancy), packing.size)
    if plan is None or callable(plan):
        run = redundant_broadcast(
            graph, placement, packing, redundancy=redundancy, seed=seed,
            backend="vectorized",
        ).rounds
        if plan is None:
            plan = random_fault_plan(graph, seed=seed + 13, rate=rate, rounds=run)
        else:
            plan = plan(packing, run)
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


def first_port_parents(
    indptr: np.ndarray, indices: np.ndarray, dist: np.ndarray
) -> np.ndarray:
    """The simulator's adoption rule in plain Python, given a BFS layering
    of the CSR: a root (dist 0) is its own parent, a reached node adopts
    its smallest neighbor one layer up, and ``-1`` stays unreached."""
    parent = np.full(dist.size, -1, dtype=np.int64)
    for v in range(dist.size):
        if dist[v] == 0:
            parent[v] = v
        elif dist[v] > 0:
            arcs = indices[indptr[v] : indptr[v + 1]]
            parent[v] = min(
                (int(u) for u in arcs if dist[u] == dist[v] - 1), default=-1
            )
    return parent


def queue_bfs_dist(indptr: np.ndarray, indices: np.ndarray, root: int) -> np.ndarray:
    """Hop distances from ``root`` by a plain-Python FIFO queue over the
    CSR; ``-1`` stays unreached."""
    dist = [-1] * (indptr.size - 1)
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in indices[indptr[u] : indptr[u + 1]].tolist():
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return np.array(dist, dtype=np.int64)


def check_kernels(graph: Graph, seed) -> list[str]:
    """Direct identities of the :mod:`repro.engine.kernels` primitives.

    ``frontier_sweep`` must give the dists of a plain-Python queue BFS
    (:func:`queue_bfs_dist`) and the parents of the plain-Python
    smallest-previous-layer rule (:func:`first_port_parents`);
    ``last_send_round_spans`` and ``upcast_spans`` must match plain-Python
    walks (the upcast one round at a time); the root, popping that walk's
    arrivals one per round, must pop its last one in the round
    ``last_send_round_spans`` gives over the origin-depth histogram, the
    closed form of the Lemma 1 pipeline; and the CSR builders must match
    plain-Python lists and slices. The pipeline built on them is compared
    with the simulator by :func:`check_tree_broadcast`.
    """
    n = graph.n
    rng = ensure_rng(seed)

    # -- frontier_sweep vs a python queue BFS and adoption rule -------- #
    root = int(rng.integers(n))
    indptr, indices = graph._indptr, graph._indices
    sweep_parent, sweep_dist = kernels.frontier_sweep(n, indptr, indices, root)
    out = diff(
        sweep_dist, queue_bfs_dist(indptr, indices, root), "kernels.frontier_sweep.dist"
    )
    out += diff(
        sweep_parent,
        first_port_parents(indptr, indices, sweep_dist),
        "kernels.frontier_sweep.parent",
    )

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

    # -- CSR builders --------------------------------------------------- #
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
    sel, counts = kernels.expand_csr_rows(cindptr, rows)
    ref_counts = np.diff(cindptr)[rows]
    ref_vals = (
        np.concatenate([cind[cindptr[r] : cindptr[r + 1]] for r in rows])
        if rows.size
        else np.empty(0, dtype=np.int64)
    )
    out += diff(
        (cind[sel], counts), (ref_vals, ref_counts), "kernels.expand_csr_rows"
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
    out += diff(spans, walk, "kernels.upcast_spans")

    # -- the root's last pop == the closed form over origin depths ------ #
    if not walk:
        return out
    arrived = {rr: c for rr, _root, c in walk}
    held = last_pop = r = 0
    while arrived or held:
        r += 1
        held += arrived.pop(r, 0)
        if held:
            held -= 1  # the root sends one item down per round
            last_pop = r
    per_depth = np.bincount(np.repeat(sweep_dist, up))
    d = np.flatnonzero(per_depth)
    return out + diff(
        kernels.last_send_round_spans(d, d, per_depth[d]),
        last_pop,
        "kernels.last_send_round_spans.depths",
    )


def check_fault_paths(graph: Graph, k: int, seed, parts: int = 2) -> list[str]:
    """Every path of the fault engine against the simulator.

    The vectorized engine picks its path from the plan and the trees: the
    rate-0 closed form (here with dead and mobile edges), the per-round
    replay (rate 0.3), and the total-loss closed form (rate 1, no dead or
    mobile edges). Each rate runs through :func:`check_faulty_bfs` and
    :func:`check_redundant_broadcast`, the random plans' mobile rounds
    spread over the length of the flood and of the broadcast respectively.
    Random plans on tiny hosts hit every tree, and the sparse random hosts
    rarely hold a packing of two trees. So one more broadcast runs
    :func:`one_tree_plan` over a two- or three-tree packing of a small
    thick cycle drawn from ``seed``: at rate 0 the untouched trees take the
    fault-free closed form beside the attacked one.
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
    host = thick_cycle(3 + seed % 4, 6)
    mismatches = check_redundant_broadcast(
        host, max(1, k), seed, parts=2 + seed % 2, redundancy=2, plan=one_tree_plan
    )
    out.extend(f"fault-paths[one-tree] {m}" for m in mismatches)
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
    """textbook/fast broadcast batches == loops of solo calls, both backends,
    also with one given ``packing`` reused by every placement."""
    rng = ensure_rng(seed)
    placements = [
        uniform_random_placement(graph.n, int(kk), seed=seed + 17 * j)
        for j, kk in enumerate(rng.integers(0, max(1, k) + 1, size=3))
    ]
    seeds = [int(s) for s in rng.integers(0, 3, size=len(placements))]
    packing = _packing(graph, 2, seed)
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
        if packing is not None:
            out += _pair(
                f"fast-batch[{b}][packing]",
                lambda: [
                    fast_broadcast(graph, p, packing=packing, backend=b)
                    for p in placements
                ],
                lambda: fast_broadcast_batch(
                    graph, placements, packing=packing, backend=b
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
    #: A host that holds a packing of two or three trees, which the sparse
    #: random hosts almost never do.
    packing_host: Graph

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
    lambda tr: check_fault_grid(
        tr.packing_host, max(1, tr.k), seed=tr.seed_for(20_000), parts=2 + tr.t % 2
    ),
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


def _run(trials, digests: dict[str, str] | None = None) -> EquivalenceReport:
    """Every row of :data:`ROWS` over ``trials``. With ``digests``, also
    record there the :func:`digest` of both outcomes of every :func:`_pair`
    call, keyed ``[trial] label``; a label's second and later calls within
    one trial get `` #2``, `` #3``, ..."""
    report = EquivalenceReport()
    for trial in trials:
        calls: list[tuple[str, str]] = []
        token = _RECORDED.set(None if digests is None else calls)
        try:
            for row in ROWS:
                report.checks += 1
                report.mismatches.extend(f"[{trial.name}] {m}" for m in row(trial))
        finally:
            _RECORDED.reset(token)
        seen: Counter[str] = Counter()
        for label, value in calls:
            seen[label] += 1
            nth = f" #{seen[label]}" if seen[label] > 1 else ""
            digests[f"[{trial.name}] {label}{nth}"] = value
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
        packing_host=thick_cycle(3 + t % 4, 6),
    )


def verify_equivalence(
    trials: int = 10, seed: int = 0, max_n: int = 24, digests: dict[str, str] | None = None
) -> EquivalenceReport:
    """Every row of :data:`ROWS` over ``trials`` random connected hosts
    (``digests``: see :func:`_run`)."""
    rng = ensure_rng(seed)
    return _run((_random_trial(rng, seed, t, max_n) for t in range(trials)), digests)


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
        packing_host=thick_cycle(3, 6),
    )


def boundary_hosts() -> dict[str, Graph]:
    """The six fixed hosts of :func:`verify_boundaries`, by name."""
    ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4)]
    return {
        "n=1": Graph(1, []),
        "n=2": Graph(2, [(0, 1)]),
        "edgeless": Graph(4, []),
        "two triangles": Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
        "highest id isolated": Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3)]),
        "tied weights": Graph(6, ring, weights=[2.0] * len(ring)),
    }


def verify_boundaries(digests: dict[str, str] | None = None) -> list[str]:
    """Every row of :data:`ROWS` on the six :func:`boundary_hosts`, each
    flood under a plan with every edge dead; returns the mismatches
    (``digests``: see :func:`_run`)."""
    hosts = boundary_hosts()
    return _run((_boundary_trial(name, g) for name, g in hosts.items()), digests).mismatches


#: The committed digests of :func:`golden_digests`, with the numpy version
#: they were recorded under.
GOLDEN_PATH = Path(__file__).with_name("verify_golden.json")


def golden_digests() -> dict[str, str]:
    """The digests of the tier-1 sweep (``verify_equivalence(trials=6,
    seed=11, max_n=20)``) and of :func:`verify_boundaries`."""
    digests: dict[str, str] = {}
    verify_equivalence(trials=6, seed=11, max_n=20, digests=digests)
    verify_boundaries(digests)
    return digests


def write_golden() -> int:
    """Record :func:`golden_digests` in :data:`GOLDEN_PATH`; returns how
    many."""
    digests = golden_digests()
    record = {"numpy": np.__version__, "digests": digests}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1) + "\n")
    return len(digests)


def golden_mismatches(digests: dict[str, str]) -> tuple[list[str], str]:
    """The labels whose digest in ``digests`` (what :func:`golden_digests`
    returns) differs from :data:`GOLDEN_PATH` or is on one side only, and
    the numpy version the file was recorded under."""
    record = json.loads(GOLDEN_PATH.read_text())
    old, new = record["digests"], digests
    moved = [key for key in old.keys() | new.keys() if old.get(key) != new.get(key)]
    return sorted(moved), record["numpy"]


def main(args: list[str]) -> int:  # pragma: no cover - thin CLI wrapper
    if args == ["--update-golden"]:
        print(f"wrote {write_golden()} digests to {GOLDEN_PATH}")
        return 0
    if args:
        print("usage: python -m repro.engine.verify [--update-golden]")
        return 2
    report = verify_equivalence(trials=25, seed=7, max_n=32)
    mismatches = report.mismatches + verify_boundaries()
    print(f"trials={report.trials} checks={report.checks}, then the boundary matrix")
    for m in mismatches:
        print(f"MISMATCH {m}")
    print("equivalent" if not mismatches else f"{len(mismatches)} mismatches")
    return 0 if not mismatches else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main(sys.argv[1:]))
