"""Low-diameter tree packings (Section 3.1).

Running a BFS inside each color class of a Theorem 2 decomposition — all
classes in parallel, since they are edge-disjoint — yields a **tree packing**
of ``Ω(λ/log n)`` edge-disjoint spanning trees of depth ``O((n log n)/δ)``
in ``O((n log n)/δ)`` rounds. This module builds that object, validates its
paper-promised properties, and exposes the fractional view used in the
comparison with Ghaffari [Gha15a] (integral unit weights, total weight λ').

The packing is also the interface to the Fischer–Parter mobile-adversary
compiler mentioned in Section 1.2: what their compiler needs is exactly
``(number of trees, per-edge congestion, max tree diameter)``, all certified
here.

**Root assignment.** Nothing in Section 3.1 requires the λ' floods to share
one root — each color class spans, so BFS from *any* node builds its tree in
the same O((n log n)/δ) rounds. Sharing a root is what E16 showed to be the
packing's single point of failure: one cheap cut around the root kills every
color class at once. :func:`resolve_roots` therefore exposes a root
*policy* — ``"shared"`` (the historical default), ``"spread"`` (a distinct,
evenly spaced root per class), ``"cut-aware"`` (roots steered away from the
light cuts Theorem 7's :func:`repro.cuts.approx.approx_all_cuts` reports),
or an explicit list — threaded through :func:`build_tree_packing` and
:func:`build_packing_with_retry` as the ``roots=`` parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.decomposition import Decomposition
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances
from repro.primitives.bfs import (
    BFSResult,
    check_roots,
    run_parallel_bfs,
    tree_edge_error,
)
from repro.util.errors import ValidationError

__all__ = [
    "ROOT_POLICIES",
    "TreePacking",
    "build_tree_packing",
    "packing_from_bfs_results",
    "resolve_roots",
]

#: Named root-assignment policies accepted by ``roots=`` (an explicit list
#: of node ids is always accepted as well).
ROOT_POLICIES = ("shared", "spread", "cut-aware")


@dataclass
class TreePacking:
    """A collection of spanning trees of one host graph, with build cost.

    Attributes
    ----------
    graph: host graph.
    trees: the spanning trees, each a rooted :class:`BFSResult` whose
        ``parent[root] == root``, ``dist`` is the hop depth and
        ``parent_edge`` names every tree edge's host id; the Lemma 1
        pipelines take them as they are.
    construction_rounds: certified CONGEST rounds spent building the packing
        (0 for the coloring itself + the parallel-BFS rounds).
    edge_tree_count: per host edge, in how many trees it appears — the
        packing's *congestion* (exactly ≤ 1 for Theorem 2 packings).
    class_masks: when built from a decomposition, the per-class edge masks
        (over host edge ids). A tree only uses n−1 of its class's edges, so
        the mask is what coverage repair re-roots within — without it a
        broken tree can only be fixed by a full rebuild.
    """

    graph: Graph
    trees: list[BFSResult]
    construction_rounds: int
    edge_tree_count: np.ndarray
    class_masks: list[np.ndarray] | None = None

    @property
    def size(self) -> int:
        return len(self.trees)

    @property
    def roots(self) -> list[int]:
        """Per-tree root node ids (all equal under the shared-root policy)."""
        return [t.root for t in self.trees]

    @property
    def congestion(self) -> int:
        return int(self.edge_tree_count.max()) if self.graph.m else 0

    @property
    def is_edge_disjoint(self) -> bool:
        return self.congestion <= 1

    @property
    def max_depth(self) -> int:
        return max(t.depth for t in self.trees)

    @property
    def max_diameter(self) -> int:
        return max(self.diameters())

    def diameters(self) -> list[int]:
        """Each tree's exact diameter: a node farthest from the root ends a
        longest path, so one BFS over the tree's edges from it suffices."""
        out = []
        for tree in self.trees:
            pe = tree.parent_edge
            mask = np.zeros(self.graph.m, dtype=bool)
            mask[pe[pe >= 0]] = True
            far = int(np.argmax(tree.dist))
            out.append(int(bfs_distances(self.graph.edge_subgraph(mask), far).max()))
        return out

    def fractional_total_weight(self) -> float:
        """Fractional tree-packing weight: unit weight per tree, scaled so
        that per-edge total weight is ≤ 1 (divide by congestion)."""
        c = max(1, self.congestion)
        return self.size / c

    def validate(self) -> None:
        """Certify the Section 3.1 claims: spanning, singly rooted and
        BFS-layered trees, every ``parent_edge`` the host edge between
        ``v`` and its parent, consistent edge counts."""
        g = self.graph
        for i, tree in enumerate(self.trees):
            if len(tree.parent) != g.n:
                raise ValidationError("tree node count mismatch")
            _check_tree(tree, i)
            bad = tree_edge_error(g, tree.parent, tree.parent_edge)
            if bad is not None:
                raise ValidationError(f"tree {i}: {bad}")
        if not np.array_equal(_edge_counts(g, self.trees), self.edge_tree_count):
            raise ValidationError("edge_tree_count is stale")


def _edge_counts(graph: Graph, trees: list[BFSResult]) -> np.ndarray:
    """Per host edge, how many of ``trees`` hold it: one bincount over the
    concatenated tree-edge ids (``parent_edge`` is ``-1`` at a root)."""
    eids = np.concatenate([np.empty(0, np.int64)] + [t.parent_edge for t in trees])
    return np.bincount(eids[eids >= 0], minlength=graph.m).astype(np.int64, copy=False)


def _check_tree(tree: BFSResult, i: int) -> None:
    """Refuse tree ``i`` unless it spans, its root is its only self-parent,
    and its ``dist`` is the hop depth of its parents."""
    if not tree.spans() or (tree.parent < 0).any():
        raise ValidationError(
            "color class is not spanning — the w.h.p. event of Theorem 2 "
            "failed; retry with a larger C or a different seed"
        )
    if not tree.single_rooted():
        raise ValidationError(f"tree {i}: root {tree.root} is not its only self-parent")
    if not tree.layered():
        raise ValidationError(f"tree {i}: dist is not the BFS layering of its parents")


def resolve_roots(
    graph: Graph,
    parts: int,
    roots="shared",
    base_root: int = 0,
    seed: int = 0,
    backend: str = "simulator",
) -> list[int]:
    """Resolve a root policy to one BFS root per color class.

    * ``"shared"`` — every class floods from ``base_root`` (the Theorem 1
      default: the leader); this is the configuration E16's targeted-cut
      adversary exploits.
    * ``"spread"`` — evenly spaced distinct roots
      ``(base_root + ⌊c·n/parts⌋) mod n``: no single node failure (or cheap
      cut around one node) can behead more than one color class.
    * ``"cut-aware"`` — runs Theorem 7 (:func:`~repro.cuts.approx.approx_all_cuts`
      at ε = 0.4), scores every singleton cut from the ε-sparsifier exactly as :class:`~repro.congest.adversary.TargetedCutAdversary`
      does, and spreads the roots over the *heaviest*-cut half of the nodes —
      the places a budgeted cut attacker can least afford to sever.
    * an explicit sequence of ``parts`` node ids is passed through verbatim.

    Deterministic per (graph, policy, seed) and bit-identical across
    backends (the Theorem 7 pipeline it leans on is itself certified), so
    multi-root packings stay reproducible in mixed-backend pipelines.
    """
    n = graph.n
    if parts < 1:
        raise ValidationError("parts must be >= 1")
    if not isinstance(roots, str):
        out = check_roots(graph, roots)
        if len(out) != parts:
            raise ValidationError(
                f"explicit roots list has {len(out)} entries for {parts} classes"
            )
        return out
    if not (0 <= base_root < n):
        raise ValidationError(f"root {base_root} out of range")
    if roots == "shared":
        return [base_root] * parts
    if roots == "spread":
        return [(base_root + (c * n) // parts) % n for c in range(parts)]
    if roots == "cut-aware":
        from repro.cuts.approx import approx_all_cuts

        res = approx_all_cuts(graph, eps=0.4, seed=seed, backend=backend)
        H = res.sparsifier.sparsifier
        hw = H.weights if H.weights is not None else np.ones(H.m)
        deg_h = np.zeros(n)
        np.add.at(deg_h, H.edge_u, hw)
        np.add.at(deg_h, H.edge_v, hw)
        # Keep the heaviest-estimated-singleton-cut half (ties: smaller id),
        # then spread over it in node-id order — heavy AND apart.
        order = np.lexsort((np.arange(n), -deg_h))
        safe = np.sort(order[: max(parts, (n + 1) // 2)])
        return [int(safe[(c * len(safe)) // parts]) for c in range(parts)]
    raise ValidationError(
        f"unknown root policy {roots!r}; expected one of {ROOT_POLICIES} "
        "or an explicit list of node ids"
    )


@obs.traced("tree_packing.build")
def build_tree_packing(
    decomp: Decomposition,
    root: int = 0,
    distributed: bool = True,
    backend: str = "simulator",
    roots=None,
) -> TreePacking:
    """BFS per color class → tree packing (Section 3.1).

    ``distributed=True`` under ``backend="simulator"`` (the default) runs
    the Lemma 2 floods concurrently on the CONGEST simulator (certified
    round count: all classes in parallel, so the cost is the *max* depth,
    not the sum). Every other combination runs the same parallel BFS on its
    certified vectorized twin (:func:`~repro.primitives.bfs.run_parallel_bfs`
    with ``backend="vectorized"``) — identical trees *and* the simulator's
    exact round count, two orders of magnitude faster for application
    pipelines — so ``distributed=False`` changes only the speed.

    ``roots`` selects the root-assignment policy (see :func:`resolve_roots`;
    ``None`` keeps the historical shared root at ``root``). All policies
    cost the same certified rounds — the classes flood concurrently, so the
    price is still the max class depth regardless of where each flood starts.
    """
    from repro.engine import validate_backend

    g = decomp.graph
    masks = decomp.masks()
    root_list = resolve_roots(
        g,
        decomp.parts,
        roots if roots is not None else "shared",
        base_root=root,
        backend=backend,
    )
    simulate = validate_backend(backend) == "simulator" and distributed
    results, rounds = run_parallel_bfs(
        g, masks, roots=root_list, backend="simulator" if simulate else "vectorized"
    )
    return packing_from_bfs_results(g, results, rounds, class_masks=masks)


@obs.traced("tree_packing.retry")
def build_packing_with_retry(
    graph: Graph,
    parts: int,
    seed: int,
    root: int = 0,
    distributed: bool = True,
    backend: str = "simulator",
    roots=None,
) -> tuple[TreePacking, int]:
    """Theorem 2 packing with seed-retry on w.h.p. failure, at most 8 seeds.

    The paper's validity-check remark (§1.1) licenses this: checking whether
    every class spans costs one parallel BFS, O((n log n)/δ) rounds, so a
    failed attempt is detected and re-randomized at that price. Returns
    ``(packing, attempts)``; the packing's ``construction_rounds`` already
    includes one BFS per *failed* attempt (charged at the successful
    attempt's BFS cost, the honest distributed price of each validity
    check).

    ``roots`` is the root-assignment policy of :func:`resolve_roots`. It is
    resolved to an explicit list *once*, before the retry loop — the roots
    depend only on the host graph, not on the decomposition attempt, and the
    cut-aware policy's Theorem 7 run is far too expensive to repeat per seed.
    """
    from repro.core.decomposition import random_partition

    root_list = resolve_roots(
        graph,
        parts,
        roots if roots is not None else "shared",
        base_root=root,
        seed=seed,
        backend=backend,
    )
    last_error: ValidationError | None = None
    for attempt in range(8):
        decomp = random_partition(graph, parts, seed + 7919 * attempt)
        try:
            packing = build_tree_packing(
                decomp,
                root=root,
                distributed=distributed,
                backend=backend,
                roots=root_list,
            )
        except ValidationError as err:
            last_error = err
            continue
        packing.construction_rounds *= attempt + 1
        obs.count("packing.attempts", attempt + 1)
        return packing, attempt + 1
    raise ValidationError(
        f"no spanning {parts}-part decomposition in 8 seeds — "
        "the per-class expected degree δ/parts is likely below the ln n "
        "connectivity threshold; use fewer parts (larger C)"
    ) from last_error


def packing_from_bfs_results(
    graph: Graph,
    trees: list[BFSResult],
    rounds: int,
    class_masks: list[np.ndarray] | None = None,
) -> TreePacking:
    """The Theorem 2 packing of ``trees``, kept as they are (no copy).

    Refuses a tree that does not span, is not singly rooted or is not
    BFS-layered, counts each host edge's trees off the carried
    ``parent_edge``, and gates edge-disjointness.
    """
    for i, tree in enumerate(trees):
        _check_tree(tree, i)
    packing = TreePacking(
        graph=graph,
        trees=trees,
        construction_rounds=rounds,
        edge_tree_count=_edge_counts(graph, trees),
        class_masks=class_masks,
    )
    if packing.congestion > 1:
        raise ValidationError(
            "Theorem 2 packing must be edge-disjoint", congestion=packing.congestion
        )
    return packing
