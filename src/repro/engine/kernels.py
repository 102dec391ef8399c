"""Shared array kernels for the vectorized backend: CSR builders, the
BFS layer loop, the root service of the Lemma 1 pipeline, and the
event-batched span algebra, which no protocol runs any more.

* **One BFS layer loop** — :func:`frontier_sweep` (defined in
  :mod:`repro.graphs.traversal`, so centralized callers reach it without
  importing the engine) advances every BFS of a call one layer per numpy
  gather over flat keys ``q·n + v`` and adopts parents inline: one
  ``np.minimum.at`` scatter of each fresh arc's source onto its candidate
  leaves every candidate its smallest previous-layer neighbor, and the
  arcs whose source won are the next frontier, one per candidate. A solo
  sweep, the disjoint-union sweep of a tree packing and the query plane
  of :mod:`repro.engine.plane` all run it; ``check_kernels`` compares it
  with a plain-Python queue BFS
  (:func:`repro.engine.verify.queue_bfs_dist`) and the plain-Python
  first-port rule (:func:`repro.engine.verify.first_port_parents`).

* **Root service** — :func:`last_send_round_spans` is the last send round
  of a unit-rate queue fed by arrival spans. The Lemma 1 closed form
  (:func:`repro.engine.fastpath.pipeline_closed_form`) feeds it one span
  ``[d, d]`` per origin depth ``d``, at the rate of the messages from that
  depth, and so reads the root's last send off the origin-depth histogram
  with no upcast at all.

* **Event-batched span stepping** — between queue-drain events the
  pipelined-broadcast recurrence is closed-form, so
  :func:`upcast_spans` advances the Lemma 1 upcast one *tree layer* at a
  time instead of one *round* at a time: per layer, child send intervals
  are overlaid into arrival-rate spans (:func:`_overlay_spans`) and the
  work-conserving unit-rate queues are folded with a segmented max-plus
  scan (:func:`_busy_scan`). Total work is O((n + events) · depth-layers)
  with no per-round Python iteration. The pipeline's round count needs
  only the origin-depth histogram, so no library code calls it. It stays
  because ``perfbench/layers.py`` wraps it by name and the traced
  benchmark run fails on a missing target, so it goes with the next change
  to the benchmark; until then the verify sweep (``check_kernels``)
  replays the upcast one round at a time in plain Python and demands the
  same root arrival stream.

Exactness of the batch-at-start model the span functions use: an
arrival span of rate ``ρ ≥ 1`` over rounds ``[a, b]`` delivers item ``i``
at ``a + ⌊i/ρ⌋``; a unit-rate server that starts the span at round
``max(prev_finish + 1, a)`` sends item ``i`` no earlier than ``a + i ≥
a + ⌊i/ρ⌋``, so availability never binds mid-span and the whole span
behaves exactly like a batch of ``ρ·(b−a+1)`` items landing at ``a``.
Overlay rates are counts of concurrently-busy children, hence always
``≥ 1``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.graphs.traversal import expand_csr_rows, frontier_sweep

__all__ = [
    "children_csr",
    "children_lists",
    "expand_csr_rows",
    "frontier_sweep",
    "last_send_round_spans",
    "lists_to_csr",
    "upcast_spans",
]


# --------------------------------------------------------------------------- #
# CSR builders shared by fastpath / faults / broadcast call sites
# --------------------------------------------------------------------------- #

def children_csr(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, child_ids)`` of a parent array, children ascending.

    Self-parents (roots) and ``-1`` (unreached) contribute no children;
    each child block is sorted ascending — the canonical order every
    simulator tree uses (ports are numbered by neighbor id).
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    kids = np.nonzero((parent >= 0) & (parent != np.arange(n)))[0]
    order = np.argsort(parent[kids], kind="stable")  # kids already ascending
    kids = kids[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent[kids], minlength=n), out=indptr[1:])
    return indptr, kids


def children_lists(parent: np.ndarray) -> list[list[int]]:
    """Per-node sorted child lists from a parent array (canonical order)."""
    indptr, kids = children_csr(parent)
    flat = kids.tolist()
    bounds = indptr.tolist()
    return [flat[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)]


def lists_to_csr(lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, flat)`` of a ragged list-of-lists of ints."""
    counts = np.fromiter(
        (len(block) for block in lists), dtype=np.int64, count=len(lists)
    )
    indptr = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    flat = np.fromiter(
        (v for block in lists for v in block), dtype=np.int64, count=total
    )
    return indptr, flat


# --------------------------------------------------------------------------- #
# Event-batched span algebra (Lemma 1 upcast)
# --------------------------------------------------------------------------- #

def _overlay_spans(
    p: np.ndarray, s0: np.ndarray, e0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Overlay unit-rate busy intervals into per-parent arrival spans.

    Each input interval ``[s0, e0]`` (inclusive) delivers one item per
    round to parent ``p``. Returns ``(nodes, starts, ends, rates)``:
    maximal constant-rate spans, rates ``≥ 1``, grouped by node and
    sorted by start within each node.
    """
    if p.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    ones = np.ones(p.size, dtype=np.int64)
    ev_p = np.concatenate([p, p])
    ev_r = np.concatenate([s0, e0 + 1])
    ev_d = np.concatenate([ones, -ones])
    order = np.lexsort((ev_r, ev_p))
    ev_p = ev_p[order]
    ev_r = ev_r[order]
    # Per-parent deltas sum to zero, so the plain cumulative sum carries no
    # residue across parent blocks — no segmented reset needed.
    rate = np.cumsum(ev_d[order])
    last = np.empty(ev_p.size, dtype=bool)
    last[-1] = True
    last[:-1] = (ev_p[1:] != ev_p[:-1]) | (ev_r[1:] != ev_r[:-1])
    ev_p = ev_p[last]
    ev_r = ev_r[last]
    rate = rate[last]
    # A span [r_i, r_{i+1} - 1] exists wherever the running rate is positive
    # and the next event belongs to the same parent (a block's final event
    # always has rate 0: every interval closed).
    same = np.zeros(ev_p.size, dtype=bool)
    same[:-1] = ev_p[1:] == ev_p[:-1]
    keep = same & (rate > 0)
    idx = np.nonzero(keep)[0]
    return ev_p[idx], ev_r[idx], ev_r[idx + 1] - 1, rate[idx]


def _busy_scan(
    nodes: np.ndarray, s: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Busy intervals of per-node unit-rate queues fed by batches.

    ``w[j]`` items land at node ``nodes[j]`` at round ``s[j]`` (sorted by
    ``(node, s)``, starts distinct within a node); each node sends one
    item per round while its queue is nonempty. Returns the maximal busy
    intervals ``(nodes, starts, ends)`` — exactly the node's send rounds.

    The finish-round recurrence ``f_j = max(f_{j-1}, s_j - 1) + w_j``
    folds into a segmented max-plus scan: with ``W`` the segmented
    inclusive cumsum of ``w`` and ``g_j = s_j - 1 - W_{j-1}``,
    ``f_j = W_j + max_{i ≤ j} g_i``; the segmented running max rides a
    single ``np.maximum.accumulate`` over ``seg·off + (g - gmin)`` keys.
    """
    head = np.empty(nodes.size, dtype=bool)
    head[0] = True
    head[1:] = nodes[1:] != nodes[:-1]
    seg = np.cumsum(head) - 1
    cw = np.cumsum(w)
    head_idx = np.nonzero(head)[0]
    W = cw - (cw - w)[head_idx][seg]
    g = s - 1 - (W - w)
    gmin = int(g.min())
    off = int(g.max()) - gmin + 1
    key = seg * off + (g - gmin)
    f = W + np.maximum.accumulate(key) - seg * off + gmin
    gap = head.copy()
    gap[1:] |= s[1:] > f[:-1] + 1  # f[:-1] is same-segment wherever head is False
    end = np.empty(nodes.size, dtype=bool)
    end[-1] = True
    end[:-1] = gap[1:]
    return nodes[gap], s[gap], f[end]


def upcast_spans(
    up: np.ndarray, flat_parents: np.ndarray, flat_dist: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Root arrival spans of the Lemma 1 upcast, layer-batched.

    ``up[v]`` items start queued at flat node ``v`` (roots hold 0);
    ``flat_dist`` must be a proper BFS layering (root depth 0, child
    depth = parent depth + 1 — the caller gates on this). Bottom-up, one
    iteration per tree layer: child send intervals shift by one round
    (an item received in round r is sendable in round r + 1), overlay
    into arrival spans, and merge with the layer's own batches (queued
    before round 1) through the busy scan. The final overlay onto the
    roots is **unshifted**: a root arrival in round r is the child's
    send round.

    Returns ``(nodes, starts, ends, rates)`` — per flat root, the rounds
    where ``rates`` children deliver simultaneously. Expanding each span
    into per-round batches reproduces a round-by-round walk of the
    up-queues exactly.
    """
    empty = np.empty(0, dtype=np.int64)
    if flat_dist.size == 0:
        return empty, empty, empty, empty
    order = np.argsort(flat_dist, kind="stable")
    maxd = int(flat_dist.max())
    bounds = np.searchsorted(flat_dist[order], np.arange(maxd + 2))
    iv_node = iv_b = iv_e = empty
    for d in range(maxd, 0, -1):
        layer = order[bounds[d] : bounds[d + 1]]
        if iv_node.size:
            anodes, astarts, aends, arates = _overlay_spans(
                flat_parents[iv_node], iv_b + 1, iv_e + 1
            )
            aw = (aends - astarts + 1) * arates
        else:
            anodes = astarts = aw = empty
        onodes = layer[up[layer] > 0]
        if onodes.size:
            nodes = np.concatenate([onodes, anodes])
            starts = np.concatenate([np.ones(onodes.size, dtype=np.int64), astarts])
            w = np.concatenate([up[onodes], aw])
        else:
            nodes, starts, w = anodes, astarts, aw
        if nodes.size == 0:
            iv_node = iv_b = iv_e = empty
            continue
        obs.count("engine.span_batches")
        obs.count("engine.spans", nodes.size)
        obs.count("engine.span_batch_peak", nodes.size, "max")
        mo = np.lexsort((starts, nodes))
        iv_node, iv_b, iv_e = _busy_scan(nodes[mo], starts[mo], w[mo])
    if iv_node.size == 0:
        return empty, empty, empty, empty
    return _overlay_spans(flat_parents[iv_node], iv_b, iv_e)


def last_send_round_spans(
    starts: np.ndarray, ends: np.ndarray, rates: np.ndarray
) -> int:
    """Last send round of a unit-rate queue fed by arrival spans.

    Span ``j`` delivers ``rates[j]`` items per round over
    ``[starts[j], ends[j]]`` (spans disjoint, sorted by start, rates
    ``≥ 1``, at least one span). Folding the per-item recurrence
    ``t_i = max(a_i, t_{i-1} + 1)`` over whole batches gives ``t_last =
    max_j (a_j + (K - cum_{<j})) - 1`` with K the total item count; over
    spans the maximum of ``start_j + (items not yet arrived before span
    j)`` is attained at span starts because the objective's slope inside a
    span is ``1 - rate ≤ 0``.
    """
    w = (ends - starts + 1) * rates
    cum_before = np.cumsum(w) - w
    total = int(cum_before[-1] + w[-1])
    return int((starts + (total - cum_before)).max()) - 1
