"""A1 — ablations over the library's design choices.

Three ablations the DESIGN.md constants bake in:

* **A1a — the constant C** in λ' = λ/(C log n): smaller C means more trees
  (faster pipeline) but a higher w.h.p. failure rate for Theorem 2's event.
  We sweep C and report parts, decomposition success over 10 seeds, and the
  end-to-end broadcast rounds when successful — locating the sweet spot the
  default C = 2 sits near.
* **A1b — message→tree assignment**: the paper's contiguous ranges vs
  round-robin vs a random assignment. All three balance loads to O(k/λ');
  contiguous is what Lemma 3 gives for free. Measured pipeline rounds
  should be within noise of each other — we verify none is secretly
  load-bearing.
* **A1c — redundancy r** (the resilience extension): rounds vs surviving a
  dead color class, r ∈ {1, 2, 3}.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.core import (
    build_tree_packing,
    build_packing_with_retry,
    fast_broadcast,
    num_parts,
    random_partition,
    redundant_broadcast,
    tree_edge_ids,
    uniform_random_placement,
)
from repro.graphs import thick_cycle
from repro.primitives.pipeline import run_tree_broadcast
from repro.util.errors import ValidationError
from repro.util.rng import rng_from_seed
from repro.util.tables import Table


def _ablate_C(g, lam, k):
    table = Table(
        ["C", "parts", "success/10", "rounds(best seed)"],
        title="A1a — the Theorem 2 constant C (thick cycle n=%d, λ=%d)" % (g.n, lam),
    )
    pl = uniform_random_placement(g.n, k, seed=1)
    rows = []
    for C in (0.75, 1.0, 1.5, 2.0, 3.0):
        parts = num_parts(lam, g.n, C)
        successes = 0
        rounds = None
        for seed in range(10):
            decomp = random_partition(g, parts, seed)
            try:
                packing = build_tree_packing(decomp, distributed=False)
            except ValidationError:
                continue
            successes += 1
            if rounds is None:
                res = fast_broadcast(g, pl, packing=packing, seed=seed)
                rounds = res.rounds
        table.add_row([C, parts, successes, rounds if rounds is not None else "-"])
        rows.append((C, parts, successes, rounds))
    table.print()
    # Shape: success rate is monotone non-decreasing in C; more parts help
    # rounds while they succeed.
    succ = [s for _, _, s, _ in rows]
    assert succ[-1] == 10, "C=3 must be reliable"
    assert succ == sorted(succ), f"success must not degrade as C grows: {succ}"
    return rows


def _ablate_assignment(g, lam, k):
    parts = num_parts(lam, g.n, C=1.5)
    packing, _ = build_packing_with_retry(g, parts, seed=3, distributed=False)
    trees = dict(enumerate(packing.trees))
    rng = rng_from_seed(4)
    owners = rng.integers(g.n, size=k)

    def placement_for(policy: str):
        per = {c: {} for c in range(parts)}
        K = -(-k // parts)
        for j in range(1, k + 1):
            if policy == "contiguous":
                c = min((j - 1) // K, parts - 1)
            elif policy == "round-robin":
                c = (j - 1) % parts
            else:
                c = int(rng.integers(parts))
            per[c].setdefault(int(owners[j - 1]), []).append(j)
        return per

    table = Table(
        ["assignment", "rounds", "max_congestion", "max_tree_load"],
        title="A1b — message→tree assignment policy",
    )
    rows = []
    for policy in ("contiguous", "round-robin", "random"):
        per = placement_for(policy)
        out = run_tree_broadcast(g, trees, per)
        load = max(sum(len(v) for v in per[c].values()) for c in range(parts))
        table.add_row([policy, out.rounds, out.max_congestion, load])
        rows.append((policy, out.rounds))
    table.print()
    # Shape: policies agree within ~35% (random has Θ(√(k log/parts)) skew).
    rs = [r for _, r in rows]
    assert max(rs) <= 1.35 * min(rs), f"assignment policy unexpectedly matters: {rows}"
    return rows


def _ablate_redundancy(g, lam, k):
    parts = num_parts(lam, g.n, C=1.5)
    packing, _ = build_packing_with_retry(g, parts, seed=5, distributed=False)
    pl = uniform_random_placement(g.n, k, seed=6)
    dead = tree_edge_ids(packing, 0)
    table = Table(
        ["r", "rounds", "delivered(dead tree)", "min_coverage"],
        title="A1c — redundancy vs a sabotaged color class",
    )
    rows = []
    for r in range(1, parts + 1):
        rep = redundant_broadcast(
            g, pl, packing, redundancy=r, dead_edges=dead, seed=7
        )
        table.add_row(
            [r, rep.rounds, f"{rep.fully_delivered}/{rep.k}",
             round(rep.min_coverage, 2)]
        )
        rows.append((r, rep))
    table.print()
    assert rows[0][1].fully_delivered < k  # r=1 must lose the dead tree
    assert all(rep.fully_delivered == k for _, rep in rows[1:])
    # Cost grows roughly linearly in r.
    assert rows[-1][1].rounds <= (parts + 1) * rows[0][1].rounds + 50
    return rows


def run_experiment():
    g = thick_cycle(12, 10)  # n = 120, λ = 20
    lam = 20
    k = 240
    a = _ablate_C(g, lam, k)
    b = _ablate_assignment(g, lam, k)
    c = _ablate_redundancy(g, lam, k)
    return a, b, c


def test_a1_ablations(benchmark):
    run_once(benchmark, run_experiment)
