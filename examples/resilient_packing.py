#!/usr/bin/env python
"""Tree packings for resilient communication (Theorem 2 + Theorem 12).

Scenario: the Fischer–Parter mobile-adversary compiler (Section 1.2) turns
any CONGEST algorithm into one that tolerates Õ(λ) adversarial edges per
round — *given* a packing of ≥ λ trees with polylog congestion and small
diameter. This example builds both packings the paper offers:

* the Theorem 2 packing — λ/(C log n) edge-disjoint trees, zero-round
  coloring plus one parallel BFS,
* the Appendix A packing — a full λ trees with O(log n) congestion,

prints the (count, congestion, diameter) triple the compiler consumes, and
then demonstrates Theorem 12 by broadcasting over all the overlapping
Appendix A trees at once under random-delay scheduling.

Run:  python examples/resilient_packing.py [--backend vectorized]

``--backend`` selects how the Theorem 2 packing is built and how the
closing redundant-broadcast demo executes (the vectorized fault engine
produces bit-identical reports; see benchmark E16 for the scale story).
"""

import argparse
import math
import sys

from repro.congest import TargetedCutAdversary
from repro.core import (
    build_packing_with_retry,
    greedy_low_diameter_packing,
    num_parts,
    redundant_broadcast,
    uniform_random_placement,
)
from repro.graphs import edge_connectivity, random_regular
from repro.primitives import run_scheduled_broadcast


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--backend",
        choices=["simulator", "vectorized"],
        default="simulator",
        help="backend for the packing build and the redundant-broadcast demo",
    )
    args = parser.parse_args(argv if argv is not None else [])
    backend = args.backend

    g = random_regular(200, 16, seed=3)
    lam = edge_connectivity(g)
    print(f"network: n={g.n}, m={g.m}, λ={lam}  (backend: {backend})\n")

    parts = num_parts(lam, g.n, C=1.5)
    packing, attempts = build_packing_with_retry(
        g, parts, seed=4, distributed=True, backend=backend
    )
    print("Theorem 2 packing (edge-disjoint):")
    print(f"  trees={packing.size}  congestion={packing.congestion}  "
          f"max diameter={packing.max_diameter}")
    print(f"  built in {packing.construction_rounds} certified rounds "
          f"({attempts} attempt(s))\n")

    alt = greedy_low_diameter_packing(g, lam, seed=5)
    print("Appendix A packing (λ trees, overlapping):")
    print(f"  trees={alt.size}  congestion={alt.congestion} "
          f"(target O(log n) = {math.log(g.n):.1f})  max diameter={alt.max_diameter}\n")

    # Theorem 12: run a broadcast job over *every* Appendix A tree at once.
    # Trees share edges, so the jobs contend; random delays smooth the load.
    jobs = min(6, alt.size)
    trees = dict(enumerate(alt.trees[:jobs]))
    msgs = {
        j: {(17 * j) % g.n: list(range(100 * j + 1, 100 * j + 31))}
        for j in range(jobs)
    }
    sched = run_scheduled_broadcast(g, trees, msgs, seed=6)
    base = run_scheduled_broadcast(g, trees, msgs, max_delay=0, seed=6)
    budget = sched.congestion + max(alt.diameters()[:jobs]) * math.log(g.n) ** 2
    print(f"Theorem 12 — {jobs} overlapping 30-message broadcasts:")
    print(f"  makespan {sched.makespan} rounds with random delays "
          f"(no-delay baseline {base.makespan}); "
          f"O(congestion + dilation·log²n) budget ≈ {budget:.0f}")
    print(f"  joint congestion {sched.congestion} messages on the busiest edge\n")

    # What the FP23 compiler consumes the packing *for*: redundancy against
    # an informed attacker. The targeted-cut adversary aims at the lightest
    # approximate cut (Theorem 7); r = 2 over the edge-disjoint trees rides
    # out its budget.
    attacker = TargetedCutAdversary(
        eps=0.5, budget=6, candidates=8, seed=7, tau=2, backend=backend
    )
    placement = uniform_random_placement(g.n, 60, seed=8)
    print("redundant broadcast vs targeted-cut attacker (budget 6):")
    for r in (1, 2):
        rep = redundant_broadcast(
            g, placement, packing, redundancy=r, adversary=attacker, seed=9,
            backend=backend,
        )
        print(f"  r={r}: {rep.fully_delivered}/{rep.k} fully delivered "
              f"(min coverage {rep.min_coverage:.0%}, "
              f"{rep.dropped_messages} frames dropped, {rep.rounds} rounds)")


if __name__ == "__main__":
    main(sys.argv[1:])
