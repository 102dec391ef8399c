"""Adversary tournament: every attack vs every countermeasure, scored.

E16 ended one-sided: the targeted-cut adversary (Theorem 7 turned against
Theorem 1) beheads a shared-root packing for the price of one node's degree,
and no redundancy level helps, because every color class pipes through the
same root. This module closes the loop. It round-robins the scenario library
of :mod:`repro.congest.adversary` against the countermeasure grid the repo
now has — root policies (:func:`repro.core.tree_packing.resolve_roots`),
redundancy levels, and the coverage-repair loop
(:func:`repro.core.resilient.repair_coverage`) — at *matched fault budgets*,
so every cell answers "what does this defense buy against this attack for
the same adversarial spend?".

Each cell scores:

* ``min_coverage`` — the attack's headline damage (before repair),
* ``repaired_min_coverage`` — what graceful degradation buys back,
* ``rounds`` / ``total_bits`` — the certified CONGEST price actually paid,
* ``repair_rounds`` / ``rebuilt`` / ``rerooted`` — what the repair cost.

Wall clocks deliberately stay *out* of the cells: a
:class:`TournamentResult` is bit-identical across backends (asserted by
``engine/verify.py``'s ``check_tournament``), and timing belongs to the
bench layer (``benchmarks/bench_e17_tournament.py``).

Budgets are matched as follows, for a tournament budget ``B`` (default: the
degree of node 0 — the leader-degree cut E16 exploited): the static
saboteur kills the first ``B`` edges of packed tree 0; the mobile adversary
sweeps tree 0's edges with a ``B``-edge per-round foothold; i.i.d. loss runs
at rate ``B/m`` (the same expected number of controlled edges); the
targeted-cut attacker gets a ``B``-edge cut budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.congest.adversary import (
    AdversarySchedule,
    MobileAdversary,
    RandomLoss,
    StaticSaboteur,
    TargetedCutAdversary,
)
from repro.graphs.graph import Graph
from repro.util.errors import ValidationError

__all__ = [
    "DEFAULT_ADVERSARIES",
    "DEFAULT_DEFENSES",
    "SCENARIOS",
    "TournamentCell",
    "TournamentResult",
    "parse_defense",
    "run_tournament",
]


# --------------------------------------------------------------------------- #
# Scenario registry — name -> (doc, budget-matched factory)
# --------------------------------------------------------------------------- #

def _scenario_dead_tree(ctx, packing) -> AdversarySchedule:
    from repro.core.resilient import tree_edge_ids

    ids = sorted(tree_edge_ids(packing, 0))[: ctx.budget]
    return StaticSaboteur(dead_edges=ids)


def _scenario_mobile(ctx, packing) -> AdversarySchedule:
    from repro.core.resilient import tree_edge_ids

    pool = sorted(tree_edge_ids(packing, 0))
    return MobileAdversary.sweeping(
        pool, budget=min(ctx.budget, len(pool)), rounds=ctx.mobile_rounds
    )


def _scenario_loss(ctx, packing) -> AdversarySchedule:
    return RandomLoss(min(1.0, ctx.budget / max(1, ctx.graph.m)))


def _scenario_targeted_cut(ctx, packing) -> AdversarySchedule:
    # One shared instance per tournament: compile() memoizes the Theorem 7
    # run per graph, so the defense sweep pays for the attacker's cut
    # computation exactly once.
    return ctx.targeted


#: name -> (description, factory(ctx, packing)). Factories are private —
#: the scored surface is :func:`run_tournament`.
SCENARIOS: dict[str, tuple[str, object]] = {
    "dead-tree": (
        "static saboteur: the first B edges of packed tree 0 stay dead",
        _scenario_dead_tree,
    ),
    "mobile": (
        "FP23 mobile adversary: a B-edge foothold sweeping tree 0's edges",
        _scenario_mobile,
    ),
    "loss": (
        "i.i.d. delivery loss at rate B/m (same expected adversarial spend)",
        _scenario_loss,
    ),
    "targeted-cut": (
        "Theorem 7 attacker: kills the lightest approximate cut within B edges",
        _scenario_targeted_cut,
    ),
}

DEFAULT_ADVERSARIES = ("dead-tree", "mobile", "loss", "targeted-cut")

#: Defense grid entries are ``<root-policy>-r<redundancy>`` strings.
DEFAULT_DEFENSES = (
    "shared-r1",
    "shared-r2",
    "spread-r1",
    "spread-r2",
    "cut-aware-r2",
)


def parse_defense(spec: str) -> tuple[str, int]:
    """``"spread-r2"`` -> ``("spread", 2)``; validates both halves."""
    from repro.core.tree_packing import ROOT_POLICIES

    policy, sep, r = spec.rpartition("-r")
    if not sep or not r.isdigit() or policy not in ROOT_POLICIES:
        raise ValidationError(
            f"unknown defense {spec!r}; expected <policy>-r<int> with policy "
            f"in {ROOT_POLICIES}, e.g. 'spread-r2'"
        )
    return policy, int(r)


@dataclass
class TournamentCell:
    """One (adversary, defense) match at a fixed budget."""

    adversary: str
    defense: str
    budget: int
    min_coverage: float
    mean_coverage: float
    fully_delivered: int
    k: int
    rounds: int
    dropped: int
    total_messages: int
    total_bits: int
    repaired_min_coverage: float
    repair_rounds: int
    repair_attempts: int
    rerooted: int
    rebuilt: bool

    def to_row(self) -> dict:
        return {
            "adversary": self.adversary,
            "defense": self.defense,
            "budget": self.budget,
            "min_coverage": round(self.min_coverage, 6),
            "mean_coverage": round(self.mean_coverage, 6),
            "fully_delivered": self.fully_delivered,
            "k": self.k,
            "rounds": self.rounds,
            "dropped": self.dropped,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "repaired_min_coverage": round(self.repaired_min_coverage, 6),
            "repair_rounds": self.repair_rounds,
            "repair_attempts": self.repair_attempts,
            "rerooted": self.rerooted,
            "rebuilt": self.rebuilt,
        }


@dataclass
class TournamentResult:
    """The full scored surface of one tournament run."""

    n: int
    k: int
    parts: int
    budget: int
    backend: str
    adversaries: list[str]
    defenses: list[str]
    cells: list[TournamentCell] = field(default_factory=list)
    attacks: dict[str, dict] = field(default_factory=dict)

    def cell(self, adversary: str, defense: str) -> TournamentCell:
        for c in self.cells:
            if c.adversary == adversary and c.defense == defense:
                return c
        raise KeyError((adversary, defense))

    def best_defense(self, adversary: str) -> TournamentCell:
        """Highest post-repair min-coverage; ties go to fewer repair rounds."""
        cells = [c for c in self.cells if c.adversary == adversary]
        return max(
            cells, key=lambda c: (c.repaired_min_coverage, -c.repair_rounds)
        )

    def to_payload(self) -> dict:
        """JSON-able artifact: the scored grid plus the exact attacks run."""
        return {
            "n": self.n,
            "k": self.k,
            "parts": self.parts,
            "budget": self.budget,
            "backend": self.backend,
            "adversaries": list(self.adversaries),
            "defenses": list(self.defenses),
            "attacks": dict(self.attacks),
            "cells": [c.to_row() for c in self.cells],
        }


class _TournamentContext:
    """Per-run shared state handed to the scenario factories."""

    def __init__(self, graph: Graph, budget: int, seed: int, mobile_rounds: int):
        self.graph = graph
        self.budget = budget
        self.seed = seed
        self.mobile_rounds = mobile_rounds
        # The attacker's Theorem 7 run always uses the (certified
        # bit-identical) vectorized pipeline, so the recorded attack — and
        # with it the whole payload modulo the report backend — is the same
        # whichever backend the *protocol* runs on.
        self.targeted = TargetedCutAdversary(budget=budget, seed=seed)


def run_tournament(
    graph: Graph,
    k: int,
    parts: int,
    budget: int | None = None,
    adversaries=None,
    defenses=None,
    seed: int = 0,
    backend: str = "simulator",
    mobile_rounds: int = 4096,
    placement: dict[int, int] | None = None,
) -> TournamentResult:
    """Round-robin every adversary against every defense at one budget.

    One packing is built per root policy appearing in ``defenses`` (all on
    the same decomposition seed, so the only degree of freedom between
    defenses is what the defense actually claims to change), one placement
    is drawn (or taken from ``placement`` — e.g. to keep sources off the
    node a cut attacker isolates, where *no* defense can deliver from), and
    every (adversary, defense) pair runs
    :func:`repro.core.resilient.repair_coverage` — the cell scores both the
    raw attack damage and what detection + re-rooting bought back.

    Unknown adversary names raise :class:`~repro.util.errors.ValidationError`
    listing the registry. Deterministic per (graph, seed, budget) and
    bit-identical across backends — no wall clocks inside.
    """
    from repro.core.broadcast import uniform_random_placement
    from repro.core.resilient import FaultCell, evaluate_fault_grid, repair_coverage
    from repro.core.tree_packing import build_packing_with_retry

    adversaries = list(adversaries if adversaries is not None else DEFAULT_ADVERSARIES)
    defenses = list(defenses if defenses is not None else DEFAULT_DEFENSES)
    unknown = [a for a in adversaries if a not in SCENARIOS]
    if unknown:
        raise ValidationError(
            f"unknown adversary scenario(s) {unknown}; known: {sorted(SCENARIOS)}"
        )
    parsed = {d: parse_defense(d) for d in defenses}
    if budget is None:
        budget = int(graph.degrees()[0])  # the E16 leader-degree cut
    if budget < 1:
        raise ValidationError("tournament budget must be >= 1")

    ctx = _TournamentContext(graph, budget, seed, mobile_rounds)
    packings = {}
    for policy in {p for p, _r in parsed.values()}:
        packings[policy], _ = build_packing_with_retry(
            graph, parts, seed=seed, roots=policy, backend=backend
        )
    if placement is None:
        placement = uniform_random_placement(graph.n, k, seed=seed + 1)
    k = sum(placement.values())

    result = TournamentResult(
        n=graph.n, k=k, parts=parts, budget=budget, backend=backend,
        adversaries=adversaries, defenses=defenses,
    )
    jobs = []
    for name in adversaries:
        _doc, factory = SCENARIOS[name]
        for d in defenses:
            policy, r = parsed[d]
            adv = factory(ctx, packings[policy])
            if name not in result.attacks:
                result.attacks[name] = adv.to_json()
            jobs.append((name, d, policy, r, adv))

    # Initial (pre-repair) reports: one evaluate_fault_grid call per packing,
    # so every cell sharing a root policy also shares the broadcast prologue
    # (numbering, tree views, channel splits) — bit-identical to the solo
    # redundant_broadcast each repair_coverage call would otherwise run.
    by_policy: dict[str, list[int]] = {}
    for i, (_name, _d, policy, _r, _adv) in enumerate(jobs):
        by_policy.setdefault(policy, []).append(i)
    initial_reports = [None] * len(jobs)
    for policy, idxs in by_policy.items():
        grid = evaluate_fault_grid(
            graph,
            placement,
            packings[policy],
            [FaultCell(redundancy=jobs[i][3], adversary=jobs[i][4]) for i in idxs],
            seed=seed,
            backend=backend,
        )
        for i, rep in zip(idxs, grid):
            initial_reports[i] = rep

    for (name, d, policy, r, adv), rep0 in zip(jobs, initial_reports):
        out = repair_coverage(
            graph,
            placement,
            packings[policy],
            redundancy=r,
            adversary=adv,
            seed=seed,
            backend=backend,
            initial_report=rep0,
        )
        rep = out.initial
        covs = list(rep.per_message_coverage.values())
        result.cells.append(TournamentCell(
            adversary=name,
            defense=d,
            budget=budget,
            min_coverage=rep.min_coverage,
            mean_coverage=sum(covs) / len(covs) if covs else 1.0,
            fully_delivered=rep.fully_delivered,
            k=rep.k,
            rounds=rep.rounds,
            dropped=rep.dropped_messages,
            total_messages=rep.total_messages,
            total_bits=rep.total_bits,
            repaired_min_coverage=out.final.min_coverage,
            repair_rounds=out.repair_rounds,
            repair_attempts=out.attempts,
            rerooted=len(out.rerooted),
            rebuilt=out.rebuilt,
        ))
    return result
