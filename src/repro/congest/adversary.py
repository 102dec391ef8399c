"""Composable adversary scenario library for resilience experiments.

The paper's tree packing exists to feed resilient computation (Section 1.2,
the Fischer–Parter [FP23] compiler); :mod:`repro.congest.faults` injects the
failures and :func:`repro.core.resilient.redundant_broadcast` measures what
redundancy buys back. This module names the *adversaries* themselves, so an
experiment reads as "run scenario X at redundancy r" instead of hand-rolled
edge sets:

* :class:`StaticSaboteur` — a fixed set of dead links (a crashed switch, a
  sabotaged packing color class via :func:`repro.core.resilient.tree_edge_ids`).
* :class:`MobileAdversary` — the FP23 mobile-adversary shape: a round-scoped
  ``round -> edge set`` schedule, with :meth:`MobileAdversary.sweeping` as a
  convenience builder that rotates a budget of controlled edges over a pool.
* :class:`RandomLoss` — i.i.d. per-message loss (a lossy network rather than
  an adversary proper, but the standard baseline).
* :class:`TargetedCutAdversary` — connects Theorem 7 back to Theorems 1/2:
  the attacker runs :func:`repro.cuts.approx.approx_all_cuts`, estimates cut
  values *from the sparsifier alone* (what a compromised node could actually
  compute), and saboteurs the lightest cut it can afford — the worst place
  to lose edges, since the cut's bandwidth is exactly what Theorem 1's
  pipeline leans on.

Every schedule compiles down to a :class:`FaultPlan` — the
``(dead_edges, drop_rate, mobile)`` triple that both
:class:`repro.congest.faults.FaultySimulator` and the vectorized fault
engine (:mod:`repro.engine.faults`) consume, so one scenario definition
drives both backends. Schedules compose with ``+`` (dead edges and mobile
rounds union; independent loss rates combine as ``1 - prod(1 - p_i)``, which
keeps the single-coin-per-message delivery semantics of the simulator).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.graphs.graph import Graph
from repro.util.errors import ValidationError, integer_ids
from repro.util.rng import ensure_rng

__all__ = [
    "FaultPlan",
    "AdversarySchedule",
    "StaticSaboteur",
    "MobileAdversary",
    "RandomLoss",
    "TargetedCutAdversary",
    "compose_schedules",
]


def _edge_sets(groups: list) -> tuple[list[frozenset[int]], tuple[int, int]]:
    """Each group of edge ids as a frozenset of Python ints, and the
    smallest and largest id of them all (``(0, -1)`` when there is none).

    Every id is checked in one numpy conversion (:func:`integer_ids`), so a
    fractional id raises instead of being truncated; the same array gives
    the id range. Groups that already are frozensets of Python ints are
    kept as they are: compiled schedules pass through several plans, and a
    mobile schedule holds 10⁵ ids.
    """
    groups = [es if type(es) is frozenset else list(es) for es in groups]
    flat = list(itertools.chain.from_iterable(groups))
    ids = integer_ids(flat, "fault plan edge ids")
    span = (int(ids.min()), int(ids.max())) if ids.size else (0, -1)
    if set(map(type, flat)) <= {int}:
        return [frozenset(es) for es in groups], span
    values = ids.tolist()
    bounds = list(itertools.accumulate(map(len, groups), initial=0))
    return [frozenset(values[a:b]) for a, b in zip(bounds, bounds[1:])], span


def _round_key(key):
    """A JSON round key: decimal-integer strings become ints, and every
    other key is left to :class:`FaultPlan`'s own check, so ``"2.5"`` or
    ``2.5`` raises :class:`ValidationError` instead of being truncated."""
    return int(key) if isinstance(key, str) and re.fullmatch(r"-?[0-9]+", key) else key


@dataclass(frozen=True)
class FaultPlan:
    """A compiled fault scenario: exactly what the delivery hook checks.

    ``dead_edges`` never deliver; ``mobile[r]`` are the adversary's edges in
    (delivery) round ``r`` only; ``drop_rate`` is the i.i.d. per-message loss
    probability, decided by one fault-RNG coin per surviving message in
    delivery order — the contract both backends implement identically.
    Building the plan records the range of its edge ids, so
    :meth:`validate_for` compares two numbers.
    """

    dead_edges: frozenset[int] = frozenset()
    drop_rate: float = 0.0
    mobile: Mapping[int, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        (dead,), (dlo, dhi) = _edge_sets([self.dead_edges])
        object.__setattr__(self, "dead_edges", dead)
        if not (0.0 <= self.drop_rate <= 1.0):
            raise ValidationError("drop_rate must be in [0, 1]")
        mobile = dict(self.mobile)
        rounds = integer_ids(list(mobile), "fault plan rounds").tolist()
        sets, (mlo, mhi) = _edge_sets(list(mobile.values()))
        object.__setattr__(self, "mobile", dict(zip(rounds, sets)))
        # Not a field: equality, hashing and the verify digests read only
        # the three fields above. An empty side's (0, -1) can flag no id.
        object.__setattr__(self, "_id_span", (min(dlo, mlo), max(dhi, mhi)))

    @property
    def is_null(self) -> bool:
        return not self.dead_edges and not self.mobile and self.drop_rate == 0.0

    def validate_for(self, m: int) -> "FaultPlan":
        """Check every edge id targets a real edge of an ``m``-edge graph.

        Both delivery hooks call this, so a typo'd edge id fails loudly and
        identically on both backends instead of being silently ignored by
        the simulator's set-membership test and crashing (positive overflow)
        or aliasing a real edge (negative id) in the vectorized mask. The
        id range recorded when the plan was built decides; the bad ids are
        listed only to name them.
        """
        lo, hi = self._id_span
        if lo < 0 or hi >= m:
            bad = {
                e
                for es in (self.dead_edges, *self.mobile.values())
                for e in es
                if not (0 <= e < m)
            }
            raise ValidationError(
                f"fault plan targets nonexistent edge ids {sorted(bad)[:8]} "
                f"(graph has {m} edges)"
            )
        return self

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """Union of two plans (loss rates combine as independent coins).

        A side whose rate is 0 leaves the other side's rate exactly as it
        is: in floating point ``1 - (1 - 0)(1 - p)`` is not ``p`` for many
        rates (0.1 becomes 0.09999999999999998), and both backends must
        compare their coins against the same threshold. Merging with a
        null plan returns the other plan itself.
        """
        if self.is_null:
            return other
        if other.is_null:
            return self
        mobile: dict[int, frozenset[int]] = dict(self.mobile)
        for r, es in other.mobile.items():
            mobile[r] = mobile.get(r, frozenset()) | es
        if self.drop_rate == 0.0 or other.drop_rate == 0.0:
            rate = self.drop_rate + other.drop_rate
        else:
            rate = 1.0 - (1.0 - self.drop_rate) * (1.0 - other.drop_rate)
        return FaultPlan(self.dead_edges | other.dead_edges, rate, mobile)

    def to_json(self) -> dict:
        """JSON-able form (sorted lists, string round keys) for artifacts."""
        return {
            "dead_edges": sorted(self.dead_edges),
            "drop_rate": self.drop_rate,
            "mobile": {str(r): sorted(es) for r, es in sorted(self.mobile.items())},
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "FaultPlan":
        return cls(
            dead_edges=frozenset(data.get("dead_edges", ())),
            drop_rate=float(data.get("drop_rate", 0.0)),
            mobile={_round_key(r): frozenset(es) for r, es in data.get("mobile", {}).items()},
        )


class AdversarySchedule:
    """Base class: a scenario that compiles to a :class:`FaultPlan`.

    ``compile`` receives the host graph and (optionally) the tree packing
    under attack, so informed adversaries — the targeted-cut attacker, a
    tree saboteur — can aim; oblivious ones ignore both.
    """

    def compile(self, graph: Graph, packing=None) -> FaultPlan:
        raise NotImplementedError

    def to_json(self) -> dict:
        """Tagged JSON-able form; ``from_json`` inverts it.

        Round-trip contract (tested): ``from_json(s.to_json())`` compiles to
        the same :class:`FaultPlan` as ``s`` on any graph/packing.
        """
        raise NotImplementedError

    @staticmethod
    def from_json(data: Mapping) -> "AdversarySchedule":
        """Rebuild any schedule from its :meth:`to_json` dict."""
        kind = data.get("type")
        if kind == "static":
            return StaticSaboteur(
                dead_edges=data.get("dead_edges", ()),
                tree_index=data.get("tree_index"),
            )
        if kind == "mobile":
            return MobileAdversary(
                {_round_key(r): es for r, es in data.get("mobile", {}).items()}
            )
        if kind == "loss":
            return RandomLoss(float(data["rate"]))
        if kind == "targeted-cut":
            return TargetedCutAdversary(
                eps=float(data.get("eps", 0.4)),
                budget=data.get("budget"),
                candidates=int(data.get("candidates", 32)),
                seed=int(data.get("seed", 0)),
                tau=data.get("tau"),
                backend=data.get("backend", "vectorized"),
            )
        if kind == "composed":
            return _Composed(
                [AdversarySchedule.from_json(p) for p in data.get("parts", ())]
            )
        raise ValidationError(f"unknown adversary schedule type {kind!r}")

    def __add__(self, other: "AdversarySchedule") -> "AdversarySchedule":
        if not isinstance(other, AdversarySchedule):
            return NotImplemented
        return _Composed([self, other])


class _Composed(AdversarySchedule):
    def __init__(self, parts: list[AdversarySchedule]):
        self.parts: list[AdversarySchedule] = []
        for p in parts:  # flatten so a + b + c keeps one level
            self.parts.extend(p.parts if isinstance(p, _Composed) else [p])

    def compile(self, graph: Graph, packing=None) -> FaultPlan:
        plan = FaultPlan()
        for p in self.parts:
            plan = plan.merged(p.compile(graph, packing=packing))
        return plan

    def to_json(self) -> dict:
        return {"type": "composed", "parts": [p.to_json() for p in self.parts]}


def compose_schedules(*schedules: AdversarySchedule) -> AdversarySchedule:
    """Explicit n-ary composition (equivalent to summing with ``+``)."""
    return _Composed(list(schedules))


class StaticSaboteur(AdversarySchedule):
    """Permanently dead links. ``tree_index`` (with a packing) kills one
    whole color class — the canonical Section 1.2 saboteur."""

    def __init__(self, dead_edges: Iterable[int] = (), tree_index: int | None = None):
        self.dead_edges = FaultPlan(dead_edges=dead_edges).dead_edges
        self.tree_index = tree_index

    def compile(self, graph: Graph, packing=None) -> FaultPlan:
        dead = self.dead_edges
        if self.tree_index is not None:
            if packing is None:
                raise ValidationError(
                    "StaticSaboteur(tree_index=...) needs the packing under attack"
                )
            from repro.core.resilient import tree_edge_ids

            dead = dead | tree_edge_ids(packing, self.tree_index)
        return FaultPlan(dead_edges=dead)

    def to_json(self) -> dict:
        return {
            "type": "static",
            "dead_edges": sorted(self.dead_edges),
            "tree_index": self.tree_index,
        }


class MobileAdversary(AdversarySchedule):
    """Round-scoped control: ``mobile[r]`` edges drop deliveries of round r.

    The schedule is checked once, here, into the plan :meth:`compile`
    returns on every call.
    """

    def __init__(self, mobile: Mapping[int, Iterable[int]]):
        self._plan = FaultPlan(mobile=mobile)
        self.mobile = self._plan.mobile

    @classmethod
    def sweeping(
        cls,
        edge_ids: Iterable[int],
        budget: int,
        rounds: int,
        start: int = 1,
    ) -> "MobileAdversary":
        """Rotate a ``budget``-edge foothold over ``edge_ids`` for ``rounds``
        delivery rounds starting at ``start`` — the FP23 mobile shape where
        the adversary moves but never controls more than its budget at once.
        """
        pool = [int(e) for e in edge_ids]
        if budget < 1 or not pool:
            raise ValidationError("sweeping adversary needs a pool and budget >= 1")
        sched: dict[int, set[int]] = {}
        for i in range(rounds):
            lo = (i * budget) % len(pool)
            window = [pool[(lo + j) % len(pool)] for j in range(min(budget, len(pool)))]
            sched[start + i] = set(window)
        return cls(sched)

    def compile(self, graph: Graph, packing=None) -> FaultPlan:
        return self._plan

    def to_json(self) -> dict:
        return {
            "type": "mobile",
            "mobile": {str(r): sorted(es) for r, es in sorted(self.mobile.items())},
        }


class RandomLoss(AdversarySchedule):
    """i.i.d. loss: each delivery independently dropped with prob ``rate``
    (closed interval — ``rate=1.0`` is the total-loss boundary case)."""

    def __init__(self, rate: float):
        if not (0.0 <= rate <= 1.0):
            raise ValidationError("drop_rate must be in [0, 1]")
        self.rate = float(rate)

    def compile(self, graph: Graph, packing=None) -> FaultPlan:
        return FaultPlan(drop_rate=self.rate)

    def to_json(self) -> dict:
        return {"type": "loss", "rate": self.rate}


class TargetedCutAdversary(AdversarySchedule):
    """Kill the lightest approximate cut (Theorem 7 turned against Theorem 1).

    The attacker runs :func:`repro.cuts.approx.approx_all_cuts` — so it only
    ever sees the ε-sparsifier every node ends up holding — scores candidate
    cuts on it (all single-node cuts plus ``candidates`` random sides), and
    statically kills the crossing edges of the cheapest side it can afford:

    * with ``budget=None`` it takes the overall lightest candidate cut;
    * with a budget it prefers the lightest candidate whose whole crossing
      set fits the budget (actually disconnecting something), falling back
      to the ``budget`` lowest-weight crossing edges of the lightest cut.

    The Theorem 7 run uses the given backend, once per graph.
    """

    def __init__(
        self,
        eps: float = 0.4,
        budget: int | None = None,
        candidates: int = 32,
        seed: int = 0,
        tau: int | None = None,
        backend: str = "vectorized",
    ):
        if budget is not None and budget < 1:
            raise ValidationError("budget must be >= 1 (or None for unlimited)")
        self.eps = float(eps)
        self.budget = budget
        self.candidates = int(candidates)
        self.seed = int(seed)
        self.tau = tau
        self.backend = backend
        # compile() is deterministic per graph but runs the whole Theorem 7
        # pipeline; memoize so a redundancy sweep pays for it once.
        self._plan_cache: dict[Graph, FaultPlan] = {}

    def to_json(self) -> dict:
        return {
            "type": "targeted-cut",
            "eps": self.eps,
            "budget": self.budget,
            "candidates": self.candidates,
            "seed": self.seed,
            "tau": self.tau,
            "backend": self.backend,
        }

    # -- internals --------------------------------------------------------- #

    @staticmethod
    def _crossing_edges(graph: Graph, side: np.ndarray) -> np.ndarray:
        u = graph.edge_u
        v = graph.edge_v
        return np.nonzero(side[u] != side[v])[0]

    def compile(self, graph: Graph, packing=None) -> FaultPlan:
        from repro.cuts.approx import approx_all_cuts

        cached = self._plan_cache.get(graph)
        if cached is not None:
            return cached
        res = approx_all_cuts(
            graph, eps=self.eps, seed=self.seed, tau=self.tau, backend=self.backend
        )
        n = graph.n
        H = res.sparsifier.sparsifier
        # All n degree cuts scored in one pass: cut_H({v}) is just v's
        # weighted degree in the sparsifier — never materialize n side
        # vectors (that would be O(n^2) memory at the scale E16 targets).
        hw = H.weights if H.weights is not None else np.ones(H.m)
        deg_h = np.zeros(n)
        np.add.at(deg_h, H.edge_u, hw)
        np.add.at(deg_h, H.edge_v, hw)
        # Candidate stream: (estimated value, first-seen order, side-or-node),
        # singletons first (order = node id), then the random balanced sides.
        scored: list[tuple[float, int, object]] = [
            (float(deg_h[v]), v, v) for v in range(n)
        ]
        rng = ensure_rng(self.seed)
        for j in range(self.candidates):
            side = rng.random(n) < 0.5
            if side.any() and not side.all():
                scored.append((float(res.estimate_cut(side)), n + j, side))
        scored.sort(key=lambda t: (t[0], t[1]))

        def crossing(entry) -> np.ndarray:
            return (
                graph.incident_edge_ids(entry)
                if isinstance(entry, int)
                else self._crossing_edges(graph, entry)
            )

        choice = None
        if self.budget is not None:
            degrees = graph.degrees()
            for _value, _i, entry in scored:
                size = (
                    int(degrees[entry])
                    if isinstance(entry, int)
                    else self._crossing_edges(graph, entry).size
                )
                if size <= self.budget:
                    choice = entry
                    break
        if choice is None:
            choice = scored[0][2]
        crossing_ids = np.sort(crossing(choice))
        if self.budget is not None and crossing_ids.size > self.budget:
            w = (
                graph.weights[crossing_ids]
                if graph.weights is not None
                else np.zeros(crossing_ids.size)
            )
            order = np.lexsort((crossing_ids, w))  # lightest first, ids break ties
            crossing_ids = crossing_ids[order][: self.budget]
        plan = FaultPlan(dead_edges=frozenset(int(e) for e in crossing_ids))
        self._plan_cache[graph] = plan
        return plan
