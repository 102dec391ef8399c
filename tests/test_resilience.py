"""Tests for fault injection and the redundant broadcast (Section 1.2 flavor)."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import (
    AdversarySchedule,
    FaultPlan,
    FaultySimulator,
    MobileAdversary,
    Network,
    NodeProgram,
    RandomLoss,
    StaticSaboteur,
    TargetedCutAdversary,
    compose_schedules,
)
from repro.core import (
    ROOT_POLICIES,
    build_packing_with_retry,
    redundant_broadcast,
    repair_coverage,
    resolve_roots,
    tree_edge_ids,
    uniform_random_placement,
)
from repro.graphs import cycle_graph, thick_cycle
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def setup():
    g = thick_cycle(10, 10)  # n = 100, λ = 20
    packing, _ = build_packing_with_retry(g, 3, seed=2, distributed=False)
    pl = uniform_random_placement(g.n, 90, seed=3)
    return g, packing, pl


class _Flood(NodeProgram):
    """Node 0 floods a token; every node records whether it heard it."""

    def __init__(self, node):
        super().__init__()
        self.node = node
        self.heard = node == 0

    def on_start(self, ctx):
        if self.node == 0:
            ctx.send_all((1,))

    def on_round(self, ctx):
        if ctx.inbox and not self.heard:
            self.heard = True
            ctx.send_all((1,))


class TestFaultySimulator:
    def test_dead_edge_partitions_flood(self):
        g = cycle_graph(6)
        # Kill both edges around node 3: the flood cannot reach it.
        dead = {g.edge_id(2, 3), g.edge_id(3, 4)}
        sim = FaultySimulator(Network(g), _Flood, dead_edges=dead)
        result = sim.run()
        heard = [p.heard for p in result.programs]
        assert heard[3] is False
        assert all(heard[v] for v in (0, 1, 2, 4, 5))

    def test_no_faults_is_base_behavior(self):
        g = cycle_graph(6)
        sim = FaultySimulator(Network(g), _Flood)
        result = sim.run()
        assert all(p.heard for p in result.programs)
        assert sim.dropped == 0

    def test_drop_rate_counts_drops(self):
        g = cycle_graph(8)
        sim = FaultySimulator(Network(g), _Flood, drop_rate=0.5, fault_seed=1)
        sim.run()
        assert sim.dropped > 0

    def test_mobile_adversary_round_scoped(self):
        g = cycle_graph(6)
        eid = g.edge_id(0, 1)
        # Block edge (0,1) only in round 1; the flood detours or retries...
        # in a cycle the token still reaches everyone the other way around.
        sim = FaultySimulator(Network(g), _Flood, mobile={1: {eid}})
        result = sim.run()
        assert all(p.heard for p in result.programs)
        assert sim.dropped >= 1

    def test_invalid_drop_rate(self):
        g = cycle_graph(5)
        with pytest.raises(ValidationError):
            FaultySimulator(Network(g), _Flood, drop_rate=1.5)
        with pytest.raises(ValidationError):
            FaultySimulator(Network(g), _Flood, drop_rate=-0.1)

    def test_total_loss_boundary_accepted(self):
        """drop_rate=1.0 (the closed-interval boundary) is a legal adversary:
        every delivery fails, so the flood never leaves node 0."""
        g = cycle_graph(6)
        sim = FaultySimulator(Network(g), _Flood, drop_rate=1.0)
        result = sim.run()
        heard = [p.heard for p in result.programs]
        assert heard[0] is True and not any(heard[1:])
        assert sim.dropped == 2  # node 0's two initial sends, both dropped


class TestRedundantBroadcast:
    def test_clean_run_full_coverage(self, setup):
        g, packing, pl = setup
        rep = redundant_broadcast(g, pl, packing, redundancy=1)
        assert rep.min_coverage == 1.0
        assert rep.fully_delivered == rep.k

    def test_sabotaged_tree_loses_exactly_its_messages(self, setup):
        g, packing, pl = setup
        dead = tree_edge_ids(packing, 0)
        rep = redundant_broadcast(g, pl, packing, redundancy=1, dead_edges=dead)
        # Messages homed on tree 0 (k/parts of them) are lost; others arrive.
        assert rep.fully_delivered == rep.k - rep.k // packing.size
        assert rep.min_coverage < 1.0

    def test_redundancy_two_survives_dead_tree(self, setup):
        g, packing, pl = setup
        dead = tree_edge_ids(packing, 0)
        rep = redundant_broadcast(g, pl, packing, redundancy=2, dead_edges=dead)
        assert rep.fully_delivered == rep.k
        assert rep.min_coverage == 1.0

    def test_redundancy_costs_rounds(self, setup):
        g, packing, pl = setup
        r1 = redundant_broadcast(g, pl, packing, redundancy=1)
        r2 = redundant_broadcast(g, pl, packing, redundancy=2)
        assert r2.rounds > r1.rounds  # ~2x pipeline load
        assert r2.rounds <= 3 * r1.rounds + 20

    def test_full_redundancy_survives_all_but_one_tree(self, setup):
        g, packing, pl = setup
        dead = tree_edge_ids(packing, 0) | tree_edge_ids(packing, 1)
        rep = redundant_broadcast(
            g, pl, packing, redundancy=packing.size, dead_edges=dead
        )
        assert rep.fully_delivered == rep.k

    def test_redundancy_bounds(self, setup):
        g, packing, pl = setup
        with pytest.raises(ValidationError):
            redundant_broadcast(g, pl, packing, redundancy=0)
        with pytest.raises(ValidationError):
            redundant_broadcast(g, pl, packing, redundancy=packing.size + 1)

    def test_lossy_network_degrades_gracefully(self, setup):
        g, packing, pl = setup
        lossy = redundant_broadcast(
            g, pl, packing, redundancy=2, drop_rate=0.01, seed=5
        )
        # 1% loss with double redundancy: most messages still everywhere.
        assert lossy.fully_delivered >= 0.8 * lossy.k

    def test_total_loss_defeats_full_redundancy_by_design(self, setup):
        """The r = λ' boundary: drop_rate=1.0 kills every delivery, so even
        assigning every message to every tree saves nothing — only the
        root's own messages are ever 'received' (by the root itself)."""
        g, packing, pl = setup
        rep = redundant_broadcast(
            g, pl, packing, redundancy=packing.size, drop_rate=1.0
        )
        assert rep.fully_delivered == 0
        assert max(rep.per_message_coverage.values()) <= 1 / g.n
        # Dead edges are moot at total loss: every send is dropped anyway,
        # so the drop total (and everything else) is unchanged.
        dead = tree_edge_ids(packing, 0)
        rep2 = redundant_broadcast(
            g, pl, packing, redundancy=packing.size, drop_rate=1.0, dead_edges=dead
        )
        assert rep2.dropped_messages == rep.dropped_messages
        assert rep2.per_message_coverage == rep.per_message_coverage


class TestCombinedFaultSources:
    """dead_edges + mobile + drop_rate compose (ISSUE 5 satellite)."""

    def test_channel_disjoint_fault_sources_drop_additively(self, setup):
        """Broadcast channels are independent, so faults confined to
        distinct trees account for exactly their separate drop totals."""
        g, packing, pl = setup
        dead0 = tree_edge_ids(packing, 0)
        mobile1 = {r: tree_edge_ids(packing, 1) for r in range(1, 60)}
        only_dead = redundant_broadcast(g, pl, packing, dead_edges=dead0)
        only_mobile = redundant_broadcast(g, pl, packing, mobile=mobile1)
        both = redundant_broadcast(g, pl, packing, dead_edges=dead0, mobile=mobile1)
        # (Round totals may differ between scenarios — a starved channel
        # finishes early — but per-channel dynamics are independent, so the
        # drop totals of faults confined to distinct trees add up exactly.)
        assert (
            both.dropped_messages
            == only_dead.dropped_messages + only_mobile.dropped_messages
        )
        # And coverage composes: a message is lost in the combined run iff
        # it is lost in (at least) one of the single-source runs.
        for j in both.per_message_coverage:
            assert both.per_message_coverage[j] == min(
                only_dead.per_message_coverage[j],
                only_mobile.per_message_coverage[j],
            )

    def test_adding_drop_rate_only_adds_drops(self, setup):
        g, packing, pl = setup
        dead0 = tree_edge_ids(packing, 0)
        base = redundant_broadcast(g, pl, packing, dead_edges=dead0)
        noisy = redundant_broadcast(
            g, pl, packing, dead_edges=dead0, drop_rate=0.05, fault_seed=11
        )
        assert noisy.dropped_messages > base.dropped_messages
        assert all(
            noisy.per_message_coverage[j] <= base.per_message_coverage[j] + 1e-12
            for j in base.per_message_coverage
        )

    @pytest.mark.parametrize("backend", ["simulator", "vectorized"])
    def test_fault_rng_independent_of_protocol_rng(self, setup, backend):
        """Varying only fault_seed re-rolls which deliveries fail but never
        which messages exist or how they are numbered/assigned."""
        g, packing, pl = setup
        a = redundant_broadcast(
            g, pl, packing, redundancy=2, drop_rate=0.1, seed=3, fault_seed=1,
            backend=backend,
        )
        b = redundant_broadcast(
            g, pl, packing, redundancy=2, drop_rate=0.1, seed=3, fault_seed=2,
            backend=backend,
        )
        assert set(a.per_message_coverage) == set(b.per_message_coverage)
        assert a.k == b.k
        assert a.per_message_coverage != b.per_message_coverage  # faults re-rolled
        # And the converse: the protocol seed feeds only the (unused) node
        # RNGs, so varying it alone changes nothing at all.
        c = redundant_broadcast(
            g, pl, packing, redundancy=2, drop_rate=0.1, seed=4, fault_seed=1,
            backend=backend,
        )
        assert c.per_message_coverage == a.per_message_coverage
        assert c.dropped_messages == a.dropped_messages

    def test_protocol_rng_streams_untouched_by_faults(self):
        """A program's ctx.rng draws are identical whatever the fault seed —
        the fault RNG is a dedicated stream, not a tap on the node RNGs."""

        class _Draw(NodeProgram):
            def __init__(self, node):
                super().__init__()
                self.node = node

            def on_start(self, ctx):
                self.output["draw"] = float(ctx.rng.random())
                ctx.send_all((1,))

            def on_round(self, ctx):
                pass

        g = cycle_graph(8)
        draws = []
        for fault_seed in (1, 2):
            sim = FaultySimulator(
                Network(g), _Draw, drop_rate=0.7, fault_seed=fault_seed, seed=123
            )
            result = sim.run()
            assert sim.dropped > 0
            draws.append(result.outputs("draw"))
        assert draws[0] == draws[1]


class TestAdversarySchedules:
    def test_plans_merge_and_compose(self):
        a = FaultPlan(dead_edges={1, 2}, drop_rate=0.5, mobile={3: {4}})
        b = FaultPlan(dead_edges={2, 5}, drop_rate=0.5, mobile={3: {6}, 7: {8}})
        m = a.merged(b)
        assert m.dead_edges == frozenset({1, 2, 5})
        assert m.mobile == {3: frozenset({4, 6}), 7: frozenset({8})}
        assert m.drop_rate == pytest.approx(0.75)  # independent coins
        assert FaultPlan().is_null and not m.is_null

    def test_invalid_plan_rejected(self):
        with pytest.raises(ValidationError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValidationError):
            RandomLoss(-0.2)

    def test_fractional_plan_ids_rejected(self):
        """Fractional edge ids and rounds used to be truncated (1.5 → 1)."""
        with pytest.raises(ValidationError, match="1.5"):
            FaultPlan(dead_edges=[1.5, 2.9])
        with pytest.raises(ValidationError, match="3.7"):
            FaultPlan(mobile={3.7: [0]})
        with pytest.raises(ValidationError, match="0.2"):
            FaultPlan(mobile={3: [0.2]})
        with pytest.raises(ValidationError, match="1.5"):
            FaultPlan.from_json({"dead_edges": [1.5], "mobile": {"2": [4]}})
        with pytest.raises(ValidationError, match="4.5"):
            FaultPlan.from_json({"mobile": {"2": [4.5]}})
        with pytest.raises(ValidationError, match="0.5"):
            MobileAdversary({1: [0.5]})

    def test_integer_plan_ids_kept_as_python_ints(self):
        plan = FaultPlan(
            dead_edges=np.array([3, 1]), mobile={np.int64(2): [np.int64(4), True]}
        )
        assert plan.dead_edges == frozenset({1, 3})
        assert plan.mobile == {2: frozenset({1, 4})}
        ids = [*plan.dead_edges, *plan.mobile, *plan.mobile[2]]
        assert {type(i) for i in ids} == {int}

    def test_static_saboteur_targets_a_tree(self, setup):
        g, packing, pl = setup
        plan = StaticSaboteur(tree_index=0).compile(g, packing=packing)
        assert plan.dead_edges == frozenset(tree_edge_ids(packing, 0))
        with pytest.raises(ValidationError):
            StaticSaboteur(tree_index=0).compile(g)  # needs the packing

    def test_sweeping_mobile_respects_budget(self):
        g = thick_cycle(6, 4)
        adv = MobileAdversary.sweeping(range(g.m), budget=3, rounds=10, start=2)
        plan = adv.compile(g)
        assert set(plan.mobile) == set(range(2, 12))
        assert all(len(es) == 3 for es in plan.mobile.values())
        covered = set().union(*plan.mobile.values())
        assert covered <= set(range(g.m))

    def test_composition_equals_explicit_args(self, setup):
        """An adversary schedule and the equivalent explicit triple produce
        the same report (the schedule is sugar, not new semantics)."""
        g, packing, pl = setup
        dead = tree_edge_ids(packing, 0)
        adv = StaticSaboteur(dead) + RandomLoss(0.1) + MobileAdversary({4: {0, 1}})
        via_schedule = redundant_broadcast(
            g, pl, packing, redundancy=2, adversary=adv, seed=7
        )
        explicit = redundant_broadcast(
            g, pl, packing, redundancy=2, dead_edges=dead, drop_rate=0.1,
            mobile={4: {0, 1}}, seed=7,
        )
        assert via_schedule.per_message_coverage == explicit.per_message_coverage
        assert via_schedule.dropped_messages == explicit.dropped_messages
        assert compose_schedules(StaticSaboteur(dead)).compile(g).dead_edges == frozenset(dead)

    def test_targeted_cut_adversary_compiles_deterministically(self, setup):
        g, packing, pl = setup
        adv = TargetedCutAdversary(eps=0.5, budget=8, candidates=4, seed=3, tau=2)
        p1 = adv.compile(g, packing=packing)
        p2 = TargetedCutAdversary(
            eps=0.5, budget=8, candidates=4, seed=3, tau=2
        ).compile(g, packing=packing)
        assert p1.dead_edges == p2.dead_edges
        assert 0 < len(p1.dead_edges) <= 8
        assert p1.drop_rate == 0.0 and not p1.mobile

    def test_targeted_cut_unbudgeted_isolates_lightest_cut(self, setup):
        """With no budget the attacker kills its lightest candidate cut
        whole — redundancy cannot route around a severed cut, which is
        exactly the Theorem 1 bandwidth argument in reverse."""
        g, packing, pl = setup
        adv = TargetedCutAdversary(eps=0.5, candidates=4, seed=3, tau=2)
        rep = redundant_broadcast(
            g, pl, packing, redundancy=packing.size, adversary=adv, seed=7
        )
        assert rep.min_coverage < 1.0


class TestRootPolicies:
    """ISSUE 7 countermeasure: root assignment per color class."""

    def test_shared_is_the_theorem_1_default(self):
        g = thick_cycle(10, 10)
        assert resolve_roots(g, 3, roots="shared") == [0, 0, 0]
        assert "shared" in ROOT_POLICIES

    def test_spread_roots_are_distinct_and_spaced(self):
        g = thick_cycle(10, 10)
        roots = resolve_roots(g, 3, roots="spread")
        assert roots == [0, 33, 66]
        assert len(set(roots)) == 3

    def test_explicit_list_passes_through(self):
        g = thick_cycle(10, 10)
        assert resolve_roots(g, 3, roots=[5, 50, 95]) == [5, 50, 95]

    def test_cut_aware_avoids_light_cut_targets(self):
        """Cut-aware roots land on distinct heavy-cut nodes, so a budgeted
        cut attacker pays more per beheaded class than against 'shared'."""
        g = thick_cycle(10, 10)
        roots = resolve_roots(g, 3, roots="cut-aware", seed=2)
        assert len(set(roots)) == 3
        assert all(0 <= r < g.n for r in roots)
        # Deterministic per (graph, policy, seed).
        assert roots == resolve_roots(g, 3, roots="cut-aware", seed=2)

    def test_invalid_policies_rejected(self):
        g = thick_cycle(5, 4)
        with pytest.raises(ValidationError):
            resolve_roots(g, 2, roots="bogus")
        with pytest.raises(ValidationError):
            resolve_roots(g, 2, roots=[0])  # wrong length
        with pytest.raises(ValidationError):
            resolve_roots(g, 2, roots=[0, g.n])  # out of range
        with pytest.raises(ValidationError):
            resolve_roots(g, 0)

    def test_fractional_explicit_roots_rejected(self):
        g = thick_cycle(5, 4)
        with pytest.raises(ValidationError, match="1.7"):
            resolve_roots(g, 2, roots=[1.7, 4.2])  # used to truncate to [1, 4]
        assert resolve_roots(g, 2, roots=[np.int64(1), 4]) == [1, 4]

    def test_packing_trees_rooted_per_policy(self):
        g = thick_cycle(10, 10)
        packing, _ = build_packing_with_retry(
            g, 3, seed=2, distributed=False, roots="spread"
        )
        assert packing.roots == [0, 33, 66]
        for tree, root in zip(packing.trees, packing.roots):
            assert tree.root == root
        assert packing.class_masks is not None

    def test_spread_packing_broadcasts_cleanly(self):
        g = thick_cycle(10, 10)
        packing, _ = build_packing_with_retry(
            g, 3, seed=2, distributed=False, roots="spread"
        )
        pl = uniform_random_placement(g.n, 60, seed=3)
        rep = redundant_broadcast(g, pl, packing, redundancy=2)
        assert rep.min_coverage == 1.0

    def test_spread_beats_shared_under_targeted_cut(self):
        """The E16 counter: same budget, same decomposition seed — the
        attack that zeroes every shared-root message leaves most of the
        spread-root traffic standing."""
        g = thick_cycle(10, 10)
        pl = uniform_random_placement(g.n, 60, seed=3)
        pl.pop(0, None)  # no defense can deliver *from* the severed node
        adv = TargetedCutAdversary(budget=int(g.degrees()[0]), seed=2)
        reps = {}
        for policy in ("shared", "spread"):
            packing, _ = build_packing_with_retry(
                g, 3, seed=2, distributed=False, roots=policy
            )
            reps[policy] = redundant_broadcast(
                g, pl, packing, redundancy=2, adversary=adv, seed=0
            )
        covs = {
            p: sum(r.per_message_coverage.values()) / r.k for p, r in reps.items()
        }
        assert covs["shared"] == 0.0  # total collapse, all classes beheaded
        assert covs["spread"] > 0.85  # only the severed neighborhood suffers


class TestCoverageRepair:
    """ISSUE 7 graceful degradation: detect dead classes, re-root or
    rebuild, report the cost (numbers pinned on the module fixture)."""

    def test_reroot_path_restores_coverage(self, setup):
        g, packing, pl = setup
        # Damage away from the root: tree 0 stays attached at the root but
        # loses its far side, so a re-root (not a rebuild) suffices.
        dead = sorted(tree_edge_ids(packing, 0))[-12:]
        out = repair_coverage(g, pl, packing, redundancy=1, dead_edges=dead)
        assert out.initial.min_coverage == pytest.approx(0.7)
        assert out.final.min_coverage == 1.0
        assert out.broken_channels == [0]
        assert out.rerooted == {0: 97} and not out.rebuilt
        assert out.attempts == 1 and out.repair_rounds > 0
        assert out.recovered and out.improvement == pytest.approx(0.3)

    def test_rebuild_path_restores_coverage(self, setup):
        g, packing, pl = setup
        # Killing tree 0 whole takes the root's own class edges with it —
        # no re-root can span, so the loop falls back to a full rebuild.
        dead = sorted(tree_edge_ids(packing, 0))
        out = repair_coverage(g, pl, packing, redundancy=1, dead_edges=dead)
        assert out.initial.min_coverage == 0.0
        assert out.final.min_coverage == 1.0
        assert out.rebuilt and out.rerooted == {}
        assert out.repair_rounds > 0
        assert out.packing is not packing  # repaired packing is returned

    def test_transient_loss_triggers_no_structural_repair(self, setup):
        g, packing, pl = setup
        out = repair_coverage(
            g, pl, packing, redundancy=1, drop_rate=0.2, fault_seed=7
        )
        assert out.final is out.initial
        assert not out.rebuilt and out.rerooted == {}
        assert out.repair_rounds == 0

    def test_clean_run_returns_early(self, setup):
        g, packing, pl = setup
        out = repair_coverage(g, pl, packing, redundancy=1)
        assert out.initial.min_coverage == 1.0
        assert out.final is out.initial
        assert out.attempts == 0 and out.repair_rounds == 0

    def test_unrepairable_cut_degrades_gracefully(self, setup):
        """Severing the shared root entirely: re-roots cannot span and the
        rebuild's residual graph is disconnected — the loop must surrender
        cleanly (partial results stand, no exception)."""
        g, packing, _ = setup
        pl = dict(uniform_random_placement(g.n, 90, seed=3))
        pl.pop(0, None)
        dead = sorted(
            int(e) for e in np.nonzero((g.edge_u == 0) | (g.edge_v == 0))[0]
        )
        out = repair_coverage(g, pl, packing, redundancy=1, dead_edges=dead)
        assert out.broken_channels == [0, 1, 2]  # every shared-root class
        assert out.final.min_coverage == 0.0
        assert not out.rebuilt and not out.recovered
        assert out.attempts == 1  # it tried, and charged rounds for it

    @pytest.mark.parametrize("backend", ["simulator", "vectorized"])
    def test_message_and_bit_totals_reported(self, setup, backend):
        g, packing, pl = setup
        rep = redundant_broadcast(g, pl, packing, redundancy=1, backend=backend)
        assert rep.total_messages > 0
        assert rep.total_bits > 2 * rep.total_messages  # kind bits alone


class TestAdversaryJSON:
    """ISSUE 7 satellite: schedules and plans round-trip through JSON."""

    @pytest.fixture(scope="class")
    def host(self):
        g = thick_cycle(8, 5)
        packing, _ = build_packing_with_retry(g, 2, seed=1, distributed=False)
        return g, packing

    @pytest.mark.parametrize(
        "adv",
        [
            StaticSaboteur({3, 1, 4}),
            StaticSaboteur(tree_index=1),
            MobileAdversary({2: {0, 1}, 5: {3}}),
            RandomLoss(0.25),
            RandomLoss(1.0),
            TargetedCutAdversary(eps=0.5, budget=4, candidates=4, seed=3, tau=2),
            StaticSaboteur({5}) + RandomLoss(0.1),
            compose_schedules(
                MobileAdversary({2: {0}}), RandomLoss(0.05), StaticSaboteur({5})
            ),
        ],
    )
    def test_schedule_round_trips_to_same_plan(self, host, adv):
        g, packing = host
        data = json.loads(json.dumps(adv.to_json()))  # through real JSON
        rebuilt = AdversarySchedule.from_json(data)
        assert rebuilt.compile(g, packing=packing) == adv.compile(
            g, packing=packing
        )
        assert rebuilt.to_json() == adv.to_json()

    def test_fault_plan_round_trips(self):
        plan = FaultPlan(
            dead_edges={7, 2}, drop_rate=0.5, mobile={3: {1, 2}, 9: {0}}
        )
        data = json.loads(json.dumps(plan.to_json()))
        assert FaultPlan.from_json(data) == plan
        assert FaultPlan.from_json(json.loads(json.dumps(FaultPlan().to_json()))).is_null

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            AdversarySchedule.from_json({"type": "quantum"})

    @pytest.mark.parametrize("key", ["2.5", 2.5])
    def test_fractional_round_key_rejected(self, key):
        """Only decimal-integer strings are converted: "2.5" used to raise
        ValueError from int(), and 2.5 was truncated to round 2."""
        with pytest.raises(ValidationError, match="2.5"):
            FaultPlan.from_json({"mobile": {key: [1]}})
        with pytest.raises(ValidationError, match="2.5"):
            AdversarySchedule.from_json({"type": "mobile", "mobile": {key: [1]}})

    def test_decimal_round_keys_converted(self):
        plan = FaultPlan.from_json({"mobile": {"12": [1], "3": [2]}})
        assert plan.mobile == {12: frozenset({1}), 3: frozenset({2})}


class TestFaultyBFSRoot:
    def test_vectorized_faulty_bfs_checks_its_root(self):
        """A root outside [0, n) used to reach numpy and raise its
        "negative dimensions" ValueError under a lossy plan."""
        from repro.engine import vectorized_faulty_bfs

        for root in (-1, 6, 1.5):
            with pytest.raises(ValidationError):
                vectorized_faulty_bfs(cycle_graph(6), root, plan=FaultPlan(drop_rate=0.3))


# Dyadic rates: exact under the independent-coins combination, so the
# algebraic properties below hold with == rather than approx.
_RATES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
_EDGES = st.frozensets(st.integers(0, 30), max_size=5)
_PLANS = st.builds(
    FaultPlan,
    dead_edges=_EDGES,
    drop_rate=_RATES,
    mobile=st.dictionaries(st.integers(1, 8), _EDGES, max_size=3),
)
_PLAN_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# Non-dyadic rates: 1 - (1 - 0)(1 - p) != p in floating point for these.
_ANY_RATE_PLANS = st.builds(
    FaultPlan,
    dead_edges=_EDGES,
    drop_rate=st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.25, 0.3, 1.0]),
    mobile=st.dictionaries(st.integers(1, 8), _EDGES, max_size=3),
)


class TestFaultPlanProperties:
    """ISSUE 7 satellite: FaultPlan.merged is a commutative monoid action
    and validate_for holds at both drop-rate boundaries."""

    @_PLAN_SETTINGS
    @given(a=_PLANS, b=_PLANS)
    def test_merged_commutative(self, a, b):
        x, y = a.merged(b), b.merged(a)
        assert x.dead_edges == y.dead_edges
        assert x.mobile == y.mobile
        assert x.drop_rate == y.drop_rate

    @_PLAN_SETTINGS
    @given(a=_PLANS, b=_PLANS, c=_PLANS)
    def test_merged_associative(self, a, b, c):
        x, y = a.merged(b).merged(c), a.merged(b.merged(c))
        assert x.dead_edges == y.dead_edges
        assert x.mobile == y.mobile
        assert x.drop_rate == y.drop_rate

    @_PLAN_SETTINGS
    @given(p=_ANY_RATE_PLANS, q=_ANY_RATE_PLANS)
    def test_null_plan_is_identity(self, p, q):
        for m in (FaultPlan().merged(p), p.merged(FaultPlan())):
            assert (m.dead_edges, m.drop_rate, m.mobile) == (
                p.dead_edges, p.drop_rate, p.mobile
            )
        # A rate-0 side (dead or mobile edges only) keeps the rate exact too.
        rate0 = FaultPlan(q.dead_edges, 0.0, q.mobile)
        assert p.merged(rate0).drop_rate == p.drop_rate
        assert rate0.merged(p).drop_rate == p.drop_rate

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.1, 0.3])
    def test_both_backends_see_the_plan_rate(self, p):
        g = cycle_graph(6)
        sim = FaultySimulator(Network(g), _Flood, plan=FaultPlan(drop_rate=p))
        assert sim.drop_rate == p
        composed = (RandomLoss(p) + MobileAdversary({2: {0}})).compile(g)
        assert composed.drop_rate == p
        sim = FaultySimulator(Network(g), _Flood, drop_rate=p, plan=composed)
        assert sim.drop_rate == 1.0 - (1.0 - p) * (1.0 - p)

    @_PLAN_SETTINGS
    @given(p=_PLANS, rate=st.sampled_from([0.0, 1.0]))
    def test_validate_for_at_rate_boundaries(self, p, rate):
        plan = FaultPlan(p.dead_edges, rate, p.mobile)
        assert plan.validate_for(31) is plan  # all generated ids < 31
        ids = set(plan.dead_edges) | {
            e for es in plan.mobile.values() for e in es
        }
        if ids:
            with pytest.raises(ValidationError):
                plan.validate_for(max(ids))  # largest id now out of range

    @_PLAN_SETTINGS
    @given(rate=st.sampled_from([0.0, 1.0]))
    def test_boundary_rates_are_legal_plans(self, rate):
        plan = FaultPlan(drop_rate=rate)
        assert plan.validate_for(0) is plan
        assert plan.is_null == (rate == 0.0)


class TestBackendReportEquality:
    """Spot equality here; the randomized sweep lives in the engine tests."""

    def test_reports_bit_identical(self, setup):
        g, packing, pl = setup
        kwargs = dict(
            redundancy=2,
            dead_edges=tree_edge_ids(packing, 1),
            drop_rate=0.15,
            mobile={3: {0, 1, 2}},
            seed=9,
            fault_seed=10,
            collect_receipts=True,
        )
        sim = redundant_broadcast(g, pl, packing, **kwargs)
        vec = redundant_broadcast(g, pl, packing, backend="vectorized", **kwargs)
        assert sim.rounds == vec.rounds
        assert sim.dropped_messages == vec.dropped_messages
        assert sim.per_message_coverage == vec.per_message_coverage
        assert sim.receipts == vec.receipts
        assert sim.fault_rng_state == vec.fault_rng_state
        assert (sim.backend, vec.backend) == ("simulator", "vectorized")
