"""Tests for the CONGEST substrate: network ports, simulator semantics,
bandwidth enforcement, metrics."""

import numpy as np
import pytest

from repro.congest import Metrics, Network, NodeProgram, Simulator
from repro.graphs import Graph, complete_graph, cycle_graph, path_graph, random_regular
from repro.util.errors import BandwidthExceeded, ProtocolError, ReproError, ValidationError


class TestNetwork:
    def test_port_numbering_sorted(self):
        g = Graph(4, [(0, 3), (0, 1), (0, 2)])
        net = Network(g)
        assert [net.neighbor(0, p) for p in range(3)] == [1, 2, 3]

    @pytest.mark.parametrize(
        "graph",
        [
            complete_graph(5),
            Graph(1, []),
            # The highest-id node has no edges, so its CSR row is empty.
            Graph(4, [(0, 2), (1, 2)]),
            random_regular(30, 6, seed=4),
        ],
        ids=["complete5", "single-node", "isolated-top-node", "random-regular"],
    )
    def test_port_roundtrip(self, graph):
        net = Network(graph)
        twins = graph.arc_twins()
        indptr, indices, edge_ids = graph.masked_csr()
        for v in range(graph.n):
            assert net.degree(v) == graph.degree(v)
            for p in range(graph.degree(v)):
                a = int(indptr[v]) + p
                u = net.neighbor(v, p)
                assert u == int(indices[a])
                assert net.port_to(v, u) == p
                assert net.port_to(u, v) == int(twins[a] - indptr[u])
                assert net.port_to(u, v) == net.arc_back_port[a]
                assert net.edge_of_port(v, p) == graph.edge_id(v, u) == edge_ids[a]

    def test_edge_of_port(self):
        g = cycle_graph(4)
        net = Network(g)
        for v in range(4):
            for p in range(2):
                eid = net.edge_of_port(v, p)
                a, b = g.edge_endpoints(eid)
                assert v in (a, b)

    def test_bad_port_raises(self):
        net = Network(cycle_graph(4))
        with pytest.raises(ValidationError):
            net.neighbor(0, 5)
        with pytest.raises(ValidationError):
            net.port_to(0, 2)  # not a neighbor on C4
        with pytest.raises(ValidationError):
            net.edge_of_port(0, -1)
        # Node ids outside [0, n): a negative id must not index the CSR from
        # the end (node -2 of P3 would alias node 1), and an id past n must
        # not leak a bare IndexError.
        net = Network(path_graph(3))
        for v in (-2, -1, 3):
            with pytest.raises(ValidationError):
                net.neighbor(v, 0)
            with pytest.raises(ValidationError):
                net.degree(v)
            with pytest.raises(ValidationError):
                net.edge_of_port(v, 0)
            with pytest.raises(ValidationError):
                net.port_to(v, 1)
            with pytest.raises(ValidationError):
                net.ports_for_edges(v, {0})

    def test_ports_for_edges(self):
        g = cycle_graph(4)
        net = Network(g)
        eid = g.edge_id(0, 1)
        assert net.ports_for_edges(0, {eid}) == [net.port_to(0, 1)]


class _Echo(NodeProgram):
    """Node 0 sends a ping; neighbors reply once."""

    def __init__(self, node):
        super().__init__()
        self.node = node
        self.got = []

    def on_start(self, ctx):
        if self.node == 0:
            ctx.send_all((0,))  # 0 = ping

    def on_round(self, ctx):
        for port, payload in ctx.inbox:
            self.got.append(payload[0])
            if payload[0] == 0:  # ping -> pong
                ctx.send(port, (1,))


class TestSimulator:
    def test_round_semantics(self):
        g = cycle_graph(4)
        sim = Simulator(Network(g), _Echo)
        result = sim.run()
        # ping delivered in round 1, pong in round 2 → 2 rounds total.
        assert result.metrics.rounds == 2
        assert result.programs[0].got == [1, 1]

    def test_message_and_congestion_metrics(self):
        g = cycle_graph(4)
        result = Simulator(Network(g), _Echo).run()
        assert result.metrics.total_messages == 4  # 2 pings + 2 pongs
        assert result.metrics.max_congestion == 2  # each of 0's edges: ping+pong

    def test_quiescence_without_halt(self):
        result = Simulator(Network(cycle_graph(4)), _Echo).run()
        assert not result.halted  # nobody called halt(); run ended by quiet

    def test_max_rounds_guard(self):
        class Babbler(NodeProgram):
            def __init__(self, node):
                super().__init__()

            def on_start(self, ctx):
                ctx.send(0, (0,))

            def on_round(self, ctx):
                ctx.send(0, (0,))

        with pytest.raises(ReproError):
            Simulator(Network(cycle_graph(4)), lambda v: Babbler(v)).run(max_rounds=10)

    def test_oversized_payload_rejected(self):
        class Shouter(NodeProgram):
            def on_start(self, ctx):
                ctx.send(0, "x" * 1000)

            def on_round(self, ctx):
                pass

        with pytest.raises(BandwidthExceeded):
            Simulator(Network(cycle_graph(4)), lambda v: Shouter()).run()

    def test_double_send_same_port_rejected(self):
        class Doubler(NodeProgram):
            def on_start(self, ctx):
                ctx.send(0, (1,))
                ctx.send(0, (2,))

            def on_round(self, ctx):
                pass

        with pytest.raises(BandwidthExceeded):
            Simulator(Network(cycle_graph(4)), lambda v: Doubler()).run()

    def test_send_bad_port_rejected(self):
        class BadPort(NodeProgram):
            def on_start(self, ctx):
                ctx.send(7, (1,))

            def on_round(self, ctx):
                pass

        with pytest.raises(ProtocolError):
            Simulator(Network(cycle_graph(4)), lambda v: BadPort()).run()

    def test_halted_node_drops_messages(self):
        class HaltEarly(NodeProgram):
            def __init__(self, node):
                super().__init__()
                self.node = node
                self.received = 0

            def on_start(self, ctx):
                if self.node == 0:
                    ctx.halt()
                elif self.node == 1:
                    ctx.send_all(("hi",))

            def on_round(self, ctx):
                self.received += len(ctx.inbox)

        g = path_graph(3)  # 0-1-2
        result = Simulator(Network(g), HaltEarly).run()
        assert result.programs[0].received == 0
        assert result.programs[2].received == 1

    def test_wake_without_messages(self):
        class Sleeper(NodeProgram):
            def __init__(self):
                super().__init__()
                self.wakeups = 0

            def on_start(self, ctx):
                ctx.wake()

            def on_round(self, ctx):
                self.wakeups += 1
                if self.wakeups < 3:
                    ctx.wake()

        result = Simulator(Network(cycle_graph(3)), lambda v: Sleeper()).run()
        assert result.metrics.rounds == 3
        assert all(p.wakeups == 3 for p in result.programs)

    def test_shared_knowledge_exposed(self):
        seen = {}

        class Reader(NodeProgram):
            def __init__(self, node):
                super().__init__()
                self.node = node

            def on_start(self, ctx):
                seen[self.node] = (ctx.shared["n"], ctx.shared.get("delta"))

            def on_round(self, ctx):
                pass

        Simulator(Network(cycle_graph(5)), Reader, shared={"delta": 2}).run()
        assert seen[3] == (5, 2)

    def test_factory_type_checked(self):
        with pytest.raises(ReproError):
            Simulator(Network(cycle_graph(3)), lambda v: object())

    def test_per_node_rngs_differ(self):
        draws = {}

        class Roller(NodeProgram):
            def __init__(self, node):
                super().__init__()
                self.node = node

            def on_start(self, ctx):
                draws[self.node] = ctx.rng.random()

            def on_round(self, ctx):
                pass

        Simulator(Network(cycle_graph(4)), Roller, seed=5).run()
        assert len(set(draws.values())) == 4

    @pytest.mark.parametrize("seed", [5, "generator"])
    def test_node_rngs_are_spawn_rngs_children_built_on_first_use(self, seed):
        """Node v draws what ``spawn_rngs(ensure_rng(seed), n)[v]`` draws, a
        generator passed as ``seed`` spawns n children as before, and a node
        that never reads ``ctx.rng`` never builds its generator."""
        from repro.util.rng import ensure_rng, spawn_rngs

        n = 5
        draws = {}

        class OddRoller(NodeProgram):
            def __init__(self, node):
                super().__init__()
                self.node = node

            def on_start(self, ctx):
                if self.node % 2:
                    draws[self.node] = ctx.rng.random(3).tolist()

            def on_round(self, ctx):
                pass

        def root():
            return np.random.default_rng(11) if seed == "generator" else seed

        given = root()
        sim = Simulator(Network(cycle_graph(n)), OddRoller, seed=given)
        sim.run()
        reference = spawn_rngs(ensure_rng(root()), n)
        assert draws == {v: reference[v].random(3).tolist() for v in (1, 3)}
        assert [ctx._rng is None for ctx in sim.contexts] == [True, False, True, False, True]
        if seed == "generator":
            assert given.bit_generator.seed_seq.n_children_spawned == n


class TestMetrics:
    def test_summary(self):
        m = Metrics(m=1, total_messages=1, total_bits=3, edge_messages=np.array([1]))
        s = m.summary()
        assert s["messages"] == 1 and s["bits"] == 3 and s["max_congestion"] == 1


class TestPayloadBitsCache:
    """Regression: the bit-size memo must not conflate equal-but-differently
    typed payloads — ``hash(True) == hash(1)`` and ``(0, 1) == (False, True)``,
    but ``bits_for_payload(True)`` is 1 bit while ``bits_for_payload(1)`` is 2."""

    def _sim(self):
        return Simulator(Network(path_graph(2)), lambda v: NodeProgram())

    def test_bool_after_int_not_conflated(self):
        sim = self._sim()
        assert sim._payload_bits(1) == 2
        assert sim._payload_bits(True) == 1

    def test_int_after_bool_not_conflated(self):
        sim = self._sim()
        assert sim._payload_bits(True) == 1
        assert sim._payload_bits(1) == 2

    def test_tuple_payloads_interleaved(self):
        from repro.util.bits import bits_for_payload

        sim = self._sim()
        # Each payload next to its type twin, so the all-int fast path and
        # the type-aware memo see equal-comparing payloads in both orders.
        pairs = [
            ((0, 1), (False, True)),
            ((True, 1), (1, 1)),
            ((1, True), (1, 1)),
            ((np.int64(3), 1), (3, 1)),
            ((), []),
            ((-5, 0), (-5.0, 0)),
            ((2**70, 1), (float(2**70), 1)),
            (((0, 1), 2), ([0, 1], 2)),
        ]
        for _ in range(2):
            for payload, twin in pairs:
                for p in (payload, twin, payload):
                    assert sim._payload_bits(p) == bits_for_payload(p), p
        assert sim._payload_bits((0, 1)) == 4       # two signed ints
        assert sim._payload_bits((False, True)) == 2  # two 1-bit flags

    def test_list_payloads_priced_like_tuples_but_keyed_apart(self):
        sim = self._sim()
        assert sim._payload_bits(([0, 1], 2)) == sim._payload_bits(((0, 1), 2))

    def test_end_to_end_bit_accounting(self):
        """Interleaved bool/int sends must charge type-correct totals."""

        class Mixed(NodeProgram):
            def __init__(self, node):
                super().__init__()
                self.node = node

            def on_start(self, ctx):
                if self.node == 0:
                    ctx.send(0, (0, 1))

            def on_round(self, ctx):
                if self.node == 1 and ctx.round == 1:
                    ctx.send(0, (False, True))

        result = Simulator(Network(path_graph(2)), Mixed).run()
        # (0, 1) is 2+2 bits; (False, True) is 1+1 bits.
        assert result.metrics.total_bits == 6


class TestPortsForEdgesVectorized:
    def test_accepts_bool_mask(self):
        g = cycle_graph(6)
        net = Network(g)
        mask = np.zeros(g.m, dtype=bool)
        mask[g.edge_id(0, 1)] = True
        mask[g.edge_id(0, 5)] = True
        assert net.ports_for_edges(0, mask) == [net.port_to(0, 1), net.port_to(0, 5)]

    def test_accepts_set_array_and_list(self):
        g = complete_graph(5)
        net = Network(g)
        eids = {g.edge_id(2, 0), g.edge_id(2, 4)}
        expected = sorted([net.port_to(2, 0), net.port_to(2, 4)])
        assert net.ports_for_edges(2, eids) == expected
        assert net.ports_for_edges(2, np.array(sorted(eids))) == expected
        assert net.ports_for_edges(2, sorted(eids)) == expected

    def test_empty_selection(self):
        net = Network(cycle_graph(4))
        assert net.ports_for_edges(0, set()) == []
        assert net.ports_for_edges(0, np.zeros(4, dtype=bool)) == []


def _recording(base):
    """``base`` with a fault hook that also keeps every round's batch."""

    class Recording(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.batches = []

        def _deliver(self, rnd, batch):
            self.batches.append(list(batch))
            return super()._deliver(rnd, batch)

    return Recording


class TestRoundTransport:
    """The transport hands each round's sends to one fault-hook call,
    prices a payload object fanned out to several ports once, and writes
    the run's totals into Metrics at the end."""

    def test_faulty_hook_draws_one_coin_per_survivor_in_batch_order(self):
        from repro import obs
        from repro.congest.faults import FaultySimulator
        from repro.util.rng import ensure_rng

        g = cycle_graph(6)
        dead, mobile, rate = {0}, {3: {2}}, 0.5
        sim = FaultySimulator(
            Network(g), lambda v: NodeProgram(), dead_edges=dead, mobile=mobile,
            drop_rate=rate, fault_seed=9,
        )
        eids = [1, 0, 2, 3, 2, 4, 5, 0, 1, 3, 4, 5, 2, 2, 0, 1, 3, 4, 5, 1]
        batch = [(i % 6, eid, (0, (i,))) for i, eid in enumerate(eids)]
        rng = ensure_rng(9)
        kept, dropped, coins = [], 0, 0
        for rnd in (3, 4):
            for msg in batch:
                if msg[1] in dead or msg[1] in mobile.get(rnd, ()):
                    dropped += 1
                    continue
                coins += 1
                if rng.random() < rate:
                    dropped += 1
                else:
                    kept.append(msg)
        with obs.use_tracer() as tracer:
            got = sim._deliver(3, batch) + sim._deliver(4, batch)
        assert got == kept and 0 < len(kept) < 2 * len(batch)
        assert sim.dropped == dropped
        assert sim._fault_rng.bit_generator.state == rng.bit_generator.state
        counters = tracer.counter_values()
        assert counters["rng.fault_coins"] == coins
        assert counters["faults.dropped"] == dropped
        # A batch that dies on dead and mobile edges draws no coin.
        state = sim._fault_rng.bit_generator.state
        assert sim._deliver(3, [m for m in batch if m[1] in (0, 2)]) == []
        assert sim._fault_rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "dead, mobile", [({0}, {3: {2}}), (set(), {})], ids=["dead+mobile", "rate-only"]
    )
    def test_fault_stream_drops_what_the_hook_drops(self, dead, mobile):
        """The vectorized engine's ``FaultStream`` twins the fault hook over
        the same two rounds: equal survivor masks, drop count, RNG state
        and counters. A rate-only plan drops no edge, so the stream takes
        the batch's size alone, as the faulty broadcast's replay passes it."""
        from repro import obs
        from repro.congest.adversary import FaultPlan
        from repro.congest.faults import FaultySimulator
        from repro.engine.faults import FaultStream

        g = cycle_graph(6)
        plan = FaultPlan(dead_edges=dead, mobile=mobile, drop_rate=0.5)
        sim = FaultySimulator(Network(g), lambda v: NodeProgram(), plan=plan, fault_seed=9)
        stream = FaultStream(g, plan, fault_seed=9)
        eids = [1, 0, 2, 3, 2, 4, 5, 0, 1, 3, 4, 5, 2, 2, 0, 1, 3, 4, 5, 1]
        batch = [(i % 6, eid, (0, (i,))) for i, eid in enumerate(eids)]
        with obs.use_tracer() as sim_tracer:
            kept = [sim._deliver(rnd, batch) for rnd in (3, 4)]
        assert [stream.drops_edges(rnd) for rnd in (3, 4)] == [bool(dead)] * 2
        with obs.use_tracer() as tracer:
            masks = [
                stream.deliver_mask(
                    rnd, np.array(eids) if stream.drops_edges(rnd) else len(eids)
                )
                for rnd in (3, 4)
            ]
        assert [[m for m, a in zip(batch, mask) if a] for mask in masks] == kept
        assert 0 < stream.dropped == sim.dropped < 2 * len(batch)
        assert stream.rng_state == sim._fault_rng.bit_generator.state
        counters, sim_counters = tracer.counter_values(), sim_tracer.counter_values()
        for name in ("rng.fault_coins", "faults.dropped"):
            assert counters[name] == sim_counters[name]

    @staticmethod
    def _fan_out(graph, sends, received=None):
        """Node 0 sends ``sends[i]`` (one object per group of ports) in
        round 0; every receipt lands in ``received``."""

        class FanOut(NodeProgram):
            def __init__(self, node):
                super().__init__()
                self.node = node

            def on_start(self, ctx):
                if self.node == 0:
                    for port in range(ctx.degree):
                        ctx.send(port, sends[port * len(sends) // ctx.degree])

            def on_round(self, ctx):
                if received is not None:
                    received.extend(ctx.inbox)

        return Simulator(Network(graph), FanOut).run().metrics

    def test_fanned_out_payload_is_charged_per_port(self):
        from repro.util.bits import bits_for_payload

        g = complete_graph(7)
        payload = (3, 250, 1)
        m = self._fan_out(g, [payload])
        assert m.total_messages == 6
        assert m.total_bits == 6 * bits_for_payload(payload)
        star = np.flatnonzero((g.edge_u == 0) | (g.edge_v == 0))
        assert m.edge_messages[star].tolist() == [1] * 6
        assert m.edge_messages.sum() == 6

    def test_fanned_out_equal_payloads_of_other_types_are_priced_apart(self):
        """``(False, True) == (0, 1)``, but the flags cost 2 bits and the
        ints 4: only the same object skips pricing."""
        g = complete_graph(7)
        m = self._fan_out(g, [(False, True), (0, 1)])
        assert m.total_bits == 3 * 2 + 3 * 4
        m = self._fan_out(g, [(0, 1), (False, True)])
        assert m.total_bits == 3 * 4 + 3 * 2

    def test_oversized_fanned_out_payload_raises_before_delivery(self):
        received = []
        with pytest.raises(BandwidthExceeded, match="node 0 round 0"):
            self._fan_out(complete_graph(7), [(1, 2**200)], received)
        assert received == []

    @pytest.mark.parametrize("case", ["bfs", "pipeline", "lossy"])
    def test_metrics_equal_a_recount_of_every_send(self, case):
        from repro.congest.faults import FaultySimulator
        from repro.graphs import thick_cycle
        from repro.primitives.bfs import BFSProgram, run_bfs
        from repro.primitives.pipeline import checked_messages, simulate_pipelines
        from repro.util.bits import bits_for_payload

        g = thick_cycle(5, 4)
        net = Network(g)
        if case == "bfs":
            sim = _recording(Simulator)(net, lambda v: BFSProgram(v, {0: 3}, {0: None}))
            metrics = sim.run().metrics
        else:
            trees = {0: run_bfs(g, 0, backend="vectorized")}
            flat = checked_messages(g, trees, {0: {v: [v + 1] for v in range(g.n)}})
            kwargs = {"drop_rate": 0.3, "fault_seed": 5} if case == "lossy" else {}
            base = FaultySimulator if case == "lossy" else Simulator
            result, sim = simulate_pipelines(net, trees, flat, simulator=_recording(base), **kwargs)
            metrics = result.metrics
            assert getattr(sim, "dropped", 0) > 0 or case != "lossy"
        sent = [msg for batch in sim.batches for msg in batch]
        assert len(sim.batches) == metrics.rounds
        assert metrics.total_messages == len(sent)
        assert metrics.total_bits == sum(bits_for_payload(msg[2][1]) for msg in sent)
        recount = np.bincount([msg[1] for msg in sent], minlength=g.m)
        assert metrics.edge_messages.dtype == np.int64
        assert metrics.edge_messages.tolist() == recount.tolist()
