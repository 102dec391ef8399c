"""Random-delay scheduling of concurrent algorithms (Theorem 12, [Gha15b]).

Ghaffari's scheduler executes k distributed algorithms together in
``O(congestion) + O(dilation · log² n)`` rounds w.h.p.: give each algorithm
an independent random start delay, and let every edge serve its queued
messages one per round. The paper invokes this in Appendix B (Theorem 13) to
run the basic broadcast of Lemma 1 in many *overlapping* subgraphs at once.

This module implements exactly that use case: multiple pipelined tree
broadcasts whose trees may **share edges**. Each node keeps one FIFO per
port; sub-jobs (channels) deposit their sends into the FIFOs, and the node
flushes at most one message per port per round — which is precisely the
CONGEST constraint, so the simulator's bandwidth checks stay satisfied even
though the trees overlap.

Measured quantities (experiment E11):

* ``makespan`` — rounds until every job finished,
* ``congestion`` — max total messages per edge (from simulator metrics),
* ``dilation`` — max stand-alone round count over jobs,

and the bench compares makespan against ``congestion + dilation·log² n``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial

from repro.congest.metrics import Metrics
from repro.congest.network import Network
from repro.congest.program import Context
from repro.graphs.graph import Graph
from repro.primitives.bfs import BFSResult
from repro.primitives.pipeline import (
    _DOWN,
    _UP,
    ChannelSpec,
    PipelinedBroadcastProgram,
    channel_sizes,
    check_child_lists,
    check_delivery,
    checked_messages,
    simulate_pipelines,
)
from repro.util.rng import ensure_rng

__all__ = ["ScheduledBroadcastProgram", "ScheduleOutcome", "run_scheduled_broadcast"]


class ScheduledBroadcastProgram(PipelinedBroadcastProgram):
    """Host several tree-broadcast jobs behind per-port FIFO queues.

    The Lemma 1 program with Theorem 12's send step: a job pumps nothing
    before its start delay; once started, its up- and down-sends are
    deposited in per-port FIFOs, and each port then sends at most one
    message per round, the oldest first.
    """

    def __init__(self, node: int, jobs: dict[int, ChannelSpec], delays: dict[int, int]):
        super().__init__(node, jobs)
        self.delays = delays
        self.port_fifo: dict[int, deque[tuple[int, int, int]]] = {}

    def _send(self, ctx: Context) -> None:
        fifo = self.port_fifo
        for cid, st in self.ch.items():
            if ctx.round < self.delays[cid]:
                continue
            if st.up_queue:
                fifo.setdefault(st.spec.parent_port, deque()).append(
                    (_UP, cid, st.up_queue.popleft())
                )
            if st.down_queue:
                msg = (_DOWN, cid, st.down_queue.popleft())
                for p in st.spec.child_ports:
                    fifo.setdefault(p, deque()).append(msg)
        busy = False
        for port, queue in fifo.items():
            if queue:
                ctx.send(port, queue.popleft())
                busy = busy or bool(queue)
        if busy or any(
            st.up_queue or st.down_queue or ctx.round < self.delays[cid]
            for cid, st in self.ch.items()
        ):
            ctx.wake()


@dataclass
class ScheduleOutcome:
    """Joint execution statistics for experiment E11."""

    makespan: int
    metrics: Metrics
    delays: dict[int, int]
    per_job_k: dict[int, int]

    @property
    def congestion(self) -> int:
        return self.metrics.max_congestion


def run_scheduled_broadcast(
    graph: Graph,
    trees: dict[int, BFSResult],
    messages: dict,
    max_delay: int | None = None,
    seed=None,
) -> ScheduleOutcome:
    """Run possibly-overlapping tree broadcasts with random start delays.

    ``trees`` and ``messages`` are checked as
    :func:`~repro.primitives.pipeline.run_tree_broadcast` checks them, except
    that trees may share edges. ``max_delay`` defaults to a
    congestion-proportional window: the sum over jobs of their message
    counts divided by the number of jobs — the scale Theorem 12's analysis
    smooths load over. Pass ``0`` to get the no-delay baseline the E11
    bench compares against.
    """
    rng = ensure_rng(seed)
    check_child_lists(trees)
    flat = checked_messages(graph, trees, messages)
    per_job_k = channel_sizes(trees, flat)
    if max_delay is None:
        max_delay = max(1, sum(per_job_k.values()) // max(1, len(trees)))
    delays = {
        cid: (0 if max_delay == 0 else int(rng.integers(max_delay)))
        for cid in trees
    }
    result, _sim = simulate_pipelines(
        Network(graph), trees, flat, partial(ScheduledBroadcastProgram, delays=delays)
    )
    check_delivery(result.programs, trees, flat)
    return ScheduleOutcome(
        makespan=result.metrics.rounds,
        metrics=result.metrics,
        delays=delays,
        per_job_k=per_job_k,
    )
