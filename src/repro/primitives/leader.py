"""Leader election by minimum-ID flooding.

The paper (Section 2) elects a leader by rooting a BFS; equivalently, every
node floods the smallest ID it has heard, and after D+1 quiet rounds the
unique minimum has reached everyone. Flooding is the standard O(D)-round,
O(log n)-bits-per-message primitive; the textbook broadcast algorithm
(Lemma 1) uses it to agree on the BFS root.
"""

from __future__ import annotations

from repro.congest.network import Network
from repro.congest.program import Context, NodeProgram
from repro.congest.simulator import Simulator
from repro.graphs.graph import Graph
from repro.util.errors import ValidationError

__all__ = ["MinIDFloodProgram", "elect_leader"]


_LEADER = 0  # int payload tag (strings are too wide for tiny-n budgets)


class MinIDFloodProgram(NodeProgram):
    """Each node repeatedly forwards the smallest ID seen so far."""

    def __init__(self, node: int):
        super().__init__()
        self.node = node
        self.best = node

    def on_start(self, ctx: Context) -> None:
        ctx.send_all((_LEADER, self.best))

    def on_round(self, ctx: Context) -> None:
        improved = False
        for _port, payload in ctx.inbox:
            _tag, candidate = payload
            if candidate < self.best:
                self.best = candidate
                improved = True
        if improved:
            ctx.send_all((_LEADER, self.best))
        self.output["leader"] = self.best


def elect_leader(graph: Graph) -> tuple[int, int]:
    """Elect the minimum-ID node; returns ``(leader, rounds)``.

    Every node learns the leader; the tests assert unanimity. Rounds are
    O(D) — each round the frontier of "knows the minimum" grows by one hop.
    A disconnected graph raises :class:`ValidationError` naming the
    per-component leaders.
    """
    network = Network(graph)
    sim = Simulator(network, lambda v: MinIDFloodProgram(v))
    result = sim.run()
    leaders = {p.best for p in result.programs}
    if len(leaders) != 1:
        raise disconnected_error(leaders)
    return leaders.pop(), result.metrics.rounds


#: How many component leaders a disconnected-graph error names.
_NAMED_LEADERS = 8


def disconnected_error(leaders) -> ValidationError:
    """What both leader elections raise on a disconnected graph, which
    elects one leader per component. A long list is cut to its first
    :data:`_NAMED_LEADERS` leaders and the component count."""
    leaders = sorted(set(leaders))
    named = str(leaders)
    if len(leaders) > _NAMED_LEADERS:
        head = ", ".join(map(str, leaders[:_NAMED_LEADERS]))
        named = f"[{head}, ...] ({len(leaders)} components)"
    return ValidationError(
        f"graph must be connected to elect a leader; component leaders {named}"
    )
