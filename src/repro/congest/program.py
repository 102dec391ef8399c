"""Node-program API: how a distributed algorithm is expressed.

A CONGEST algorithm is a :class:`NodeProgram` subclass instantiated once per
node. The simulator drives it through two hooks:

* :meth:`NodeProgram.on_start` — round 0, before any message flows; the node
  may send its first messages here.
* :meth:`NodeProgram.on_round` — called in every round in which the node is
  *active* (it received messages, or it asked to be woken via
  :meth:`Context.wake`).

All interaction with the world goes through the :class:`Context` handed to
the hooks — nodes cannot see the graph, other nodes' state, or the future,
enforcing the locality of the model. Shared *common knowledge* (``n``, and
when the paper assumes them, ``δ``, ``λ``, and the public seed of Theorem 2's
zero-communication partition) is exposed read-only via ``ctx.shared``.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.util.errors import BandwidthExceeded, ProtocolError

__all__ = ["Context", "NodeProgram"]


class Context:
    """Per-node, per-round interface to the simulator.

    Attributes
    ----------
    node: this node's id (``0..n-1``; doubles as its O(log n)-bit ID).
    n: number of nodes (common knowledge, standard in CONGEST).
    degree: number of ports.
    round: current round number (0-based).
    inbox: list of ``(port, payload)`` delivered this round.
    shared: read-only mapping of common knowledge.
    rng: per-node independent random stream, built on first use.
    """

    __slots__ = (
        "node",
        "n",
        "degree",
        "round",
        "inbox",
        "shared",
        "_rng",
        "_new_rng",
        "_outbox",
        "_wake",
        "_halted",
    )

    def __init__(
        self,
        node: int,
        n: int,
        degree: int,
        shared: dict,
        new_rng: Callable[[], np.random.Generator],
    ):
        self.node = node
        self.n = n
        self.degree = degree
        self.round = 0
        self.inbox: list[tuple[int, Any]] = []
        self.shared = shared
        self._rng: np.random.Generator | None = None
        self._new_rng = new_rng
        self._outbox: dict[int, Any] = {}
        self._wake = False
        self._halted = False

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = self._new_rng()
        return self._rng

    # -- actions ------------------------------------------------------- #

    def send(self, port: int, payload: Any) -> None:
        """Queue one message on ``port`` for delivery next round.

        At most one message per port per round (CONGEST); a second send on
        the same port in the same round raises :class:`BandwidthExceeded`.
        """
        if not (0 <= port < self.degree):
            raise ProtocolError(
                f"node {self.node} tried to send on nonexistent port {port}"
            )
        if port in self._outbox:
            raise BandwidthExceeded(
                f"node {self.node} sent twice on port {port} in round {self.round}"
            )
        self._outbox[port] = payload

    def send_all(self, payload: Any) -> None:
        """Send the same payload on every port (a local broadcast)."""
        for port in range(self.degree):
            self.send(port, payload)

    def wake(self) -> None:
        """Request activation next round even if no message arrives."""
        self._wake = True

    def halt(self) -> None:
        """Mark this node finished; it will not be activated again."""
        self._halted = True


class NodeProgram:
    """Base class for per-node algorithm state machines.

    Subclasses override :meth:`on_start` and :meth:`on_round`, keep their
    state on ``self``, and publish results into ``self.output`` (a dict the
    driver reads after the run). ``self.output`` is the node's "local
    output" in the sense of the model definition in Section 2 of the paper.
    """

    def __init__(self):
        self.output: dict[str, Any] = {}

    def on_start(self, ctx: Context) -> None:  # pragma: no cover - interface
        """Round-0 hook; override to send initial messages."""

    def on_round(self, ctx: Context) -> None:  # pragma: no cover - interface
        """Per-round hook; override to process ``ctx.inbox`` and reply."""
        raise NotImplementedError
