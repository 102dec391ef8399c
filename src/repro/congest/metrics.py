"""Execution metrics: rounds, congestion, message/bit totals.

The paper reasons about two resources:

* **rounds** — the number of synchronous rounds executed (the headline
  complexity of every theorem), and
* **congestion** — the maximum number of messages any single edge carries
  over the whole execution (Lemma 1 promises O(k); Theorem 12 schedules
  multiple algorithms subject to total congestion).

:class:`Metrics` tracks both exactly, per undirected edge, plus total
message and bit counts. The simulator writes the totals once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Metrics"]


@dataclass
class Metrics:
    """Counters accumulated by one :class:`~repro.congest.Simulator` run."""

    m: int
    rounds: int = 0
    total_messages: int = 0
    total_bits: int = 0
    edge_messages: np.ndarray | None = field(default=None)  # per undirected edge

    def __post_init__(self):
        if self.edge_messages is None:
            self.edge_messages = np.zeros(self.m, dtype=np.int64)

    @property
    def max_congestion(self) -> int:
        """Max messages over any undirected edge across the execution."""
        return int(self.edge_messages.max()) if self.m else 0

    def summary(self) -> dict:
        return {
            "rounds": self.rounds,
            "messages": self.total_messages,
            "bits": self.total_bits,
            "max_congestion": self.max_congestion,
        }

    def __repr__(self):
        s = self.summary()
        return (
            f"Metrics(rounds={s['rounds']}, messages={s['messages']}, "
            f"max_congestion={s['max_congestion']})"
        )
