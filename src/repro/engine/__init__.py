"""Vectorized fast-path backend for the simulator's hot protocols.

The library has **two backends** for every protocol whose output and round
count are deterministic functions of the input:

* ``backend="simulator"`` (the default everywhere) runs the actual per-node
  :class:`~repro.congest.program.NodeProgram` state machines on the CONGEST
  simulator. Round counts are *certified by execution*: every message is
  transported, bit-priced, and bandwidth-checked, so a completed run is a
  genuine CONGEST execution. This is the ground truth — and every message
  costs about 1.8 µs of simulator time, about 43% of it inside the per-node
  Python programs (measured in :mod:`repro.congest.simulator`), which caps
  experiments at toy sizes.

* ``backend="vectorized"`` (this package) computes the *same* results with
  whole-frontier numpy sweeps over the :class:`~repro.graphs.graph.Graph`
  CSR arrays — the idiom used by DGL's ``ImmutableGraphIndex``: keep the
  graph in ``indptr``/``indices`` form and drive traversals with array ops
  instead of per-node message objects. No messages exist at runtime, so the
  round counts are *reconstructed* from the protocols' deterministic
  structure:

  - **BFS flood (Lemma 2)** — per-channel hop distances via frontier
    sweeps; parents take the smallest-id neighbor in the previous layer
    (ports are sorted by neighbor id, so this is exactly the simulator's
    first-announcing-port tie-break); rounds = max channel depth + 1 (the
    final round delivers the deepest layer's child-notifications). A solo
    flood is a batch of one: ``run_bfs`` rides
    :func:`~repro.engine.plane.plane_sweep` and ``run_parallel_bfs``
    :func:`~repro.engine.plane.masked_union_bfs`.
  - **Leader election (min-ID flood)** — the minimum id (node 0) wins;
    rounds = ecc(0) + 1 (the farthest node's last improvement floods out
    one more round).
  - **Item numbering (Lemma 3)** — convergecast layer by layer, then
    each child's offset among its siblings from one cumsum over the
    child CSR and one gather-add per layer down; rounds = 2 · depth(T).
  - **Pipelined tree broadcast (Lemma 1 / Theorem 1 step 4)** — the round
    count depends only on the depths of the messages' origins, never on
    message identity: with N(≥ d) the messages from depth d or deeper, the
    root sends its last message in round max_d (d + N(≥ d)) − 1 and the
    downcast, a pure pipeline, reaches the deepest leaf depth(T) rounds
    later. One histogram of origin depths per tree gives the count, with
    no upcast loop; congestion and message/bit totals follow in closed
    form too (each message crosses each tree edge once downward, and its
    root-path once upward).

**Certification relationship.** The vectorized backend inherits the
simulator's certification *by testing, not by construction*: the
equivalence harness (:mod:`repro.engine.verify`, exercised by
``tests/test_engine_equivalence.py``) runs every ``backend=`` entry point
on both backends and compares the two results whole with one structural
differ — every dataclass field, dict entry, list item and array, the
``backend`` tag alone exempt — so results must match bit-for-bit, or both
must raise the same ``ValidationError``. Its ``ROWS`` table runs over
random graphs, edge masks and multi-channel configurations, and over six
boundary hosts (n = 1, n = 2, edgeless, disconnected, highest-id node
isolated, tied weights). Anything the fast path cannot reproduce exactly
must stay on the simulator.

The loop-bound *application* pipelines have twins too
(:mod:`repro.engine.pipelines`): cluster growth for Theorem 4, the
Baswana–Sen spanner behind Theorem 5 and the Koutis–Xu sparsifier, all
bit-identical in outputs **and RNG consumption**, so mixed-backend pipelines
stay reproducible.

Fault injection has a twin as well (:mod:`repro.engine.faults`): per-round
edge drop masks threaded through the frontier sweeps and the Lemma 1 queue
recurrence, replicating :class:`~repro.congest.faults.FaultySimulator`
executions — receipt sets, drop counts, round totals, and the fault RNG
stream — bit for bit, which is what lets the Section 1.2 resilience
experiments (``redundant_broadcast``, E16) run at n = 10⁵.

Within the vectorized backend the input alone picks each path; no option
or environment variable selects one. The fault engine runs a closed form
for rate-0 plans on BFS-layered trees, another for pure total loss, and
replays round by round only where coin draws depend on earlier drops
(rates in (0, 1)) or a closed form's precondition fails.

Callers opt in via the ``backend=`` parameter threaded through
:func:`repro.primitives.bfs.run_bfs`,
:func:`repro.primitives.bfs.run_parallel_bfs`,
:func:`repro.core.tree_packing.build_tree_packing`,
:func:`repro.core.lambda_search.find_packing_unknown_lambda`, the broadcast
drivers in :mod:`repro.core.broadcast`, the APSP pipelines
(:func:`repro.apsp.approx_apsp_unweighted`,
:func:`repro.apsp.approx_apsp_weighted`,
:func:`repro.apsp.baswana_sen_spanner`) and the cut pipelines
(:func:`repro.cuts.koutis_xu_sparsifier`,
:func:`repro.cuts.approx_all_cuts`); the CLI exposes it as ``--backend``
on the ``broadcast``, ``packing``, ``apsp``, and ``cuts`` subcommands.
"""

from __future__ import annotations

from repro.engine.kernels import frontier_sweep
from repro.engine.fastpath import (
    vectorized_elect_leader,
    vectorized_numbering,
    vectorized_tree_broadcast,
)
from repro.engine.pipelines import (
    assign_centers,
    contract_clusters,
    vectorized_spanner_edges,
)
from repro.util.errors import ValidationError

__all__ = [
    "BACKENDS",
    "frontier_sweep",
    "validate_backend",
    "vectorized_elect_leader",
    "vectorized_numbering",
    "vectorized_tree_broadcast",
    "assign_centers",
    "contract_clusters",
    "vectorized_spanner_edges",
    "faulty_bfs",
    "vectorized_faulty_bfs",
    "vectorized_faulty_broadcast",
]


def __getattr__(name):
    # engine.faults pulls in primitives/congest modules; import lazily so
    # the package stays cheap for fault-free callers.
    if name in ("faulty_bfs", "vectorized_faulty_bfs", "vectorized_faulty_broadcast"):
        from repro.engine import faults

        return getattr(faults, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

BACKENDS = ("simulator", "vectorized")


def validate_backend(name: str) -> str:
    """Check a ``backend=`` argument, returning it unchanged if valid."""
    if name not in BACKENDS:
        raise ValidationError(
            f"unknown backend {name!r}; expected one of {BACKENDS}"
        )
    return name
