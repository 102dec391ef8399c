"""Deterministic randomness plumbing.

Every randomized algorithm in the library accepts either an integer seed or a
ready-made :class:`numpy.random.Generator`. Independent sub-streams (e.g. one
per spanning subgraph, one per node) are derived with :func:`spawn_rngs`,
which uses NumPy's ``Generator.spawn`` — the recommended way to obtain
statistically independent child streams — so that no two components ever
share a stream by accident.

The paper's Theorem 2 relies on *shared* randomness: both endpoints of an
edge must agree on the edge's color without communication. We model that
with :func:`derive_seed`, a pure function of ``(root_seed, *key)`` — any
party that knows the public seed and the edge identity computes the same
color, exactly like the paper's "let u decide" convention but symmetric.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "ensure_rng",
    "rng_from_seed",
    "spawn_rngs",
    "spawn_seeds",
    "child_rng",
    "derive_seed",
]


def rng_from_seed(seed: int | None) -> np.random.Generator:
    """Create a PCG64 generator from an integer seed (or fresh entropy)."""
    return np.random.Generator(np.random.PCG64(seed))


def ensure_rng(seed_or_rng: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed_or_rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an ``int`` seed, or an existing
    generator (returned unchanged, so callers can thread one stream through
    a pipeline).
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if seed_or_rng is None or isinstance(seed_or_rng, (int, np.integer)):
        return rng_from_seed(None if seed_or_rng is None else int(seed_or_rng))
    raise TypeError(
        f"expected int seed, numpy Generator, or None; got {type(seed_or_rng).__name__}"
    )


def spawn_rngs(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent child generators."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return list(rng.spawn(count))


def spawn_seeds(rng: np.random.Generator, count: int) -> list[np.random.SeedSequence]:
    """The seeds of the ``count`` children :func:`spawn_rngs` derives, spawned
    as it spawns them, so ``rng``'s spawn counter advances alike.

    ``child_rng(rng, spawn_seeds(rng, count)[i])`` draws what
    ``spawn_rngs(rng, count)[i]`` draws; a caller that may never draw from
    a child builds it only on first use and skips the generator
    construction.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seq = rng.bit_generator.seed_seq
    if not isinstance(seq, np.random.SeedSequence):
        raise TypeError(f"{type(seq).__name__} cannot spawn child streams")
    return seq.spawn(count)


def child_rng(parent: np.random.Generator, seed: np.random.SeedSequence) -> np.random.Generator:
    """The child generator of ``parent`` seeded by ``seed`` (one of
    :func:`spawn_seeds`), of ``parent``'s generator and bit-generator types."""
    return type(parent)(type(parent.bit_generator)(seed))


def derive_seed(root_seed: int, *key: int | str) -> int:
    """Pure function mapping ``(root_seed, key...)`` to a 63-bit seed.

    Used for the zero-communication edge coloring of Theorem 2: both
    endpoints of edge ``{u, v}`` call ``derive_seed(seed, "edge", eid)`` and
    obtain the same stream, so the partition needs no messages. SHA-256 is
    used (rather than Python ``hash``) for cross-process stability.
    """
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode())
    for part in key:
        h.update(b"\x1f")
        h.update(str(part).encode())
    return int.from_bytes(h.digest()[:8], "little") & (2**63 - 1)
