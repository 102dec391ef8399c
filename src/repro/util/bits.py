"""Bit-size accounting for CONGEST messages.

The CONGEST model allows each edge to carry ``O(log n)`` bits per round. To
make round counts *certified* rather than estimated, every payload the
simulator transports must have a computable bit size; the transport compares
it against the budget :func:`message_bit_budget` and refuses oversized
messages. :data:`BANDWIDTH_FACTOR` is the hidden constant of the model's
``O(log n)`` bandwidth, and this module is its one home.

Payloads are plain Python data (ints, strings, tuples/lists thereof, and
``None``). Sizes are charged conservatively:

* ``int x``   → ``max(1, bit_length(|x|)) + 1`` (sign bit),
* ``str s``   → ``8 * len(utf8(s))``,
* ``None``    → 1 bit (presence flag),
* sequences   → sum of element sizes (framing is charged to the protocol's
  constant factor, consistent with the paper's ``O(log n)``-bit messages).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

__all__ = [
    "BANDWIDTH_FACTOR",
    "bits_for_int",
    "bits_for_int_array",
    "bits_for_payload",
    "message_bit_budget",
]

#: Hidden constant of the model's ``O(log n)`` bandwidth: 8 words of
#: ``⌈log₂ n⌉`` bits comfortably fit a small tagged tuple of node IDs, e.g.
#: ``(channel, kind, node_id, distance)``, which is what the protocols in
#: this library actually send.
BANDWIDTH_FACTOR = 8


def bits_for_int(x: int) -> int:
    """Bits to encode a (signed) integer: magnitude bits plus a sign bit."""
    return max(1, int(x).bit_length()) + 1


def bits_for_int_array(xs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`bits_for_int` over an int64 array.

    Uses ``frexp`` for the bit length (exact for magnitudes below 2**53,
    far beyond any message id the protocols carry).
    """
    xs = np.abs(np.asarray(xs, dtype=np.int64))
    if xs.size and xs.max() >= (1 << 53):
        return np.array([bits_for_int(int(x)) for x in xs], dtype=np.int64)
    _, exponents = np.frexp(xs.astype(np.float64))
    return np.maximum(1, exponents).astype(np.int64) + 1


def bits_for_payload(payload: Any) -> int:
    """Conservative bit size of an arbitrary nested payload."""
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return bits_for_int(payload)
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return max(1, 8 * len(payload.encode("utf-8")))
    if isinstance(payload, (tuple, list)):
        # An empty frame still occupies at least a presence bit.
        return max(1, sum(bits_for_payload(item) for item in payload))
    # numpy scalar integers quack like ints
    try:
        return bits_for_int(int(payload))
    except (TypeError, ValueError):
        raise TypeError(
            f"payload element of type {type(payload).__name__} has no defined bit size"
        ) from None


def message_bit_budget(n: int) -> int:
    """Per-edge-per-round budget ``B = BANDWIDTH_FACTOR · ⌈log₂ n⌉``, that
    is ``8·⌈log₂ n⌉`` bits."""
    # Floor the log factor at 4 so protocols on toy graphs (n < 16) are not
    # starved below any realistic word size; the model constant only matters
    # asymptotically.
    if n < 2:
        return 4 * BANDWIDTH_FACTOR
    return BANDWIDTH_FACTOR * max(4, math.ceil(math.log2(n)))
