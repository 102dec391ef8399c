"""Exception hierarchy for the repro package.

Errors are deliberately loud: the CONGEST simulator raises
:class:`BandwidthExceeded` instead of silently truncating a message, and
validators raise :class:`ValidationError` with a human-readable account of
which invariant failed. This mirrors the paper's "with high probability"
guarantees — when a w.h.p. event fails (it can, for tiny constants), the
caller finds out immediately.
"""

from __future__ import annotations

import numbers
from typing import Any, Sequence

import numpy as np


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ValidationError(ReproError):
    """An invariant promised by a theorem/lemma failed to hold.

    Carries optional structured ``details`` so tests and benchmark harnesses
    can introspect what went wrong without parsing the message string.
    """

    def __init__(self, message: str, **details: Any) -> None:
        super().__init__(message)
        self.details = details


class BandwidthExceeded(ReproError):
    """A node attempted to violate the CONGEST bandwidth constraint.

    Raised when a payload exceeds the per-edge-per-round bit budget, or when
    a node tries to enqueue a second message on the same directed edge in a
    single round.
    """


class ProtocolError(ReproError):
    """A distributed protocol reached a state its specification forbids.

    Examples: a BFS node receiving a layer announcement from a non-neighbor,
    or a pipelined broadcast receiving an out-of-order packet.
    """


def integer_ids(values: Sequence[Any], what: str) -> np.ndarray:
    """``values`` as a 1-D int64 array, or :class:`ValidationError` naming
    the first one that is not an integer (Python, numpy or bool).

    One numpy conversion checks every value at once: a float, string or
    object entry leaves the array without an integer dtype, and a nested
    entry leaves it 2-D or, ragged, makes numpy raise. ``np.fromiter``
    with an integer dtype cannot be the check: it truncates 1.5 to 1.
    Integers beyond int64 raise too (``uint64`` values above 2⁶³ − 1 would
    otherwise wrap to negative ids).
    """
    try:
        arr = np.array(values)
        flat = arr.ndim == 1
    except ValueError:  # ragged nesting, which numpy cannot shape
        flat = False
    if not flat or (
        arr.size
        and (
            arr.dtype.kind not in "biu"
            or (arr.dtype.kind == "u" and int(arr.max()) > np.iinfo(np.int64).max)
        )
    ):
        bad = next((v for v in values if not isinstance(v, numbers.Integral)), None)
        if bad is None and flat:
            raise ValidationError(f"{what} must fit in int64, got {max(values)!r}")
        raise ValidationError(f"{what} must be integers, got {bad!r}")
    return arr.astype(np.int64, copy=False)
