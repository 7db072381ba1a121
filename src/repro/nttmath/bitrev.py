"""Bit-reversal permutation used by the iterative NTT (paper Alg. 1, line 1)."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ParameterError
from ..utils import log2_exact


@lru_cache(maxsize=None)
def _bit_reverse_array_cached(length: int) -> np.ndarray:
    """Read-only cached index array (vectorised doubling build).

    The permutation for length 2L is ``[2*rev_L, 2*rev_L + 1]`` (an
    extra low bit shifts every reversed value up and the new leading
    bit selects the half), so the table for any power-of-two length is
    built in log2(length) numpy passes.
    """
    log2_exact(length)
    table = np.zeros(1, dtype=np.int64)
    while len(table) < length:
        table = np.concatenate([2 * table, 2 * table + 1])
    table.flags.writeable = False
    return table


def bit_reverse_indices(length: int) -> np.ndarray:
    """Index vector ``r`` with ``r[i] = bitreverse(i)`` for a power-of-two length.

    The returned array is a shared read-only cache entry — index with it
    freely, but copy before mutating.
    """
    return _bit_reverse_array_cached(length)


def bit_reverse_permute(values):
    """Return ``values`` permuted into bit-reversed order.

    Accepts a numpy array or a sequence; returns the same kind (array in,
    array out; list in, list out) so both the vectorised and the pure-int
    NTT paths can share it.
    """
    length = len(values)
    if length == 0 or length & (length - 1):
        raise ParameterError("bit reversal needs a power-of-two length")
    indices = _bit_reverse_array_cached(length)
    if isinstance(values, np.ndarray):
        return values[indices]
    return [values[int(i)] for i in indices]
