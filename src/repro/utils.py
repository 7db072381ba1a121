"""Small shared helpers: bit manipulation and integer utilities."""

from __future__ import annotations

from .errors import ParameterError


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return ``log2(value)`` for an exact power of two.

    Raises :class:`ParameterError` otherwise, because every place this is
    used (ring degrees, NTT sizes) requires an exact power of two.
    """
    if not is_power_of_two(value):
        raise ParameterError(f"{value} is not a power of two")
    return value.bit_length() - 1


def round_half_away(numerator: int, denominator: int) -> int:
    """Round ``numerator / denominator`` to the nearest integer.

    Halves round away from zero, matching the rounding performed by the
    paper's fixed-point datapaths (add half, then truncate). ``denominator``
    must be positive.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    if numerator >= 0:
        return (2 * numerator + denominator) // (2 * denominator)
    return -((-2 * numerator + denominator) // (2 * denominator))


def centered(value: int, modulus: int) -> int:
    """Map ``value`` to its centered representative in (-modulus/2, modulus/2]."""
    value %= modulus
    if value > modulus // 2:
        value -= modulus
    return value


def chunks(total: int, chunk_size: int) -> list[int]:
    """Split ``total`` into chunk sizes of at most ``chunk_size``.

    Used by the DMA model to enumerate burst transfers.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    full, rest = divmod(total, chunk_size)
    sizes = [chunk_size] * full
    if rest:
        sizes.append(rest)
    return sizes
