"""Modular integer arithmetic helpers.

These operate on plain Python integers so they are exact for moduli of any
size (the FV reference implementation uses 180-bit and 390-bit moduli).
"""

from __future__ import annotations


def modpow(base: int, exponent: int, modulus: int) -> int:
    """Return ``base ** exponent mod modulus`` (thin wrapper over ``pow``)."""
    return pow(base, exponent, modulus)


def modinv(value: int, modulus: int) -> int:
    """Return the multiplicative inverse of ``value`` modulo ``modulus``.

    Raises ``ValueError`` when the inverse does not exist; this signals a
    mis-configured RNS basis (non-coprime moduli) early instead of letting
    a wrong constant propagate into the arithmetic.
    """
    try:
        return pow(value, -1, modulus)
    except ValueError as exc:  # pragma: no cover - message reshaping only
        raise ValueError(
            f"{value} has no inverse modulo {modulus}: operands not coprime"
        ) from exc

