"""Arbitrary-precision polynomial over Z_q[x]/(x^n + 1).

This is the reference representation: plain Python integers, schoolbook
negacyclic multiplication. It is exact for moduli of any size (the FV
textbook path uses the 180-bit q and 390-bit Q directly) and is the ground
truth against which the RNS and hardware paths are verified.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError
from ..nttmath.ntt import negacyclic_convolution
from ..utils import is_power_of_two, round_half_away


@dataclass(frozen=True)
class IntPoly:
    """Immutable polynomial with big-integer coefficients modulo ``modulus``.

    Coefficients are stored reduced to ``[0, modulus)``; use
    :meth:`centered` for the signed representative.
    """

    coeffs: tuple[int, ...]
    modulus: int

    def __post_init__(self) -> None:
        if not is_power_of_two(len(self.coeffs)):
            raise ParameterError("IntPoly degree must be a power of two")
        if self.modulus < 2:
            raise ParameterError("modulus must be at least 2")
        object.__setattr__(
            self, "coeffs", tuple(c % self.modulus for c in self.coeffs)
        )

    # -- constructors --------------------------------------------------------

    # -- basic properties ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def centered(self) -> list[int]:
        """Coefficients mapped to (-modulus/2, modulus/2]."""
        half = self.modulus // 2
        return [c - self.modulus if c > half else c for c in self.coeffs]

    # -- ring arithmetic -----------------------------------------------------

    def _assert_compatible(self, other: IntPoly) -> None:
        if self.n != other.n or self.modulus != other.modulus:
            raise ParameterError("polynomials live in different rings")

    def __add__(self, other: IntPoly) -> IntPoly:
        self._assert_compatible(other)
        return IntPoly(
            tuple((a + b) % self.modulus
                  for a, b in zip(self.coeffs, other.coeffs, strict=True)),
            self.modulus,
        )

    def __sub__(self, other: IntPoly) -> IntPoly:
        self._assert_compatible(other)
        return IntPoly(
            tuple((a - b) % self.modulus
                  for a, b in zip(self.coeffs, other.coeffs, strict=True)),
            self.modulus,
        )

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c % self.modulus for c in self.coeffs),
                       self.modulus)

    def __mul__(self, other: IntPoly) -> IntPoly:
        self._assert_compatible(other)
        product = negacyclic_convolution(
            list(self.coeffs), list(other.coeffs), self.modulus
        )
        return IntPoly(tuple(product), self.modulus)

    def scalar_mul(self, scalar: int) -> IntPoly:
        return IntPoly(
            tuple((c * scalar) % self.modulus for c in self.coeffs),
            self.modulus,
        )

    # -- modulus switching ---------------------------------------------------

    def lift_to(self, new_modulus: int) -> IntPoly:
        """Re-interpret the centered coefficients modulo a larger modulus.

        This is the exact (non-RNS) form of the paper's Lift q->Q: a
        centered coefficient of Z_q is also a valid element of Z_Q.
        """
        if new_modulus < self.modulus:
            raise ParameterError("lift_to expects a larger modulus")
        return IntPoly(
            tuple(c % new_modulus for c in self.centered()), new_modulus
        )

    def scale_round(self, numerator: int, denominator: int,
                    new_modulus: int) -> IntPoly:
        """Compute round(numerator * x / denominator) mod new_modulus.

        The exact (non-RNS) form of the paper's Scale Q->q with
        numerator = t and denominator = q, applied to the centered
        representative.
        """
        scaled = [
            round_half_away(numerator * c, denominator)
            for c in self.centered()
        ]
        return IntPoly(tuple(v % new_modulus for v in scaled), new_modulus)
