"""Plaintext encoders (the Encoder/Decoder boxes of paper Fig. 1).

Two encodings cover the applications in the paper's introduction:

* :class:`Plaintext` — raw polynomial with coefficients in [0, t).
* :class:`BatchEncoder` — SIMD slot packing via the CRT over
  Z_t[x]/(x^n + 1) when t is an NTT-friendly prime. This is what makes
  the smart-meter forecasting example process thousands of readings in
  one ciphertext.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EncodingError, ParameterError
from ..nttmath.ntt import NegacyclicTransformer
from ..params import ParameterSet


@dataclass(frozen=True)
class Plaintext:
    """A plaintext polynomial: int64 coefficients reduced modulo t."""

    coeffs: np.ndarray
    t: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.int64) % self.t
        object.__setattr__(self, "coeffs", arr)

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_list(cls, coeffs, n: int, t: int) -> Plaintext:
        arr = np.zeros(n, dtype=np.int64)
        if len(coeffs) > n:
            raise EncodingError(f"{len(coeffs)} coefficients exceed degree {n}")
        arr[: len(coeffs)] = np.asarray(coeffs, dtype=np.int64)
        return cls(arr, t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Plaintext):
            return NotImplemented
        return self.t == other.t and np.array_equal(self.coeffs, other.coeffs)


class BatchEncoder:
    """SIMD batching: n plaintext slots per ciphertext.

    Requires t prime with t ≡ 1 (mod 2n) so that x^n + 1 splits into n
    linear factors over Z_t; encoding is then an inverse negacyclic NTT
    over Z_t and the homomorphic ring operations act slot-wise.
    """

    def __init__(self, params: ParameterSet) -> None:
        t = params.t
        if (t - 1) % (2 * params.n) != 0:
            raise ParameterError(
                f"batching needs t ≡ 1 (mod {2 * params.n}); t = {t} is not"
            )
        self.params = params
        self._transformer = NegacyclicTransformer(params.n, t)

    @property
    def slot_count(self) -> int:
        return self.params.n

    def encode(self, values) -> Plaintext:
        arr = np.zeros(self.params.n, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if len(values) > self.params.n:
            raise EncodingError(
                f"{len(values)} values exceed {self.params.n} slots"
            )
        arr[: len(values)] = values % self.params.t
        coeffs = self._transformer.inverse(arr)
        return Plaintext(coeffs, self.params.t)

    def decode(self, plain: Plaintext) -> np.ndarray:
        return self._transformer.forward(plain.coeffs)
