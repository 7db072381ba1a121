"""Encrypted comparison and two-element sorting (paper Sec. III-A).

The paper lists "encrypted sorting etc." among the depth-4 applications.
The primitive underneath any oblivious sorting network is the
compare-and-swap on encrypted values; this module implements it for
k-bit integers encrypted bit-wise over t = 2:

* ``less_than`` — the standard ripple comparator
  ``lt_i = (1 - a_i) b_i  +  (1 - a_i - b_i)^2 * lt_{i-1}`` evaluated
  MSB-first; over F_2 the equality factor is ``1 + a_i + b_i`` and each
  bit level costs two multiplications (depth grows linearly in k — which
  is exactly why the paper's depth budget limits sorting to short
  values);
* ``compare_and_swap`` — min/max via the encrypted multiplexer
  ``min_i = lt * a_i + (1 - lt) * b_i`` (one more multiplication).

A 3-bit compare-and-swap therefore consumes depth 4: the largest
comparator the paper's parameter set supports, and a concrete
quantitative form of its "encrypted sorting" sizing remark.

The comparator speaks the :mod:`repro.api` facade — bits are opaque
ciphertext handles and the whole circuit stays a lazy expression graph
until something is decrypted (shared subterms like the running equality
chain are then computed once, not per use).
"""

from __future__ import annotations

from ..api.session import Session
from ..errors import ParameterError

#: Bits per compared value. less_than multiplies the running result by
#: the equality chain once per bit level, so its depth is ``BITS``; with
#: the mux level, a compare-and-swap fills the paper's depth-4 budget.
BITS = 3


class EncryptedComparator:
    """Bitwise comparator over per-bit FV ciphertexts (t = 2) of
    :data:`BITS`-bit values.

    Construct with ``EncryptedComparator(session)``.
    """

    def __init__(self, session: Session) -> None:
        self.session = session
        if self.session.params.t != 2:
            raise ParameterError("the comparator works over t = 2")

    # -- client side -------------------------------------------------------------

    def encrypt_value(self, value: int) -> list:
        """Encrypt a k-bit integer as k bit ciphertexts (LSB first)."""
        if not 0 <= value < (1 << BITS):
            raise ParameterError(
                f"value {value} does not fit in {BITS} bits"
            )
        return [
            self.session.encrypt([(value >> i) & 1])
            for i in range(BITS)
        ]

    def decrypt_value(self, bit_cts: list) -> int:
        value = 0
        for i, ct in enumerate(bit_cts):
            value |= self.decrypt_bit(ct) << i
        return value

    def decrypt_bit(self, ct) -> int:
        return int(self.session.decrypt(ct)[0])

    # -- homomorphic building blocks -----------------------------------------------

    def _not(self, ct):
        return ct + 1

    def _and(self, a, b):
        return a * b

    def _xor(self, a, b):
        return a + b

    def _xnor(self, a, b):
        return self._not(self._xor(a, b))

    # -- comparison ------------------------------------------------------------------

    def less_than(self, a: list, b: list):
        """Encrypted [a < b] for two bit-decomposed values (LSB first).

        MSB-first ripple: lt = (~a_k b_k) + eq_k * ( ... ), where over
        F_2 the XOR-accumulation is exact because at most one term of the
        standard OR can be 1 at a time.
        """
        if len(a) != BITS or len(b) != BITS:
            raise ParameterError(f"operands must have {BITS} bits")
        msb = BITS - 1
        # lt and eq for the most significant bit.
        lt = self._and(self._not(a[msb]), b[msb])
        eq = self._xnor(a[msb], b[msb])
        for i in range(msb - 1, -1, -1):
            bit_lt = self._and(self._not(a[i]), b[i])
            lt = self._xor(lt, self._and(eq, bit_lt))
            if i > 0:
                eq = self._and(eq, self._xnor(a[i], b[i]))
        return lt

    def multiplex(self, select, when_one: list, when_zero: list) -> list:
        """Bitwise mux: select * when_one + (1 - select) * when_zero.

        Over F_2: out = when_zero + select * (when_one - when_zero).
        """
        return [
            zero_bit + select * (one_bit - zero_bit)
            for one_bit, zero_bit in zip(when_one, when_zero, strict=True)
        ]

    def compare_and_swap(self, a: list, b: list):
        """Oblivious (min, max) — the cell of every sorting network."""
        a_lt_b = self.less_than(a, b)
        minimum = self.multiplex(a_lt_b, a, b)
        maximum = self.multiplex(a_lt_b, b, a)
        return minimum, maximum
