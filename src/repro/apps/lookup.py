"""Private information retrieval / encrypted search (paper Sec. III-A).

The paper lists "private information retrieval or encrypted search in a
table of 2^16 entries" among the depth-4 applications. This module
implements the standard PIR-by-selection-product protocol:

* the client encrypts its index *bitwise* (k ciphertexts for a 2^k
  table);
* the server computes, for every entry e, the selector
  ``sel(e) = prod_j (b_j if e_j = 1 else 1 - b_j)`` — a product of k
  encrypted bits, evaluated as a balanced tree of depth ceil(log2 k);
* the reply is ``sum_e sel(e) * T[e]`` (plaintext-weighted sum).

A 16-entry table needs k = 4 index bits and multiplicative depth 2,
comfortably inside the paper's depth-4 budget; a 2^16-entry table needs
k = 16 and depth 4 — exactly the sizing claim of Sec. III-A.

The server side is written against the :mod:`repro.api` facade: the
reply is a *lazy expression* over ciphertext handles, so the same
lookup compiles to an :class:`~repro.api.HEProgram` that either runs
functionally or replays against the simulated serving cluster
(:meth:`EncryptedLookupTable.lookup_program`).
"""

from __future__ import annotations

from ..api.program import CiphertextHandle, HEProgram
from ..api.session import Session
from ..errors import ParameterError


def selection_depth(table_size: int) -> int:
    """Multiplicative depth of the selector tree for a table of this size."""
    bits = max(1, (table_size - 1).bit_length())
    return max(1, (bits - 1).bit_length()) if bits > 1 else 0


class EncryptedLookupTable:
    """Server holding a public table, queried with encrypted indices.

    Construct with ``EncryptedLookupTable(session, table)``.
    """

    def __init__(self, session: Session, table: list[int]) -> None:
        self.session = session
        if self.session.params.t <= max(table, default=0):
            raise ParameterError(
                "table values must fit below the plaintext modulus"
            )
        size = len(table)
        if size & (size - 1) or size < 2:
            raise ParameterError("table size must be a power of two >= 2")
        self.table = list(table)
        self.index_bits = (size - 1).bit_length()

    # -- client side ---------------------------------------------------------------

    def encrypt_index(self, index: int) -> list:
        """Encrypt each index bit in its own ciphertext (constant slot)."""
        if not 0 <= index < len(self.table):
            raise ParameterError(f"index {index} outside the table")
        return [
            self.session.encrypt([(index >> j) & 1])
            for j in range(self.index_bits)
        ]

    # -- server side ----------------------------------------------------------------

    def _product_tree(self,
                      factors: list[CiphertextHandle]) -> CiphertextHandle:
        """Balanced multiplication tree (minimises depth)."""
        layer = factors
        while len(layer) > 1:
            next_layer = [
                layer[i] * layer[i + 1]
                for i in range(0, len(layer) - 1, 2)
            ]
            if len(layer) % 2:
                next_layer.append(layer[-1])
            layer = next_layer
        return layer[0]

    def reply_expr(self, index_bits: list) -> CiphertextHandle:
        """The PIR reply as a lazy expression: sum_e sel(e) * T[e]."""
        if len(index_bits) != self.index_bits:
            raise ParameterError(
                f"expected {self.index_bits} encrypted index bits"
            )
        # Build each negated bit once so every table entry shares the
        # same subexpression node (the graph dedups by identity).
        negated = [1 - b for b in index_bits]
        reply = None
        for entry, value in enumerate(self.table):
            factors = [
                index_bits[j] if (entry >> j) & 1 else negated[j]
                for j in range(self.index_bits)
            ]
            weighted = self._product_tree(factors) * value
            reply = weighted if reply is None else reply + weighted
        return reply

    def lookup_program(self, index_bits: list) -> HEProgram:
        """Compile one lookup into a backend-agnostic program."""
        return self.session.compile(self.reply_expr(index_bits),
                                    name="encrypted-lookup")
