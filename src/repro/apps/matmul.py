"""Encrypted blocked matrix multiplication (the FAME workload shape).

Matrix products over encrypted operands are the canonical
rotation-heavy HE kernel: row i of A and column j of B are packed
slot-wise into ciphertexts in blocks of the inner dimension, each
block pair is multiplied element-wise, and a rotate-and-add ladder
(:func:`~repro.api.sum_slots`) collapses the block's slots into the
partial dot product:

    C[i][j] = sum over blocks K of sum_slots(a[i][K] * b[K][j])

Written naively — as this module deliberately does — every block pays
a relinearisation *and* a full log2(n) rotation ladder, so an entry
with ``nb`` inner blocks spends ``nb * (1 + rounds)`` keyswitches.
The :mod:`repro.optim` pass stack is built for exactly this shape:
rotation folding rewrites ``sum_slots(x) + sum_slots(y)`` into
``sum_slots(x + y)`` (one ladder per entry), and relinearisation
placement keeps the block products in raw three-part form through the
additions so one keyswitch relinearises the whole sum — ``1 + rounds``
keyswitches per entry regardless of ``nb``.

The server side is lazy expressions over ciphertext handles, like the
other apps: the same product compiles into an
:class:`~repro.api.HEProgram` that runs functionally or prices on the
simulated cluster, with or without the optimiser.
"""

from __future__ import annotations

from ..api.program import CiphertextHandle, HEProgram
from ..api.session import Session
from ..errors import ParameterError


class EncryptedMatmul:
    """Blocked matmul over two encrypted matrices.

    Construct with ``EncryptedMatmul(session)``; the session's
    parameters should batch (``t = 1 mod 2n``) so slot packing is
    element-wise. ``block_slots`` caps how many inner-dimension
    elements share one ciphertext (default: all ``n`` slots).
    """

    def __init__(self, session: Session, *,
                 block_slots: int | None = None) -> None:
        self.session = session
        n = self.session.params.n
        if block_slots is None:
            block_slots = n
        if not 1 <= block_slots <= n:
            raise ParameterError(
                f"block_slots must be in [1, {n}], got {block_slots}"
            )
        self.block_slots = block_slots

    # -- plaintext reference -------------------------------------------------------

    @staticmethod
    def reference(a: list[list[int]], b: list[list[int]],
                  t: int) -> list[list[int]]:
        """Plain ``A @ B mod t`` for verification."""
        inner = len(b)
        return [
            [sum(row[x] * b[x][j] for x in range(inner)) % t
             for j in range(len(b[0]))]
            for row in a
        ]

    # -- client side ---------------------------------------------------------------

    def _blocks(self, vector: list[int]) -> list[list[int]]:
        step = self.block_slots
        return [list(vector[i:i + step])
                for i in range(0, len(vector), step)]

    def encrypt_rows(self, matrix: list[list[int]]) -> list[list]:
        """Encrypt each matrix row as one ciphertext per inner block."""
        self._check(matrix)
        return [
            [self.session.encrypt(block) for block in self._blocks(row)]
            for row in matrix
        ]

    def encrypt_cols(self, matrix: list[list[int]]) -> list[list]:
        """Encrypt each matrix *column* as one ciphertext per block."""
        self._check(matrix)
        columns = [list(col) for col in zip(*matrix)]
        return [
            [self.session.encrypt(block) for block in self._blocks(col)]
            for col in columns
        ]

    def _check(self, matrix: list[list[int]]) -> None:
        if not matrix or not matrix[0]:
            raise ParameterError("matrices must be non-empty")
        width = len(matrix[0])
        if any(len(row) != width for row in matrix):
            raise ParameterError("matrix rows must have equal length")
        t = self.session.params.t
        if any(not 0 <= v < t for row in matrix for v in row):
            raise ParameterError(
                "matrix entries must lie in [0, t)"
            )

    # -- server side ----------------------------------------------------------------

    def entry_expr(self, row_blocks: list,
                   col_blocks: list) -> CiphertextHandle:
        """One output entry: the naive per-block ladder sum."""
        if len(row_blocks) != len(col_blocks):
            raise ParameterError("row/column block counts differ")
        entry = None
        for a, b in zip(row_blocks, col_blocks):
            term = (a * b).sum_slots()
            entry = term if entry is None else entry + term
        return entry

    def product_expr(self, rows: list[list],
                     cols: list[list]) -> list[list[CiphertextHandle]]:
        """All ``len(rows) x len(cols)`` entries as lazy expressions."""
        return [[self.entry_expr(row, col) for col in cols]
                for row in rows]

    def matmul_program(self, rows: list[list], cols: list[list], *,
                       optimize: bool = False) -> HEProgram:
        """Compile the full product; outputs are labelled ``c<i>_<j>``."""
        entries = self.product_expr(rows, cols)
        outputs = {
            f"c{i}_{j}": entry
            for i, row in enumerate(entries)
            for j, entry in enumerate(row)
        }
        return self.session.compile(outputs, name="encrypted-matmul",
                                    optimize=optimize)

    # -- client side again -----------------------------------------------------------

    def decrypt_entry(self, value) -> int:
        """Every slot of an entry ciphertext holds the dot product."""
        return int(self.session.decrypt(value)[0])
