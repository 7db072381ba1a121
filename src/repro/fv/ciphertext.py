"""Ciphertexts and their wire format.

A fresh FV ciphertext is a pair of R_q polynomials; multiplication before
relinearisation yields three parts. The serialised layout packs each
30-bit residue into a little-endian 32-bit word, coefficients contiguous
per residue row — the contiguous-DMA-friendly layout of paper Sec. V-D
(one R_q polynomial = 4096 x 6 x 4 = 98,304 bytes, the Table III transfer
size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..nttmath.batch import RESIDUE, intt_rows, ntt_rows
from ..params import ParameterSet
from ..poly.rns_poly import RnsPoly
from ..rns.basis import RnsBasis


@dataclass
class Ciphertext:
    """An FV ciphertext: two (or, pre-relinearisation, three) R_q parts.

    Every part lives in one domain. A two-part ciphertext lives in the
    evaluation (NTT) domain — encryption, every operation and the wire
    doors (:func:`repro.io.load_ciphertext`,
    :meth:`repro.api.Session.wrap`) produce it there. Coefficient parts
    are the three-part raw product (Scale's output, whose c2 WordDecomp
    reads) and the ``hw`` model's registers.
    """

    parts: tuple[RnsPoly, ...]
    params: ParameterSet

    def __post_init__(self) -> None:
        if len(self.parts) not in (2, 3):
            raise ParameterError("a ciphertext has two or three parts")
        degrees = {part.n for part in self.parts}
        if degrees != {self.params.n}:
            raise ParameterError("ciphertext parts must have degree n")
        if len({part.ntt_domain for part in self.parts}) != 1:
            raise ParameterError("ciphertext parts live in different domains")

    @property
    def size(self) -> int:
        return len(self.parts)

    @property
    def ntt_resident(self) -> bool:
        """True when the parts live in the evaluation (NTT) domain —
        every two-part ciphertext the engine makes does."""
        return self.c0.ntt_domain

    @property
    def domain(self) -> str:
        """Wire-format domain tag: ``"ntt"`` or ``"coeff"``."""
        return "ntt" if self.ntt_resident else "coeff"

    def require_ntt(self, op: str) -> None:
        """Refuse a coefficient-domain ciphertext where ``op`` reads
        evaluation-domain parts."""
        if not self.ntt_resident:
            raise ParameterError(
                f"{op} takes an evaluation-domain ciphertext; bring "
                f"coefficient parts in through Ciphertext.to_ntt()")

    def to_ntt(self) -> Ciphertext:
        """This ciphertext in the evaluation domain, its parts sharing
        one stacked forward transform (itself when already there)."""
        if self.ntt_resident:
            return self
        basis = self.c0.basis
        rows = ntt_rows(basis.primes,
                        np.stack([part.residues for part in self.parts]))
        return Ciphertext(
            tuple(RnsPoly.trusted(basis, r, ntt_domain=True) for r in rows),
            self.params)

    def to_coeff(self) -> Ciphertext:
        """This ciphertext in the coefficient domain, its parts sharing
        one stacked inverse transform (itself when already there): the
        form the ``hw`` model and the textbook reference work in."""
        if not self.ntt_resident:
            return self
        basis = self.c0.basis
        rows = intt_rows(basis.primes,
                         np.stack([part.residues for part in self.parts]))
        return Ciphertext(
            tuple(RnsPoly.trusted(basis, r) for r in rows), self.params)

    @property
    def c0(self) -> RnsPoly:
        return self.parts[0]

    @property
    def c1(self) -> RnsPoly:
        return self.parts[1]

    @property
    def c2(self) -> RnsPoly:
        if self.size < 3:
            raise ParameterError("ciphertext has no third part")
        return self.parts[2]

    def byte_size(self) -> int:
        """Serialised size in bytes (what the DMA actually moves)."""
        return self.size * self.params.poly_bytes

    # -- wire format -------------------------------------------------------------

    def to_wire_bytes(self) -> bytes:
        """Pack the residue payload of either domain.

        The byte layout is identical in both domains (canonical 30-bit
        residues in little-endian 32-bit words, coefficients contiguous
        per residue row); the *domain* travels in the versioned header
        :func:`repro.io.save_ciphertext` writes, so evaluation-domain
        ciphertexts persist without an inverse transform.
        """
        return b"".join(part.residues.tobytes() for part in self.parts)

    @classmethod
    def from_bytes(cls, blob: bytes, params: ParameterSet,
                   basis: RnsBasis,
                   ntt_domain: bool = False) -> Ciphertext:
        """Inverse of :meth:`to_wire_bytes` (two- or three-part blobs).

        ``ntt_domain=True`` marks every part as evaluation-domain —
        what :func:`repro.io.load_ciphertext` passes when the versioned
        header declares an NTT-domain payload. The blob comes from
        outside, so a word at or above its channel's prime is refused,
        not reduced.
        """
        part_bytes = params.poly_bytes
        if len(blob) % part_bytes:
            raise ParameterError("ciphertext blob has a partial polynomial")
        count = len(blob) // part_bytes
        if count not in (2, 3):
            raise ParameterError(f"blob holds {count} parts; expected 2 or 3")
        words = np.frombuffer(blob, RESIDUE).reshape(count, basis.size, params.n)
        if (words >= basis.primes_col).any():
            raise ParameterError("ciphertext blob holds a word at or above its prime")
        return cls(tuple(RnsPoly.trusted(basis, part, ntt_domain)
                         for part in words.copy()), params)
