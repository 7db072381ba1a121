"""Key material for the FV scheme.

There is one relinearisation key class: :class:`RelinKey` names the
:class:`~repro.rns.decompose.WordDecomp` it was generated for, and the
evaluator and the coprocessor model both read the digit style from it.
Its pairs are stored in the NTT domain exactly as the hardware keeps
them, so the SoP of Fig. 2 needs no forward transform of the key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..poly.rns_poly import RnsPoly
from ..rns.basis import RnsBasis
from ..rns.decompose import WordDecomp


@dataclass
class SecretKey:
    """Ternary secret polynomial s, kept in both raw and RNS forms."""

    coeffs: np.ndarray                    # ternary, int64, length n
    rns: RnsPoly                          # residues over the q basis
    ntt_rows: np.ndarray = field(repr=False, default=None)
    """Per-prime NTT of s, cached for fast decryption."""


@dataclass
class PublicKey:
    """Public key pair (p0, p1) with p0 = [-(a*s + e)]_q and p1 = a."""

    p0: RnsPoly
    p1: RnsPoly
    p0_ntt: np.ndarray = field(repr=False, default=None)
    p1_ntt: np.ndarray = field(repr=False, default=None)


@dataclass
class RelinKey:
    """Relinearisation key for one :class:`~repro.rns.decompose.WordDecomp`.

    ``pairs[j] = (b_j, a_j)`` are (k_q x n) NTT-domain residue matrices
    with ``b_j = [-(a_j s + e_j) + w_j s^2]_q``, w_j the decomposition's
    weight for digit j. Relinearisation computes ``c0 += sum_j D_j * b_j``
    and ``c1 += sum_j D_j * a_j`` over the digits D_j of c2. The default,
    raw residue rows, is the paper's HPS key: digit i is residue row i
    of c2 broadcast across the basis (the CRT weights live in the key)
    — six summands for six q-primes, matching its six-polynomial key.
    """

    pairs: list[tuple[np.ndarray, np.ndarray]]
    decomposition: WordDecomp = WordDecomp()

    @property
    def num_components(self) -> int:
        return len(self.pairs)


@dataclass
class KeySet:
    """Everything a client generates once per session."""

    secret: SecretKey
    public: PublicKey
    relin: RelinKey
    basis: RnsBasis
