"""RNS-resident polynomials: the working format of evaluator and hardware.

An :class:`RnsPoly` is a (k x n) residue matrix plus its basis and a
domain flag (coefficient domain or NTT domain). It deliberately stays a
thin wrapper — the FV evaluator and the hardware simulator orchestrate the
underlying numpy arrays directly when they need to, and use this class at
API boundaries where the bookkeeping (basis identity, domain mixing)
prevents real bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..nttmath.batch import intt_rows, ntt_rows
from ..rns.basis import RnsBasis


@dataclass
class RnsPoly:
    """A polynomial resident in an RNS basis.

    Attributes:
        basis: the RNS basis the residues live in.
        n: ring degree.
        residues: int64 matrix of shape (basis.size, n).
        ntt_domain: True when rows hold NTT evaluations, False for
            coefficients.
    """

    basis: RnsBasis
    residues: np.ndarray
    ntt_domain: bool = False

    def __post_init__(self) -> None:
        self.residues = np.asarray(self.residues, dtype=np.int64)
        if self.residues.ndim != 2:
            raise ParameterError("residues must be a 2-D matrix")
        if self.residues.shape[0] != self.basis.size:
            raise ParameterError(
                f"residue matrix rows ({self.residues.shape[0]}) do not "
                f"match basis size ({self.basis.size})"
            )
        # Reduce into a fresh array: ``%=`` would mutate the *caller's*
        # array in place whenever ``np.asarray`` returned its input
        # unchanged (the aliasing regression test pins this down).
        self.residues = self.residues % self.basis.primes_col

    # -- constructors ---------------------------------------------------------

    @classmethod
    def trusted(cls, basis: RnsBasis, residues: np.ndarray,
                ntt_domain: bool = False) -> RnsPoly:
        """Adopt an already-reduced (size x n) int64 matrix without copying.

        Hot-path constructor for internal call sites whose arithmetic
        already produced canonical residues — it skips the defensive
        reduction (and its allocation) of the public constructor. The
        caller must guarantee shape, dtype, entries in [0, q_i), and
        exclusive ownership of ``residues``.
        """
        poly = object.__new__(cls)
        poly.basis = basis
        poly.residues = residues
        poly.ntt_domain = ntt_domain
        return poly

    # -- properties -----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.residues.shape[1]

    def copy(self) -> RnsPoly:
        return RnsPoly.trusted(self.basis, self.residues.copy(),
                               self.ntt_domain)

    # -- conversions ------------------------------------------------------------

    def to_int_coeffs(self) -> list[int]:
        """Exact CRT reconstruction to [0, modulus) coefficients."""
        self._require_coeff_domain("to_int_coeffs")
        return self.basis.reconstruct_coeffs(self.residues)

    def to_ntt(self) -> RnsPoly:
        """Forward NTT on every residue row (batched over all limbs)."""
        self._require_coeff_domain("to_ntt")
        return RnsPoly.trusted(
            self.basis, ntt_rows(self.basis.primes, self.residues),
            ntt_domain=True,
        )

    def to_coeff(self) -> RnsPoly:
        """Inverse NTT on every residue row (batched over all limbs)."""
        if not self.ntt_domain:
            return self.copy()
        return RnsPoly.trusted(
            self.basis, intt_rows(self.basis.primes, self.residues),
            ntt_domain=False,
        )

    # -- arithmetic --------------------------------------------------------------

    def _assert_compatible(self, other: RnsPoly) -> None:
        if self.basis is not other.basis and (
            self.basis.primes != other.basis.primes
        ):
            raise ParameterError("operands live in different RNS bases")
        if self.ntt_domain != other.ntt_domain:
            raise ParameterError("operands live in different domains")
        if self.n != other.n:
            raise ParameterError("operands have different degrees")

    def _require_coeff_domain(self, op: str) -> None:
        if self.ntt_domain:
            raise ParameterError(f"{op} requires the coefficient domain")

    def __add__(self, other: RnsPoly) -> RnsPoly:
        self._assert_compatible(other)
        return RnsPoly.trusted(
            self.basis,
            (self.residues + other.residues) % self.basis.primes_col,
            self.ntt_domain,
        )

    def __sub__(self, other: RnsPoly) -> RnsPoly:
        self._assert_compatible(other)
        return RnsPoly.trusted(
            self.basis,
            (self.residues - other.residues) % self.basis.primes_col,
            self.ntt_domain,
        )

    def __neg__(self) -> RnsPoly:
        return RnsPoly.trusted(
            self.basis,
            (-self.residues) % self.basis.primes_col,
            self.ntt_domain,
        )

    def multiply(self, other: RnsPoly) -> RnsPoly:
        """Negacyclic product via batched NTT (both in coefficient domain)."""
        self._assert_compatible(other)
        self._require_coeff_domain("multiply")
        primes = self.basis.primes
        fa, fb = ntt_rows(primes, np.stack([self.residues, other.residues]))
        product = (fa * fb) % self.basis.primes_col
        return RnsPoly.trusted(
            self.basis, intt_rows(primes, product), ntt_domain=False
        )

    def scalar_mul(self, scalar: int) -> RnsPoly:
        cols = np.array(
            [scalar % p for p in self.basis.primes], dtype=np.int64
        )[:, None]
        return RnsPoly.trusted(
            self.basis,
            (self.residues * cols) % self.basis.primes_col,
            self.ntt_domain,
        )
