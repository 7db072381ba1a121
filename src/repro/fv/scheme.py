"""FV context: key generation, encryption, decryption, additive ops.

Everything here computes in the RNS representation (Sec. III-B of the
paper); the exact big-integer route lives in :mod:`repro.fv.reference` and
is used by the tests to validate this module bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..nttmath.batch import add_mod, intt_rows, mul_mod, ntt_rows, sub_mod, to_residues
from ..obs import maybe_span
from ..params import ParameterSet
from ..poly.rns_poly import RnsPoly
from ..rns.basis import (
    basis_for,
    decrypt_context,
    lift_context,
    scale_context,
)
from ..rns.decompose import WordDecomp
from ..rns.decrypt import noise_norm, scale_to_t
from .ciphertext import Ciphertext
from .encoder import Plaintext
from .keys import KeySet, PublicKey, RelinKey, SecretKey
from .sampler import discrete_gaussian, uniform_rns_rows, uniform_ternary


class FvContext:
    """Instantiated FV scheme over one parameter set.

    Holds the RNS bases, ring contexts, and the lift/scale contexts shared
    by every operation. A context is deterministic given its seed, which
    keeps every test and benchmark reproducible.
    """

    def __init__(self, params: ParameterSet, seed: int = 2019) -> None:
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.q_basis = basis_for(params.q_primes)
        self.p_basis = basis_for(params.p_primes)
        self.full_basis = basis_for(params.q_primes + params.p_primes)
        self.lift_ctx = lift_context(params.q_primes,
                                     params.q_primes + params.p_primes)
        self.scale_ctx = scale_context(params.q_primes, params.p_primes,
                                       params.t)
        self.decrypt_ctx = decrypt_context(params.q_primes, params.t)

    # -- helpers -------------------------------------------------------------------

    def _ntt_rows(self, residues: np.ndarray) -> np.ndarray:
        """Batched forward NTT over the q basis ((k, n) or (j, k, n))."""
        return ntt_rows(self.params.q_primes, residues)

    def _intt_rows(self, values: np.ndarray) -> np.ndarray:
        """Batched inverse NTT over the q basis ((k, n) or (j, k, n))."""
        return intt_rows(self.params.q_primes, values)

    def _small_poly_rows(self, coeffs: np.ndarray) -> np.ndarray:
        """Residues of a polynomial with small signed coefficients."""
        return to_residues(coeffs[None, :], self.q_basis.primes_col)

    def _switch_key_row(self, weight: int, target_ntt: np.ndarray,
                        a_ntt: np.ndarray, s_ntt: np.ndarray,
                        e_ntt: np.ndarray) -> np.ndarray:
        """``b = w * target - a * s - e`` in the evaluation domain, the
        ``b`` row of one key-switch pair: a relinearisation key's
        ``target`` is s^2, a Galois key's tau(s). The products widen to
        int64 and one reduction stores ``b``."""
        weight_col = self.q_basis.residues_of(weight)[:, None]
        return to_residues(
            np.multiply(weight_col, target_ntt, dtype=np.int64)
            - np.multiply(a_ntt, s_ntt, dtype=np.int64) - e_ntt,
            self.q_basis.primes_col)

    # -- key generation --------------------------------------------------------------

    def keygen(self) -> KeySet:
        """Generate secret, public, and (raw-residue-row) relinearisation
        keys."""
        params = self.params
        n = params.n
        s_coeffs = uniform_ternary(self.rng, n)
        s_rows = self._small_poly_rows(s_coeffs)
        s_ntt = self._ntt_rows(s_rows)
        secret = SecretKey(
            coeffs=s_coeffs,
            rns=RnsPoly(self.q_basis, s_rows),
            ntt_rows=s_ntt,
        )

        a_rows = uniform_rns_rows(self.rng, n, params.q_primes)
        e_rows = self._small_poly_rows(
            discrete_gaussian(self.rng, n, params.sigma)
        )
        a_ntt = self._ntt_rows(a_rows)
        primes_col = self.q_basis.primes_col
        a_s = self._intt_rows(mul_mod(a_ntt, s_ntt, primes_col))
        p0_rows = sub_mod(0, add_mod(a_s, e_rows, primes_col), primes_col)
        public = PublicKey(
            p0=RnsPoly(self.q_basis, p0_rows),
            p1=RnsPoly(self.q_basis, a_rows),
            p0_ntt=self._ntt_rows(p0_rows),
            p1_ntt=a_ntt,
        )
        return KeySet(secret=secret, public=public,
                      relin=self.relin_keygen(secret), basis=self.q_basis)

    def relin_keygen(self, secret: SecretKey,
                     decomposition: WordDecomp = WordDecomp()) -> RelinKey:
        """The relinearisation key for one WordDecomp: an NTT-domain
        pair ``(b, a)`` per digit weight w, ``b = w*s^2 - a*s - e`` for
        fresh uniform ``a`` and Gaussian ``e`` (drawn in that order, one
        pair at a time).

        The default, raw residue rows, is the paper's HPS key: the CRT
        weights q~_i q*_i are folded into the key, matching its Table II,
        which shows no extra multiplications for WordDecomp. A
        decomposition with a single digit is refused: its digit is as
        large as q, and so is the key error it multiplies.
        """
        params = self.params
        weights = decomposition.weights(self.q_basis)
        if len(weights) < 2:
            raise ParameterError(
                f"{decomposition} has a single digit over a "
                f"{params.q.bit_length()}-bit q: its key error would be "
                f"scaled by ~q, so it can never relinearise")
        s_ntt = secret.ntt_rows
        s_sq_ntt = mul_mod(s_ntt, s_ntt, self.q_basis.primes_col)
        pairs = []
        for weight in weights:
            a_ntt = self._ntt_rows(
                uniform_rns_rows(self.rng, params.n, params.q_primes))
            e_ntt = self._ntt_rows(self._small_poly_rows(
                discrete_gaussian(self.rng, params.n, params.sigma)))
            pairs.append((self._switch_key_row(weight, s_sq_ntt, a_ntt,
                                               s_ntt, e_ntt), a_ntt))
        return RelinKey(pairs, decomposition)

    # -- encryption / decryption -------------------------------------------------------

    def encrypt(self, plain: Plaintext, public: PublicKey, *,
                resident: object = None) -> Ciphertext:
        """FV.Encrypt with fresh randomness from the context RNG, born
        in the evaluation domain (see :meth:`encrypt_with`).

        ``resident`` is a ledger shim, accepted and ignored:
        benchmarks/ledger/probes.py still passes it.
        """
        params = self.params
        u = uniform_ternary(self.rng, params.n)
        e1 = discrete_gaussian(self.rng, params.n, params.sigma)
        e2 = discrete_gaussian(self.rng, params.n, params.sigma)
        return self.encrypt_with(plain, public, u, e1, e2)

    def encrypt_with(self, plain: Plaintext, public: PublicKey,
                     u: np.ndarray, e1: np.ndarray,
                     e2: np.ndarray) -> Ciphertext:
        """Deterministic encryption from caller-supplied randomness.

        Exposed so tests can feed identical randomness to this RNS path
        and to the textbook big-integer path
        (:class:`~repro.fv.reference.TextbookFv`) and compare
        ciphertexts bit-for-bit.

        The ciphertext is born in the evaluation domain: the masks
        ``p0*u`` / ``p1*u`` stay as the pointwise products the public
        key already lives in, and the mask polynomial and the
        noise/message terms share one stacked forward transform —
        three forward row-sets, no inverse transform.
        """
        params = self.params
        if plain.t != params.t or plain.n != params.n:
            raise ParameterError("plaintext does not match the parameter set")
        primes_col = self.q_basis.primes_col
        u_ntt, x0_ntt, e2_ntt = self._ntt_rows(np.stack([
            self._small_poly_rows(np.asarray(u)),
            add_mod(self._small_poly_rows(np.asarray(e1)),
                    self.delta_plain_rows(plain), primes_col),
            self._small_poly_rows(np.asarray(e2)),
        ]))
        c0 = to_residues(np.multiply(public.p0_ntt, u_ntt, dtype=np.int64)
                         + x0_ntt, primes_col)
        c1 = to_residues(np.multiply(public.p1_ntt, u_ntt, dtype=np.int64)
                         + e2_ntt, primes_col)
        return Ciphertext(
            (RnsPoly.trusted(self.q_basis, c0, ntt_domain=True),
             RnsPoly.trusted(self.q_basis, c1, ntt_domain=True)),
            params,
        )

    def decrypt(self, ct: Ciphertext, secret: SecretKey) -> Plaintext:
        return self.decrypt_with_noise(ct, secret)[0]

    def phase_rows(self, ct: Ciphertext, secret: SecretKey) -> np.ndarray:
        """Coefficient rows over q of ``w = c0 + c1*s (+ c2*s^2)``.

        Computed in the NTT domain per residue: an evaluation-domain
        ciphertext enters as it is, a coefficient-domain one (a
        three-part raw product, an ``hw`` result) through one stacked
        forward transform.
        """
        primes_col = self.q_basis.primes_col
        parts = [part.residues for part in ct.to_ntt().parts]
        acc = parts[0]
        s_power = secret.ntt_rows
        for part in parts[1:]:
            acc = to_residues(
                np.multiply(part, s_power, dtype=np.int64) + acc, primes_col)
            s_power = mul_mod(s_power, secret.ntt_rows, primes_col)
        return self._intt_rows(acc)

    def decrypt_with_noise(self, ct: Ciphertext,
                           secret: SecretKey) -> tuple[Plaintext, int]:
        """Decrypt and also report the infinity norm of the noise term.

        Both results are exact and never leave residues: the plaintext
        is the Scale unit pointed at t, the noise one mixed-radix
        conversion (:mod:`repro.rns.decrypt`; the multiprecision oracle
        is :func:`repro.fv.reference.decrypt_with_noise_bigint`). The
        noise norm drives :func:`repro.fv.noise.noise_budget_bits` and
        the depth experiments.
        """
        with maybe_span("decrypt.phase", kind="kernel"):
            w_rows = self.phase_rows(ct, secret)
        with maybe_span("decrypt.scale_to_t", kind="kernel"):
            m = scale_to_t(self.decrypt_ctx, w_rows)
        with maybe_span("decrypt.noise", kind="kernel"):
            noise = noise_norm(self.decrypt_ctx, w_rows, m)
        return Plaintext(m, self.params.t), noise

    # -- additive homomorphic operations -----------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """FV.Add: element-wise addition of ciphertext parts (the NTT is
        linear, so it runs in whichever domain both operands share)."""
        if a.size != b.size:
            raise ParameterError("cannot add ciphertexts of different sizes")
        parts = tuple(pa + pb for pa, pb in zip(a.parts, b.parts, strict=True))
        return Ciphertext(parts, self.params)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        if a.size != b.size:
            raise ParameterError("cannot subtract ciphertexts of different sizes")
        parts = tuple(pa - pb for pa, pb in zip(a.parts, b.parts, strict=True))
        return Ciphertext(parts, self.params)

    def negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext(tuple(-p for p in a.parts), self.params)

    def delta_plain_rows(self, plain: Plaintext) -> np.ndarray:
        """Residue rows of ``Delta * m`` (what Encrypt/AddPlain embed)."""
        m_rows = self._small_poly_rows(plain.coeffs)
        return mul_mod(self.decrypt_ctx.delta_col, m_rows, self.q_basis.primes_col)

    def plain_ntt_rows(self, plain: Plaintext) -> np.ndarray:
        """NTT rows of a plaintext polynomial (for MulPlain)."""
        return self._ntt_rows(self._small_poly_rows(plain.coeffs))

    def add_plain(self, a: Ciphertext, plain: Plaintext,
                  delta_m_ntt: np.ndarray | None = None) -> Ciphertext:
        """Add an unencrypted plaintext into a ciphertext (free operation).

        ``Delta * m`` is added in the evaluation domain (``delta_m_ntt``
        lets the session's plaintext-constant pool supply its
        transform).
        """
        a.require_ntt("add_plain")
        if delta_m_ntt is None:
            delta_m_ntt = self._ntt_rows(self.delta_plain_rows(plain))
        c0 = RnsPoly.trusted(
            self.q_basis,
            add_mod(a.c0.residues, delta_m_ntt, self.q_basis.primes_col),
            ntt_domain=True,
        )
        return Ciphertext((c0,) + a.parts[1:], self.params)

    def mul_plain(self, a: Ciphertext, plain: Plaintext,
                  m_ntt: np.ndarray | None = None) -> Ciphertext:
        """Multiply a ciphertext by a plaintext polynomial (no relin needed).

        Pointwise products in the evaluation domain, where the
        ciphertext lives; ``m_ntt`` lets the session's plaintext-constant
        pool supply the plaintext's transform.
        """
        a.require_ntt("mul_plain")
        if m_ntt is None:
            m_ntt = self.plain_ntt_rows(plain)
        return Ciphertext(
            tuple(
                RnsPoly.trusted(self.q_basis,
                                mul_mod(part.residues, m_ntt,
                                        self.q_basis.primes_col),
                                ntt_domain=True)
                for part in a.parts
            ),
            self.params,
        )
