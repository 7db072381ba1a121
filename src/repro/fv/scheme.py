"""FV context: key generation, encryption, decryption, additive ops.

Everything here computes in the RNS representation (Sec. III-B of the
paper); the exact big-integer route lives in :mod:`repro.fv.reference` and
is used by the tests to validate this module bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..nttmath.batch import count_roundtrip, intt_rows, ntt_rows
from ..obs import maybe_span
from ..params import ParameterSet
from ..poly.rns_poly import RnsPoly
from ..rns.basis import (
    basis_for,
    decrypt_context,
    lift_context,
    scale_context,
)
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
        self.delta_rows = self.decrypt_ctx.delta_col

    # -- helpers -------------------------------------------------------------------

    def _ntt_rows(self, residues: np.ndarray) -> np.ndarray:
        """Batched forward NTT over the q basis ((k, n) or (j, k, n))."""
        return ntt_rows(self.params.q_primes, residues)

    def _intt_rows(self, values: np.ndarray) -> np.ndarray:
        """Batched inverse NTT over the q basis ((k, n) or (j, k, n))."""
        return intt_rows(self.params.q_primes, values)

    def to_ntt_ct(self, ct: Ciphertext) -> Ciphertext:
        """NTT-resident copy of a ciphertext (per-part forward NTT).

        Already-resident parts are reused as-is, so repeated calls are
        free — this is what keeps :class:`~repro.api.backends.LocalBackend`
        chains in the evaluation domain.
        """
        if all(part.ntt_domain for part in ct.parts):
            return ct
        parts = tuple(
            part if part.ntt_domain else part.to_ntt() for part in ct.parts
        )
        return Ciphertext(parts, ct.params)

    def to_coeff_ct(self, ct: Ciphertext) -> Ciphertext:
        """Coefficient-domain copy of a ciphertext (per-part inverse NTT).

        Every conversion is recorded as a *round trip* on the
        transform instrument (:func:`~repro.nttmath.batch.count_roundtrip`):
        an NTT-resident operand forced back to coefficients is exactly
        the waste the resident executor exists to avoid, so a zero
        ``roundtrip_calls`` reading over a program run is the telemetry
        proof that the resident loop stayed closed.
        """
        resident = [part for part in ct.parts if part.ntt_domain]
        if not resident:
            return ct
        count_roundtrip(sum(part.residues.shape[0] for part in resident))
        parts = tuple(
            part.to_coeff() if part.ntt_domain else part
            for part in ct.parts
        )
        return Ciphertext(parts, ct.params)

    def _small_poly_rows(self, coeffs: np.ndarray) -> np.ndarray:
        """Residues of a polynomial with small signed coefficients."""
        return coeffs[None, :] % self.q_basis.primes_col

    # -- key generation --------------------------------------------------------------

    def keygen(self) -> KeySet:
        """Generate secret, public, and RNS relinearisation keys."""
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
        a_s = self._intt_rows(
            (a_ntt * s_ntt) % self.q_basis.primes_col
        )
        p0_rows = (-(a_s + e_rows)) % self.q_basis.primes_col
        public = PublicKey(
            p0=RnsPoly(self.q_basis, p0_rows),
            p1=RnsPoly(self.q_basis, a_rows),
            p0_ntt=self._ntt_rows(p0_rows),
            p1_ntt=a_ntt,
        )

        relin = self._relin_keygen(s_ntt)
        return KeySet(secret=secret, public=public, relin=relin,
                      basis=self.q_basis)

    def _relin_keygen(self, s_ntt: np.ndarray) -> RelinKey:
        """One key pair per q prime, encrypting (q~_i q*_i) * s^2.

        The RNS digits used at relinearisation time are the *raw residue
        rows* of c2 (each already < 2^30), so the CRT weights q~_i q*_i
        are folded into the key. This matches the paper's coprocessor,
        whose Table II shows no extra multiplications for WordDecomp —
        the decomposition is pure data movement.
        """
        basis = self.q_basis
        weights = [basis.q_tilde[i] * basis.q_star[i]
                   for i in range(self.params.k_q)]
        return RelinKey(pairs=self._key_pairs(s_ntt, weights))

    def _key_pairs(self, s_ntt: np.ndarray,
                   weights: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
        """One NTT-domain pair ``(b, a)`` per weight w, with ``b = w*s^2
        - a*s - e`` for fresh uniform ``a`` and Gaussian ``e`` (drawn in
        that order, one pair at a time) — the loop every relinearisation
        key variant shares; only the weights differ."""
        params = self.params
        primes_col = self.q_basis.primes_col
        s_sq_ntt = (s_ntt * s_ntt) % primes_col
        pairs = []
        for weight in weights:
            a_ntt = self._ntt_rows(
                uniform_rns_rows(self.rng, params.n, params.q_primes))
            e_ntt = self._ntt_rows(self._small_poly_rows(
                discrete_gaussian(self.rng, params.n, params.sigma)))
            weight_col = np.array(
                [weight % qj for qj in params.q_primes], dtype=np.int64,
            )[:, None]
            b_ntt = (weight_col * s_sq_ntt - a_ntt * s_ntt
                     - e_ntt) % primes_col
            pairs.append((b_ntt, a_ntt))
        return pairs

    def relin_keygen_grouped(self, secret: SecretKey,
                             group_size: int) -> GroupedRelinKey:
        """Grouped RNS relinearisation key (HPS digit grouping).

        Component j encrypts ``w_j * s^2`` with ``w_j = q~_j q*_j`` for
        the prime group Q_j; the digits at relinearisation time are the
        group residues ``[c2]_{Q_j}``. Groups of two 30-bit primes give
        60-bit digits and halve the component count — this is what keeps
        the Table V scaling at ~2.17x per doubling instead of the ~3.6x
        that per-prime digits would cost (see EXPERIMENTS.md).
        """
        from ..rns.decompose import grouped_reconstruction_weights
        from .keys import GroupedRelinKey

        weights = grouped_reconstruction_weights(self.q_basis, group_size)
        return GroupedRelinKey(pairs=self._key_pairs(secret.ntt_rows, weights),
                               group_size=group_size)

    def relin_keygen_digit(self, secret: SecretKey,
                           base_bits: int) -> DigitRelinKey:
        """Signed base-2^base_bits relinearisation key (Sec. II-B form).

        This is the variant the paper's slower, traditional-CRT
        coprocessor uses; it can pick the digit count freely (the paper
        uses two 90-bit digits — a "three times smaller" key than the
        HPS design's six components).
        """
        from .keys import DigitRelinKey

        q = self.params.q
        count = -(-q.bit_length() // base_bits)
        weights = [pow(2, base_bits * i, q) for i in range(count)]
        return DigitRelinKey(pairs=self._key_pairs(secret.ntt_rows, weights),
                             base_bits=base_bits)

    # -- encryption / decryption -------------------------------------------------------

    def encrypt(self, plain: Plaintext, public: PublicKey, *,
                resident: bool = False) -> Ciphertext:
        """FV.Encrypt with fresh randomness from the context RNG.

        With ``resident=True`` the ciphertext is born NTT-resident (see
        :meth:`encrypt_with`) — the entry point of the end-to-end
        resident pipeline.
        """
        params = self.params
        u = uniform_ternary(self.rng, params.n)
        e1 = discrete_gaussian(self.rng, params.n, params.sigma)
        e2 = discrete_gaussian(self.rng, params.n, params.sigma)
        return self.encrypt_with(plain, public, u, e1, e2,
                                 resident=resident)

    def encrypt_with(self, plain: Plaintext, public: PublicKey,
                     u: np.ndarray, e1: np.ndarray,
                     e2: np.ndarray, *,
                     resident: bool = False) -> Ciphertext:
        """Deterministic encryption from caller-supplied randomness.

        Exposed so tests can feed identical randomness to this RNS path
        and to the textbook big-integer path and compare ciphertexts
        bit-for-bit.

        ``resident=True`` keeps the public-key products in the
        evaluation domain: the masks ``p0*u`` / ``p1*u`` stay as the
        pointwise products the key material already lives in, and the
        noise/message terms join them through one stacked forward
        transform — so a fresh ciphertext is *born* NTT-resident with
        no inverse transform at all (three forward row-sets in one
        call, versus one forward plus two inverse on the legacy path).
        Because every transform is exact, converting the resident
        ciphertext back to the coefficient domain yields bit-for-bit
        the legacy ciphertext for the same randomness.
        """
        params = self.params
        if plain.t != params.t or plain.n != params.n:
            raise ParameterError("plaintext does not match the parameter set")
        primes_col = self.q_basis.primes_col
        e1_rows = self._small_poly_rows(np.asarray(e1))
        e2_rows = self._small_poly_rows(np.asarray(e2))
        m_rows = plain.coeffs[None, :] % primes_col
        delta_m = (self.delta_rows * m_rows) % primes_col
        u_rows = self._small_poly_rows(np.asarray(u))
        if resident:
            # One stacked forward transform for the mask polynomial and
            # both additive terms; the pk products never leave the
            # evaluation domain.
            u_ntt, x0_ntt, e2_ntt = self._ntt_rows(np.stack([
                u_rows,
                (e1_rows + delta_m) % primes_col,
                e2_rows,
            ]))
            c0 = (public.p0_ntt * u_ntt + x0_ntt) % primes_col
            c1 = (public.p1_ntt * u_ntt + e2_ntt) % primes_col
            return Ciphertext(
                (RnsPoly.trusted(self.q_basis, c0, ntt_domain=True),
                 RnsPoly.trusted(self.q_basis, c1, ntt_domain=True)),
                params,
            )
        u_ntt = self._ntt_rows(u_rows)
        # One stacked inverse transform for both mask polynomials.
        p0_u, p1_u = self._intt_rows(np.stack([
            (public.p0_ntt * u_ntt) % primes_col,
            (public.p1_ntt * u_ntt) % primes_col,
        ]))
        c0 = (p0_u + e1_rows + delta_m) % primes_col
        c1 = (p1_u + e2_rows) % primes_col
        return Ciphertext(
            (RnsPoly.trusted(self.q_basis, c0),
             RnsPoly.trusted(self.q_basis, c1)),
            params,
        )

    def decrypt(self, ct: Ciphertext, secret: SecretKey) -> Plaintext:
        return self.decrypt_with_noise(ct, secret)[0]

    def phase_rows(self, ct: Ciphertext, secret: SecretKey) -> np.ndarray:
        """Coefficient rows over q of ``w = c0 + c1*s (+ c2*s^2)``.

        Computed in the NTT domain per residue. NTT-resident parts skip
        their forward transform entirely — decrypting a resident result
        is cheaper than decrypting a coefficient-domain one — and the
        remaining coefficient-domain parts share one stacked batched
        call (the same gemm flow encryption uses).
        """
        primes_col = self.q_basis.primes_col
        pending = [i for i, part in enumerate(ct.parts)
                   if not part.ntt_domain]
        parts_ntt: dict[int, np.ndarray] = {
            i: ct.parts[i].residues for i in range(ct.size)
            if ct.parts[i].ntt_domain
        }
        if pending:
            transformed = self._ntt_rows(np.stack(
                [ct.parts[i].residues for i in pending]
            ))
            parts_ntt.update(zip(pending, transformed, strict=True))
        acc = parts_ntt[0]
        s_power = secret.ntt_rows
        for index in range(1, ct.size):
            acc = (acc + parts_ntt[index] * s_power) % primes_col
            s_power = (s_power * secret.ntt_rows) % primes_col
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

    def _align_domains(self, a: Ciphertext,
                       b: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        """Bring two ciphertexts into a common domain for linear ops.

        Mixed operands converge on the NTT domain (addition commutes
        with the transform), which keeps NTT-resident execution chains
        resident when a fresh coefficient-domain operand joins in.
        """
        a_resident = a.c0.ntt_domain
        b_resident = b.c0.ntt_domain
        if a_resident == b_resident:
            return a, b
        if a_resident:
            return a, self.to_ntt_ct(b)
        return self.to_ntt_ct(a), b

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """FV.Add: element-wise addition of ciphertext parts.

        Works in either domain (the NTT is linear); mixed-domain
        operands are aligned onto the NTT domain first.
        """
        if a.size != b.size:
            raise ParameterError("cannot add ciphertexts of different sizes")
        a, b = self._align_domains(a, b)
        parts = tuple(pa + pb for pa, pb in zip(a.parts, b.parts, strict=True))
        return Ciphertext(parts, self.params)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        if a.size != b.size:
            raise ParameterError("cannot subtract ciphertexts of different sizes")
        a, b = self._align_domains(a, b)
        parts = tuple(pa - pb for pa, pb in zip(a.parts, b.parts, strict=True))
        return Ciphertext(parts, self.params)

    def negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext(tuple(-p for p in a.parts), self.params)

    def delta_plain_rows(self, plain: Plaintext) -> np.ndarray:
        """Residue rows of ``Delta * m`` (what Encrypt/AddPlain embed)."""
        primes_col = self.q_basis.primes_col
        m_rows = plain.coeffs[None, :] % primes_col
        return (self.delta_rows * m_rows) % primes_col

    def plain_ntt_rows(self, plain: Plaintext) -> np.ndarray:
        """NTT rows of a plaintext polynomial (for MulPlain)."""
        primes_col = self.q_basis.primes_col
        return self._ntt_rows(plain.coeffs[None, :] % primes_col)

    def add_plain(self, a: Ciphertext, plain: Plaintext,
                  delta_m_ntt: np.ndarray | None = None) -> Ciphertext:
        """Add an unencrypted plaintext into a ciphertext (free operation).

        NTT-resident ciphertexts stay resident: ``Delta * m`` is added
        in the evaluation domain (``delta_m_ntt`` lets the session's
        plaintext-constant pool supply the transform).
        """
        primes_col = self.q_basis.primes_col
        if a.c0.ntt_domain:
            if delta_m_ntt is None:
                delta_m_ntt = self._ntt_rows(self.delta_plain_rows(plain))
            c0 = RnsPoly.trusted(
                self.q_basis,
                (a.c0.residues + delta_m_ntt) % primes_col,
                ntt_domain=True,
            )
        else:
            c0 = RnsPoly.trusted(
                self.q_basis,
                (a.c0.residues + self.delta_plain_rows(plain)) % primes_col,
            )
        return Ciphertext((c0,) + a.parts[1:], self.params)

    def mul_plain(self, a: Ciphertext, plain: Plaintext,
                  m_ntt: np.ndarray | None = None) -> Ciphertext:
        """Multiply a ciphertext by a plaintext polynomial (no relin needed).

        The product is computed in the NTT domain. Coefficient-domain
        inputs are transformed (one stacked call for all parts) and
        converted back, preserving the legacy contract; NTT-resident
        inputs stay resident and pay only the pointwise products —
        the big win of the NTT-resident executor, especially when
        ``m_ntt`` comes from the session's plaintext-constant pool.
        """
        primes_col = self.q_basis.primes_col
        if m_ntt is None:
            m_ntt = self.plain_ntt_rows(plain)
        resident = a.c0.ntt_domain
        stacked = np.stack([part.residues for part in a.parts])
        parts_ntt = stacked if resident else self._ntt_rows(stacked)
        products = (parts_ntt * m_ntt) % primes_col
        if resident:
            return Ciphertext(
                tuple(
                    RnsPoly.trusted(self.q_basis, products[i],
                                    ntt_domain=True)
                    for i in range(a.size)
                ),
                self.params,
            )
        coeff = self._intt_rows(products)
        return Ciphertext(
            tuple(
                RnsPoly.trusted(self.q_basis, coeff[i])
                for i in range(a.size)
            ),
            self.params,
        )
