"""Galois automorphisms and SIMD slot rotations (extension feature).

The paper's coprocessor implements Add and Mult; modern FV deployments
also use the Galois automorphisms x -> x^g to rotate the batching slots,
which turns "sum across a ciphertext's slots" into log2(n) rotate-and-add
steps. This module implements the full machinery — the coefficient
permutation, the key-switching keys (same RNS decomposition as
relinearisation, so the paper's datapath would run it unchanged), and
the slot-rotation algebra — as a documented extension of the reproduced
system.

Mathematics: in R = Z[x]/(x^n + 1), tau_g(a)(x) = a(x^g) for odd g is a
ring automorphism; coefficient i moves to position i*g mod 2n with a
sign flip when the result lands in [n, 2n). Batching slot j holds the
evaluation at psi^(2j+1), so tau_g permutes slots by
j -> ((g*(2j+1) mod 4n... precisely (g*(2j+1) mod 2n) - 1)/2. Applying
tau_g to a ciphertext yields an encryption of tau_g(m) under tau_g(s);
a key-switch with a key encrypting q~_i q*_i tau_g(s) brings it back
under s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ParameterError
from ..nttmath import batch
from ..poly.rns_poly import RnsPoly
from .ciphertext import Ciphertext
from .keys import SecretKey
from .keyswitch import key_switch
from .sampler import discrete_gaussian, uniform_rns_rows
from .scheme import FvContext


def _check_galois_element(g: int, n: int) -> None:
    if g % 2 == 0 or not 0 < g < 2 * n:
        raise ParameterError(
            f"Galois element must be odd in (0, {2 * n}); got {g}"
        )


def galois_index_maps(n: int, g: int) -> tuple[np.ndarray, np.ndarray]:
    """(destination index, sign) for every source coefficient index."""
    _check_galois_element(g, n)
    indices = np.arange(n, dtype=np.int64)
    raw = (indices * g) % (2 * n)
    dest = raw % n
    sign = np.where(raw < n, 1, -1).astype(np.int64)
    return dest, sign


def apply_galois_rows(rows: np.ndarray, primes_col: np.ndarray, n: int,
                      g: int) -> np.ndarray:
    """tau_g on a residue matrix: permute columns with sign flips."""
    dest, sign = galois_index_maps(n, g)
    out = np.zeros_like(rows)
    out[:, dest] = rows * sign
    return out % primes_col


def rotation_element(steps: int, n: int) -> int:
    """Galois element rotating the batching slots by ``steps``.

    Uses the generator 3 of the odd residues modulo 2n (standard BFV
    convention). The subgroup <3> has index 2, so the slots form a
    2 x (n/2) matrix: powers of 3 rotate within the two rows and the
    conjugation element (:func:`conjugation_element`) swaps the rows —
    exactly SEAL's rotate_rows / rotate_columns split.
    """
    steps %= n
    return pow(3, steps, 2 * n)


def conjugation_element(n: int) -> int:
    """The row-swapping Galois element 2n - 1 (x -> x^-1)."""
    return 2 * n - 1


def slot_permutation(n: int, g: int) -> np.ndarray:
    """perm with decode(tau_g(a))[j] == decode(a)[perm[j]].

    The same permutation moves *NTT evaluations*: position j of the
    forward transform holds a(psi^(2j+1)), and tau_g(a)(psi^(2j+1)) =
    a(psi^(g(2j+1))), so in the evaluation domain the automorphism is
    the free column gather ``values[:, perm]`` — the reason HEAX-style
    designs keep rotation chains NTT-resident. Cached per (n, g).
    """
    return _slot_permutation_cached(n, g)


@lru_cache(maxsize=None)
def _slot_permutation_cached(n: int, g: int) -> np.ndarray:
    _check_galois_element(g, n)
    j = np.arange(n, dtype=np.int64)
    source_odd = (g * (2 * j + 1)) % (2 * n)
    perm = (source_odd - 1) // 2
    perm.flags.writeable = False
    return perm


@dataclass
class GaloisKey:
    """Key-switch key for one Galois element (NTT domain, RNS digits)."""

    element: int
    pairs: list[tuple[np.ndarray, np.ndarray]]


class GaloisEngine:
    """Automorphism application and slot rotation over one context."""

    def __init__(self, context: FvContext) -> None:
        self.context = context

    # -- key generation ---------------------------------------------------------

    def keygen(self, secret: SecretKey, g: int) -> GaloisKey:
        """Key encrypting q~_i q*_i * tau_g(s) for each q prime."""
        context = self.context
        params = context.params
        _check_galois_element(g, params.n)
        primes_col = context.q_basis.primes_col
        s_rows = secret.rns.residues
        tau_s = apply_galois_rows(s_rows, primes_col, params.n, g)
        tau_s_ntt = context._ntt_rows(tau_s)
        s_ntt = secret.ntt_rows
        pairs = []
        for i in range(params.k_q):
            a_rows = uniform_rns_rows(context.rng, params.n,
                                      params.q_primes)
            a_ntt = context._ntt_rows(a_rows)
            e_rows = context._small_poly_rows(
                discrete_gaussian(context.rng, params.n, params.sigma)
            )
            e_ntt = context._ntt_rows(e_rows)
            weight = (context.q_basis.q_tilde[i]
                      * context.q_basis.q_star[i])
            weight_col = np.array(
                [weight % qj for qj in params.q_primes], dtype=np.int64,
            )[:, None]
            b_ntt = (weight_col * tau_s_ntt - a_ntt * s_ntt
                     - e_ntt) % primes_col
            pairs.append((b_ntt, a_ntt))
        return GaloisKey(element=g, pairs=pairs)

    def rotation_keygen(self, secret: SecretKey,
                        steps_list) -> dict[int, GaloisKey]:
        """Keys for a set of rotation amounts (e.g. powers of two)."""
        n = self.context.params.n
        return {
            steps: self.keygen(secret, rotation_element(steps, n))
            for steps in steps_list
        }

    def summation_keygen(self, secret: SecretKey) -> dict:
        """All keys :meth:`sum_all_slots_resident` needs: power-of-two
        row rotations plus the row-swapping conjugation."""
        n = self.context.params.n
        keys = self.rotation_keygen(
            secret, [1 << k for k in range((n // 2).bit_length() - 1)]
        )
        keys["conjugate"] = self.keygen(secret, conjugation_element(n))
        return keys

    # -- homomorphic application -----------------------------------------------------

    def _tau(self, poly: RnsPoly, g: int) -> RnsPoly:
        """tau_g of one part, in the domain it lives in: a free column
        gather of NTT evaluations, a signed permutation of
        coefficients."""
        n = self.context.params.n
        basis = self.context.q_basis
        if poly.ntt_domain:
            return RnsPoly.trusted(
                basis, poly.residues[:, slot_permutation(n, g)],
                ntt_domain=True)
        return RnsPoly.trusted(
            basis, apply_galois_rows(poly.residues, basis.primes_col, n, g))

    def _c1_coefficients(self, ct: Ciphertext) -> np.ndarray:
        """c1's coefficient rows — what the raw-residue digits of every
        key switch decompose (one inverse transform when resident)."""
        if ct.size != 2:
            raise ParameterError("apply_galois expects a 2-part ciphertext")
        return (self.context._intt_rows(ct.c1.residues)
                if ct.c1.ntt_domain else ct.c1.residues)

    def _apply(self, ct: Ciphertext, key: GaloisKey,
               resident: bool) -> Ciphertext:
        """tau_g on (c0, c1), key-switched back under s.

        Fused WordDecomp + NTT on tau(c1)'s raw coefficient rows — all
        digits share one stage-0 dgemm, outputs lazy in [0, 2q) — then
        the one :func:`~repro.fv.keyswitch.key_switch`, which adds the
        first accumulator into tau(c0) in the requested domain.
        """
        context = self.context
        params = context.params
        tau_c1 = apply_galois_rows(self._c1_coefficients(ct),
                                   context.q_basis.primes_col, params.n,
                                   key.element)
        d_ntt = batch.ntt_broadcast_rows(params.q_primes, tau_c1,
                                         lazy=True)
        return key_switch(context, d_ntt, key.pairs,
                          (self._tau(ct.c0, key.element),), resident)

    def apply(self, ct: Ciphertext, key: GaloisKey) -> Ciphertext:
        """tau_g on a two-part ciphertext, coefficient-domain result."""
        return self._apply(ct, key, resident=False)

    def apply_resident(self, ct: Ciphertext, key: GaloisKey) -> Ciphertext:
        """tau_g keeping the result NTT-resident (the HEAX schedule).

        tau_g on a resident c0 is a free column permutation of its NTT
        evaluations; only c1 is inverse-transformed (its raw-residue
        digits live in the coefficient domain), and the key-switch
        accumulators — already NTT-domain — are *not* transformed back.
        Per rotation that is one inverse transform instead of two, and
        chained rotations/additions stay in the evaluation domain
        end to end.
        """
        return self._apply(ct, key, resident=True)

    def apply_many_resident(self, ct: Ciphertext,
                            keys_by_step: dict[int, GaloisKey]
                            ) -> dict[int, Ciphertext]:
        """Hoisted rotations: one digit transform shared by every key.

        Halevi–Shoup hoisting: the digit decomposition's stacked
        forward NTT depends only on c1, so it runs **once**; each
        rotation then costs a free column permutation of the shared
        digit evaluations (NTT(tau_g(x)) is NTT(x) gathered through
        :func:`slot_permutation`) plus the cheap multiply-accumulate
        fold against its own key. Results are NTT-resident.

        The permuted digits represent tau_g of each digit polynomial
        with *signed* coefficients — congruent mod every q_i to the
        non-negative digits :meth:`apply_resident` decomposes, with the
        same (centred, slightly tighter) noise bound, so results are
        decrypt-equivalent to per-rotation application but not
        bit-identical to it.
        """
        context = self.context
        n = context.params.n
        d_ntt = batch.ntt_broadcast_rows(context.params.q_primes,
                                         self._c1_coefficients(ct), lazy=True)
        c0 = ct.c0 if ct.c0.ntt_domain else ct.c0.to_ntt()
        return {
            steps: key_switch(
                context,
                np.ascontiguousarray(
                    d_ntt[:, :, slot_permutation(n, key.element)]),
                key.pairs, (self._tau(c0, key.element),), resident=True)
            for steps, key in keys_by_step.items()
        }

    def rotate(self, ct: Ciphertext, steps: int,
               keys: dict[int, GaloisKey]) -> Ciphertext:
        if steps not in keys:
            raise ParameterError(f"no rotation key for {steps} steps")
        return self.apply(ct, keys[steps])

    def sum_all_slots_resident(self, ct: Ciphertext,
                               keys: dict) -> Ciphertext:
        """NTT-resident rotate-and-add: every slot ends up holding the
        total.

        The slots form a 2 x (n/2) matrix under the Galois action:
        log2(n/2) power-of-two row rotations sum within each row, then
        one conjugation folds the two rows together. Build the key set
        with :meth:`summation_keygen`. Every round's rotation output
        and addition stays in the evaluation domain, so the whole
        reduction performs no inverse transforms beyond the one per
        round that key-switching fundamentally needs.
        """
        n = self.context.params.n
        result = self.context.to_ntt_ct(ct)
        step = 1
        while step < n // 2:
            if step not in keys:
                raise ParameterError(f"no rotation key for {step} steps")
            rotated = self.apply_resident(result, keys[step])
            result = self.context.add(result, rotated)
            step *= 2
        conjugated = self.apply_resident(result, keys["conjugate"])
        return self.context.add(result, conjugated)
