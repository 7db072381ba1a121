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
from ..parallel import map_bands
from ..poly.rns_poly import RnsPoly
from .ciphertext import Ciphertext
from .keys import SecretKey
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

    def _digit_ntt_rows(self, c1_rows: np.ndarray) -> np.ndarray:
        """Stacked forward NTT of the raw-residue digit decomposition.

        This is the expensive half of every keyswitch — and a function
        of the ciphertext alone, not of the Galois key, which is what
        :meth:`apply_many_resident` exploits to share it across a
        hoisted rotation group.
        """
        from ..nttmath import batch

        # Fused WordDecomp + NTT on the raw coefficient rows: all
        # digits share one stage-0 dgemm (apply_broadcast_many), and
        # the outputs stay lazy in [0, 2q) — the halved accumulation
        # window in :meth:`_fold_digit_pairs` absorbs the slack, so
        # the final conditional-subtract pass is skipped entirely.
        return batch.ntt_broadcast_rows(self.context.params.q_primes,
                                        c1_rows, lazy=True)

    def _key_switch_accumulators(self, tau_c1: np.ndarray,
                                 key: GaloisKey) -> tuple[np.ndarray,
                                                          np.ndarray]:
        """NTT-domain key-switch accumulators for coefficient rows.

        The raw-residue digits (each row of tau(c1) broadcast across
        the basis) go through one stacked forward transform; products
        of 30-bit residues accumulate lazily (they are < 2^60, so the
        whole q basis of at most eight primes sums within int64) and
        are reduced once.
        """
        return self._fold_digit_pairs(self._digit_ntt_rows(tau_c1), key)

    def _fold_digit_pairs(self, d_ntt: np.ndarray,
                          key: GaloisKey) -> tuple[np.ndarray,
                                                   np.ndarray]:
        """Fold NTT-domain digits against one key's (b, a) pairs."""
        primes_col = self.context.q_basis.primes_col
        acc0 = np.zeros_like(d_ntt[0])
        acc1 = np.zeros_like(d_ntt[0])

        def fold(c0: int, c1: int) -> None:
            # One channel band, same digit order and reduction window
            # as the serial loop — banding cannot change the result.
            pending = 0
            for i, (b_ntt, a_ntt) in enumerate(key.pairs):
                acc0[c0:c1] += d_ntt[i][c0:c1] * b_ntt[c0:c1]
                acc1[c0:c1] += d_ntt[i][c0:c1] * a_ntt[c0:c1]
                pending += 1
                # Lazy [0, 2q) digits double each summand, so the
                # window halves: q + 4 * 2q * q stays below 2^63.
                if pending == 4:
                    acc0[c0:c1] %= primes_col[c0:c1]
                    acc1[c0:c1] %= primes_col[c0:c1]
                    pending = 0
            if pending:
                acc0[c0:c1] %= primes_col[c0:c1]
                acc1[c0:c1] %= primes_col[c0:c1]

        map_bands("fold.band", fold, acc0.shape[0], work=d_ntt.size)
        return acc0, acc1

    def apply(self, ct: Ciphertext, key: GaloisKey) -> Ciphertext:
        """tau_g on a two-part ciphertext, key-switched back under s."""
        if ct.size != 2:
            raise ParameterError("apply_galois expects a 2-part ciphertext")
        context = self.context
        params = context.params
        primes_col = context.q_basis.primes_col
        ct = context.to_coeff_ct(ct)
        g = key.element
        tau_c0 = apply_galois_rows(ct.c0.residues, primes_col, params.n, g)
        tau_c1 = apply_galois_rows(ct.c1.residues, primes_col, params.n, g)
        # Key switch tau(c1) from tau(s) to s with raw-residue digits.
        acc0, acc1 = self._key_switch_accumulators(tau_c1, key)
        delta0, delta1 = context._intt_rows(np.stack([acc0, acc1]))
        c0 = RnsPoly.trusted(
            context.q_basis,
            (tau_c0 + delta0) % primes_col,
        )
        c1 = RnsPoly.trusted(context.q_basis, delta1)
        return Ciphertext((c0, c1), params)

    def apply_resident(self, ct: Ciphertext, key: GaloisKey) -> Ciphertext:
        """tau_g keeping the result NTT-resident (the HEAX schedule).

        tau_g on the resident c0 is a free column permutation of its
        NTT evaluations; only c1 is inverse-transformed (its raw-residue
        digits live in the coefficient domain), and the key-switch
        accumulators — already NTT-domain — are *not* transformed back.
        Per rotation that is one inverse transform instead of two, and
        chained rotations/additions stay in the evaluation domain
        end to end.
        """
        if ct.size != 2:
            raise ParameterError("apply_galois expects a 2-part ciphertext")
        context = self.context
        params = context.params
        primes_col = context.q_basis.primes_col
        n = params.n
        g = key.element
        c1_coeff = (context._intt_rows(ct.c1.residues)
                    if ct.c1.ntt_domain else ct.c1.residues)
        tau_c1 = apply_galois_rows(c1_coeff, primes_col, n, g)
        tau_c0_ntt = (
            ct.c0.residues[:, slot_permutation(n, g)]
            if ct.c0.ntt_domain
            else context._ntt_rows(
                apply_galois_rows(ct.c0.residues, primes_col, n, g)
            )
        )
        acc0, acc1 = self._key_switch_accumulators(tau_c1, key)
        c0 = RnsPoly.trusted(
            context.q_basis,
            (tau_c0_ntt + acc0) % primes_col,
            ntt_domain=True,
        )
        c1 = RnsPoly.trusted(context.q_basis, acc1, ntt_domain=True)
        return Ciphertext((c0, c1), params)

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
        if ct.size != 2:
            raise ParameterError("apply_galois expects a 2-part ciphertext")
        context = self.context
        params = context.params
        primes_col = context.q_basis.primes_col
        n = params.n
        c1_coeff = (context._intt_rows(ct.c1.residues)
                    if ct.c1.ntt_domain else ct.c1.residues)
        c0_ntt = (ct.c0.residues if ct.c0.ntt_domain
                  else context._ntt_rows(ct.c0.residues))
        d_ntt = self._digit_ntt_rows(c1_coeff)
        results: dict[int, Ciphertext] = {}
        for steps, key in keys_by_step.items():
            perm = slot_permutation(n, key.element)
            acc0, acc1 = self._fold_digit_pairs(
                np.ascontiguousarray(d_ntt[:, :, perm]), key
            )
            c0 = RnsPoly.trusted(
                context.q_basis,
                (c0_ntt[:, perm] + acc0) % primes_col,
                ntt_domain=True,
            )
            c1 = RnsPoly.trusted(context.q_basis, acc1, ntt_domain=True)
            results[steps] = Ciphertext((c0, c1), params)
        return results

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
