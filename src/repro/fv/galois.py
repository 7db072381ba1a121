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
from ..obs import maybe_span
from ..poly.rns_poly import RnsPoly
from .ciphertext import Ciphertext
from .keys import SecretKey
from .keyswitch import key_switch
from .sampler import discrete_gaussian, uniform_rns_rows
from .scheme import FvContext

#: Key-bundle label of the row-swapping conjugation key.
CONJUGATE = "conjugate"

#: Key-bundle label of the one composite key the summation ladder needs:
#: conjugation composed with the rotation by n/4 steps.
CONJUGATE_QUARTER = "conjugate_quarter"


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
    out = np.empty_like(rows)
    out[:, dest] = batch.to_residues(rows * sign, primes_col)
    return out


def canonical_steps(steps: int, n: int) -> int:
    """``steps`` reduced to the rotation group's order: 3 has order n/2
    modulo 2n, so ``steps`` and ``steps + n/2`` are the same rotation
    and 0 is the identity. Every key cache and step list keys on this."""
    return int(steps) % max(n // 2, 1)


def rotation_element(steps: int, n: int) -> int:
    """Galois element rotating the batching slots by ``steps``.

    Uses the generator 3 of the odd residues modulo 2n (standard BFV
    convention). The subgroup <3> has index 2, so the slots form a
    2 x (n/2) matrix: powers of 3 rotate within the two rows and the
    conjugation element (:func:`conjugation_element`) swaps the rows —
    exactly SEAL's rotate_rows / rotate_columns split.
    """
    return pow(3, canonical_steps(steps, n), 2 * n)


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


def summation_rounds(n: int) -> list[dict]:
    """The slot-summation schedule: per round, ``{label: element}`` of
    the key switches that share one digit decomposition.

    The slots form a 2 x (n/2) matrix under the Galois action, so the
    total is ``prod_g (1 + tau_g)`` over the generators rot 1, rot 2,
    ..., rot n/4 and the row-swapping conjugation. Generators are taken
    two at a time — ``(1 + tau_a)(1 + tau_b) = 1 + tau_a + tau_b +
    tau_ab``, a radix-4 round of three switches — and a trailing single
    generator is a radix-2 round. Labels are the key-bundle labels:
    rotation steps, :data:`CONJUGATE`, and :data:`CONJUGATE_QUARTER`
    for the one composite that is not a rotation.
    """
    generators = [(1 << k, rotation_element(1 << k, n))
                  for k in range((n // 2).bit_length() - 1)]
    generators.append((CONJUGATE, conjugation_element(n)))
    rounds = []
    for (label_a, g_a), (label_b, g_b) in zip(generators[::2],
                                              generators[1::2]):
        composite = (CONJUGATE_QUARTER if label_b == CONJUGATE
                     else label_a + label_b)
        rounds.append({label_a: g_a, label_b: g_b,
                       composite: g_a * g_b % (2 * n)})
    if len(generators) % 2:
        rounds.append(dict(generators[-1:]))
    return rounds


def summation_elements(n: int) -> dict:
    """``{label: element}`` of every key the summation schedule uses."""
    return {label: g for elements in summation_rounds(n)
            for label, g in elements.items()}


@dataclass
class GaloisKey:
    """Key-switch key for one Galois element (NTT domain, RNS digits):
    ``pairs`` rows are residue words, as a relinearisation key's."""

    element: int
    pairs: list[tuple[np.ndarray, np.ndarray]]


class GaloisEngine:
    """Automorphism application and slot rotation over one context."""

    def __init__(self, context: FvContext) -> None:
        self.context = context

    # -- key generation ---------------------------------------------------------

    def keygen(self, secret: SecretKey, g: int) -> GaloisKey:
        """Key encrypting q~_i q*_i * tau_g(s) for each q prime.

        Only the evaluation-domain ``a_i`` is ever stored, and uniform
        is uniform on either side of the NTT bijection, so it is drawn
        there; the ``e_i`` share one stacked forward transform.
        """
        context = self.context
        params = context.params
        _check_galois_element(g, params.n)
        basis = context.q_basis
        tau_s_ntt = context._ntt_rows(apply_galois_rows(
            secret.rns.residues, basis.primes_col, params.n, g))
        a_ntt = [uniform_rns_rows(context.rng, params.n, params.q_primes)
                 for _ in range(params.k_q)]
        e_ntt = context._ntt_rows(np.stack([
            context._small_poly_rows(
                discrete_gaussian(context.rng, params.n, params.sigma))
            for _ in range(params.k_q)
        ]))
        pairs = [(context._switch_key_row(q_tilde * q_star, tau_s_ntt, a,
                                          secret.ntt_rows, e), a)
                 for q_tilde, q_star, a, e in zip(
                     basis.q_tilde, basis.q_star, a_ntt, e_ntt, strict=True)]
        return GaloisKey(element=g, pairs=pairs)

    def rotation_keygen(self, secret: SecretKey,
                        steps_list) -> dict[int, GaloisKey]:
        """Keys for a set of rotation amounts (e.g. powers of two)."""
        n = self.context.params.n
        return {
            steps: self.keygen(secret, rotation_element(steps, n))
            for steps in steps_list
        }

    # -- homomorphic application -----------------------------------------------------

    def _tau(self, poly: RnsPoly, g: int) -> RnsPoly:
        """tau_g of one evaluation-domain part: a free column gather of
        its NTT evaluations."""
        return RnsPoly.trusted(
            self.context.q_basis,
            poly.residues[:, slot_permutation(self.context.params.n, g)],
            ntt_domain=True)

    def _c1_coefficients(self, ct: Ciphertext) -> np.ndarray:
        """c1's coefficient rows — what the raw-residue digits of every
        key switch decompose (one inverse transform)."""
        if ct.size != 2:
            raise ParameterError("apply_galois expects a 2-part ciphertext")
        ct.require_ntt("a Galois key switch")
        return self.context._intt_rows(ct.c1.residues)

    def apply(self, ct: Ciphertext, key: GaloisKey) -> Ciphertext:
        """tau_g on (c0, c1), key-switched back under s (the HEAX
        schedule).

        tau_g on c0 is a free column permutation of its NTT
        evaluations; only c1 is inverse-transformed (its raw-residue
        digits live in the coefficient domain). Fused WordDecomp + NTT
        on tau(c1)'s raw coefficient rows — one broadcast transform per
        digit row, outputs lazy in [0, 2q) — then the one
        :func:`~repro.fv.keyswitch.key_switch`, which adds the first
        accumulator into tau(c0). The accumulators are born in the
        evaluation domain and stay there: one inverse transform per
        rotation.
        """
        context = self.context
        params = context.params
        with maybe_span("keyswitch.decompose", kind="kernel"):
            tau_c1 = apply_galois_rows(self._c1_coefficients(ct),
                                       context.q_basis.primes_col, params.n,
                                       key.element)
            d_ntt = batch.ntt_broadcast_rows(params.q_primes, tau_c1,
                                             lazy=True)
        return key_switch(context, d_ntt, key.pairs,
                          (self._tau(ct.c0, key.element),))

    #: Ledger shim: benchmarks/ledger/probes.py times fv.rotate_ms by this name.
    apply_resident = apply

    def apply_many(self, ct: Ciphertext, keys: dict) -> dict:
        """Hoisted key switches: one digit transform shared by every
        key of ``keys`` (label -> key; results come back by label).

        Halevi–Shoup hoisting: the digit decomposition's broadcast
        forward NTT (one per digit row) depends only on c1, so it runs
        **once**; each rotation then costs a free column permutation of
        the shared digit evaluations (NTT(tau_g(x)) is NTT(x) gathered
        through :func:`slot_permutation`) plus the cheap
        multiply-accumulate fold against its own key.

        The permuted digits represent tau_g of each digit polynomial
        with *signed* coefficients — congruent mod every q_i to the
        non-negative digits :meth:`apply` decomposes, with the same
        (centred, slightly tighter) noise bound, so results are
        decrypt-equivalent to per-rotation application but not
        bit-identical to it.
        """
        context = self.context
        n = context.params.n
        with maybe_span("keyswitch.decompose", kind="kernel"):
            d_ntt = batch.ntt_broadcast_rows(
                context.params.q_primes, self._c1_coefficients(ct),
                lazy=True)
        return {
            label: key_switch(
                context,
                np.take(d_ntt, slot_permutation(n, key.element), axis=2),
                key.pairs, (self._tau(ct.c0, key.element),))
            for label, key in keys.items()
        }

    def sum_all_slots(self, ct: Ciphertext, keys: dict) -> Ciphertext:
        """Hoisted rotate-and-add: every slot ends up holding the total.

        One :meth:`apply_many` per round of
        :func:`summation_rounds`: the round's three key switches (one
        for a trailing radix-2 round) share a single digit
        decomposition — one inverse transform of c1 and one broadcast
        forward transform, the cost of a key switch — and their outputs
        are summed into the running result with one reduction (four
        canonical rows stay below 2^32). Build the key set with
        :meth:`repro.api.Session.summation_keys`. The worst-case noise
        is that of the one-generator-per-round ladder: a radix-4 round
        takes v to 4v + 3e, exactly what two v -> 2v + e rounds give.
        """
        context = self.context
        basis = context.q_basis
        schedule = summation_rounds(context.params.n)
        missing = {label for elements in schedule
                   for label in elements} - keys.keys()
        if missing:
            raise ParameterError(
                f"no summation key for {sorted(missing, key=str)}")
        result = ct
        for elements in schedule:
            switched = self.apply_many(
                result, {label: keys[label] for label in elements})
            terms = (result, *switched.values())
            result = Ciphertext(
                tuple(
                    RnsPoly.trusted(
                        basis,
                        sum(term.parts[i].residues for term in terms)
                        % basis.primes_col,
                        ntt_domain=True)
                    for i in range(2)
                ),
                context.params,
            )
        return result

    #: Ledger shim: benchmarks/ledger/probes.py times fv.sum_slots_ms by this name.
    sum_all_slots_resident = sum_all_slots
