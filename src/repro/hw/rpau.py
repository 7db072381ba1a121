"""Residue Polynomial Arithmetic Unit (paper Sec. V-A).

One RPAU serves one or two RNS primes (the paper pairs q_i with q_{i+6}
so seven RPAUs cover thirteen primes, Sec. V-A1). It bundles two
butterfly cores, the paired-word BRAM bank, and the coefficient-wise
datapaths. Instructions execute on *all* RPAUs of a batch in parallel, so
the instruction latency equals one RPAU's latency; the coprocessor holds
one :class:`Rpau` per hardware unit and routes residue rows to them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import HardwareModelError
from .config import HardwareConfig
from .ntt_unit import DualCoreNttUnit


class Rpau:
    """One residue polynomial arithmetic unit (paper Fig. 10, 'RPAU').

    ``strict=True`` routes every transform through the cycle-by-cycle,
    BRAM-port-checked executor instead of the vectorised one — identical
    results and cycle counts by construction (proven by the NTT unit
    tests), but every memory access of every instruction is then
    individually validated. Used by the end-to-end strict-mode tests on
    small rings.
    """

    def __init__(self, index: int, n: int, primes: tuple[int, ...],
                 config: HardwareConfig, strict: bool = False) -> None:
        if len(primes) not in (1, 2):
            raise HardwareModelError(
                "an RPAU is resource-shared by at most two primes"
            )
        self.index = index
        self.n = n
        self.primes = primes
        self.config = config
        self.strict = strict
        self._ntt_units = {
            prime: DualCoreNttUnit(n, prime, config) for prime in primes
        }

    def ntt_unit(self, prime: int) -> DualCoreNttUnit:
        if prime not in self._ntt_units:
            raise HardwareModelError(
                f"RPAU {self.index} does not serve prime {prime}"
            )
        return self._ntt_units[prime]

    # -- transforms ----------------------------------------------------------------

    def ntt(self, prime: int, row: np.ndarray) -> tuple[np.ndarray, int]:
        unit = self.ntt_unit(prime)
        if self.strict:
            return unit.run_strict(row, inverse=False)
        return unit.run_fast(row, inverse=False)

    def intt(self, prime: int, row: np.ndarray) -> tuple[np.ndarray, int]:
        unit = self.ntt_unit(prime)
        if self.strict:
            return unit.run_strict(row, inverse=True)
        return unit.run_fast(row, inverse=True)

    # -- coefficient-wise instruction datapaths ---------------------------------------
    #
    # Two coefficients per memory word; the two butterfly cores provide two
    # multipliers/adders, so the issue rate is one word (two coefficients)
    # per cycle: n/2 issue cycles per residue polynomial.

    def cmul_cycles(self) -> int:
        depth = self._ntt_units[self.primes[0]].butterflies[0].pipeline_depth
        return (self.n // 2) + depth + self.config.stage_sync_overhead

    def cadd_cycles(self) -> int:
        return ((self.n // 2) + self.config.addsub_stages
                + self.config.stage_sync_overhead)

    def rearrange_cycles(self) -> int:
        """Layout conversion (bit-reversal / pairing): one coefficient per
        cycle through the single permutation write port."""
        depth = self._ntt_units[self.primes[0]].butterflies[0].pipeline_depth
        return self.n + depth + self.config.stage_sync_overhead

    def cmul(self, prime: int, a: np.ndarray,
             b: np.ndarray) -> tuple[np.ndarray, int]:
        return (a * b) % prime, self.cmul_cycles()

    def cadd(self, prime: int, a: np.ndarray,
             b: np.ndarray) -> tuple[np.ndarray, int]:
        return (a + b) % prime, self.cadd_cycles()

    def csub(self, prime: int, a: np.ndarray,
             b: np.ndarray) -> tuple[np.ndarray, int]:
        return (a - b) % prime, self.cadd_cycles()


@lru_cache(maxsize=None)
def rpau_prime_assignment(k_q: int, k_total: int,
                          num_rpaus: int) -> tuple[tuple[int, ...], ...]:
    """Paper Sec. V-A1 mapping of prime indices onto RPAUs.

    RPAU r is resource-shared by q-prime r and extension prime k_q + r:
    for the paper's 6 + 7 primes on seven RPAUs this gives (q0, q6),
    (q1, q7), ..., (q5, q11) and q12 alone on the seventh RPAU. Batches
    then never co-schedule two primes of the same RPAU.
    """
    assignment = []
    for r in range(num_rpaus):
        indices = []
        if r < k_q:
            indices.append(r)
        second = k_q + r
        if second < k_total:
            indices.append(second)
        if not indices:
            raise HardwareModelError(
                f"RPAU {r} has no primes: too many RPAUs for {k_total} primes"
            )
        assignment.append(tuple(indices))
    return tuple(assignment)


def batch_rows(k_total: int, k_q: int, num_rpaus: int) -> list[list[int]]:
    """Row batches for an instruction over `k_total` residue rows.

    The paper computes the q basis (6 rows) in one batch on the first six
    RPAUs and the full basis in two batches: rows 0..5, then rows 6..12
    (Sec. V-A1). Generalised: consecutive slices of at most `num_rpaus`
    rows, aligned so the first batch is exactly the q rows when the
    matrix spans the full basis.
    """
    if k_total <= num_rpaus:
        return [list(range(k_total))]
    batches = [list(range(k_q))]
    row = k_q
    while row < k_total:
        batch = list(range(row, min(row + num_rpaus, k_total)))
        batches.append(batch)
        row += len(batch)
    return batches
