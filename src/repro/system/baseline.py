"""Software baseline: FV-NFLlib on an Intel i5 (paper Sec. VI-E).

The paper's headline compares its FPGA against the highly optimised
single-threaded FV-NFLlib implementation of Bos et al. [4] on an Intel
i5-3427U at 1.8 GHz: 33 ms per Mult and 0.1 ms per Add for the same
parameter set.

We cannot run NFLlib (no such hardware, no network), so the baseline is
an *instrumented cost model*: :func:`count_mult_operations` counts the
primitive modular operations the RNS-HPS multiplication performs for a
parameter set — the same dataflow our own evaluator executes — and a
per-operation cycle constant maps counts to time. The constant
(~10 cycles per modular multiplication) is calibrated once against the
33 ms NFLlib datapoint and is consistent with AVX2 Barrett/NTT kernels
of that era; the *shape* over parameter sets then follows from the
counts, not from the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from ..params import ParameterSet

#: Calibrated against NFLlib's 33 ms Mult at (n=4096, 6+7 primes): the
#: operation census of that configuration is ~5.8M modmuls + ~7.1M
#: modadds, and 5.7 cycles per vectorised modular multiplication lands on
#: the measured 33 ms (consistent with AVX2 Barrett/NTT kernels).
I5_CYCLES_PER_MODMUL = 5.7
#: Additions ride along with the multiplies in vectorised kernels.
I5_CYCLES_PER_MODADD = 3.7
I5_CLOCK_HZ = 1_800_000_000


@dataclass(frozen=True)
class OperationCounts:
    """Primitive-operation census of one homomorphic operation."""

    modmuls: int
    modadds: int

    def __add__(self, other: OperationCounts) -> OperationCounts:
        return OperationCounts(self.modmuls + other.modmuls,
                               self.modadds + other.modadds)

    def scaled(self, factor: int) -> OperationCounts:
        return OperationCounts(self.modmuls * factor,
                               self.modadds * factor)


def ntt_operations(n: int) -> OperationCounts:
    """One n-point NTT: (n/2) log n butterflies."""
    butterflies = (n // 2) * int(log2(n))
    return OperationCounts(modmuls=butterflies, modadds=2 * butterflies)


def count_mult_operations(params: ParameterSet) -> OperationCounts:
    """Primitive ops of one RNS-HPS FV.Mult (the paper Fig. 2 dataflow)."""
    n, k_q, k_p, k_total = params.n, params.k_q, params.k_p, params.k_total
    total = OperationCounts(0, 0)
    # Lift q->Q of four polynomials: per coefficient, k_q scaling muls,
    # k_p sums of k_q products, and the quotient estimate (k_q muls).
    lift_per_coeff = OperationCounts(
        modmuls=k_q + k_p * k_q + k_q + k_p,
        modadds=k_p * k_q + k_q,
    )
    total += lift_per_coeff.scaled(4 * n)
    # Forward NTT of four polynomials over the full basis.
    total += ntt_operations(n).scaled(4 * k_total)
    # Tensor: four pointwise products + one addition over the full basis.
    total += OperationCounts(modmuls=4 * n, modadds=n).scaled(k_total)
    # Inverse NTT of three tensor polynomials (plus the n^-1 scaling).
    total += ntt_operations(n).scaled(3 * k_total)
    total += OperationCounts(modmuls=n, modadds=0).scaled(3 * k_total)
    # Scale Q->q of three polynomials.
    scale_per_coeff = OperationCounts(
        modmuls=k_q + 2 * k_q * k_p + k_p + k_q * k_p,
        modadds=2 * k_q * k_p + k_p,
    )
    total += scale_per_coeff.scaled(3 * n)
    # Relinearisation: k_q digit NTTs, 2*k_q pointwise MACs, 2 inverse NTTs.
    total += ntt_operations(n).scaled(k_q + 2)
    total += OperationCounts(modmuls=2 * n, modadds=2 * n).scaled(
        k_q * k_q
    )
    return total


@dataclass(frozen=True)
class SoftwareBaseline:
    """The Intel i5 / FV-NFLlib reference point."""

    params: ParameterSet

    def _seconds(self, ops: OperationCounts) -> float:
        cycles = (ops.modmuls * I5_CYCLES_PER_MODMUL
                  + ops.modadds * I5_CYCLES_PER_MODADD)
        return cycles / I5_CLOCK_HZ

    def mult_seconds(self) -> float:
        return self._seconds(count_mult_operations(self.params))

    def mults_per_second(self) -> float:
        return 1.0 / self.mult_seconds()
