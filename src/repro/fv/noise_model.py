"""Analytic noise-growth model for the FV scheme (paper Sec. II-A).

The paper chooses its parameters so that "the maximum number of
homomorphic multiplications in the critical path ... before the noise
crosses the threshold" is four. This module provides the standard
worst-case noise bounds for every operation the library implements, so
that the depth claim can be *predicted* (not just observed) and so tests
can verify the implementation never exceeds its analytic envelope.

Bounds follow the usual FV/BFV analysis (Fan–Vercauteren 2012; Lepoint–
Naehrig 2014) with the conventions of this implementation: ternary
secrets and encryption randomness, rounded-Gaussian errors with standard
deviation sigma cut at 10 sigma, RNS relinearisation with 30-bit digits.
They are worst-case (infinity-norm) bounds, typically 2–4 bits above the
measured noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..params import ParameterSet
from .sampler import TAIL_CUT_SIGMAS


@dataclass(frozen=True)
class NoiseModel:
    """Worst-case noise bounds for one parameter set."""

    params: ParameterSet

    @property
    def error_bound(self) -> float:
        """Infinity-norm bound of one error sample (tail-cut Gaussian)."""
        return TAIL_CUT_SIGMAS * self.params.sigma

    @property
    def decryption_threshold(self) -> float:
        """Decryption is correct while noise stays below q / (2t)."""
        return self.params.q / (2 * self.params.t)

    # -- per-operation bounds --------------------------------------------------------

    def fresh_bound(self) -> float:
        """Noise of a fresh encryption: e1 + e2*s + e*u ~ B(1 + 2n)."""
        n = self.params.n
        return self.error_bound * (2 * n + 1)

    def add_bound(self, noise_a: float, noise_b: float) -> float:
        """FV.Add noise: sum of operand noises (plus rounding slack)."""
        return noise_a + noise_b + 1

    def add_plain_bound(self, noise: float) -> float:
        """Adding a plaintext costs at most the Delta-rounding residue."""
        return noise + self.params.t

    def mul_plain_bound(self, noise: float) -> float:
        """Multiplying by a plaintext polynomial scales by n*t."""
        return noise * self.params.n * self.params.t + self.params.t

    def mult_bound(self, noise_a: float, noise_b: float) -> float:
        """FV.Mult (tensor + scale) before relinearisation.

        The dominant term is t*n*(noise_a + noise_b) from the cross
        products of noises with the K-polynomials (magnitude <= n) of the
        operands; the scale rounding adds O(t * n).
        """
        t, n = self.params.t, self.params.n
        cross = 2.0 * t * n * (noise_a + noise_b + 1)
        rounding = t * (n + 1)
        return cross + rounding

    def relin_bound(self, noise: float) -> float:
        """RNS relinearisation adds sum_i D_i * e_i with 30-bit digits."""
        k = self.params.k_q
        digit_bound = float(1 << 30)
        return noise + k * self.params.n * digit_bound * self.error_bound

    def mult_relin_bound(self, noise_a: float, noise_b: float) -> float:
        return self.relin_bound(self.mult_bound(noise_a, noise_b))

    # -- depth prediction --------------------------------------------------------------

    def supported_depth(self) -> int:
        """Largest depth whose worst-case noise stays decryptable."""
        return sum(noise < self.decryption_threshold
                   for noise in self._depth_walk())

    def _depth_walk(self) -> list[float]:
        """Worst-case noise after depth 1, 2, ...: each depth that stays
        decryptable and the first that does not, at most 64 depths
        (``python -m repro noise`` prints it)."""
        noise, walk = self.fresh_bound(), []
        while noise < self.decryption_threshold and len(walk) < 64:
            noise = self.mult_relin_bound(noise, noise)
            walk.append(noise)
        return walk

    def budget_bits(self, noise: float) -> float:
        """Noise budget (bits) corresponding to a noise magnitude."""
        if noise <= 0:
            return math.log2(self.decryption_threshold)
        return max(0.0, math.log2(self.decryption_threshold / noise))
