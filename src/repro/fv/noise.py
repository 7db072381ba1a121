"""Noise budget measurement (paper Sec. II-A).

The paper frames the multiplicative depth as the analogue of a circuit's
critical path: each FV.Mult multiplies the noise by roughly a fixed
factor, and decryption fails once the noise passes q/(2t). The functions
here measure the actual noise of a ciphertext (given the secret key) and
the budget it has left; :mod:`repro.fv.noise_model` bounds the noise
analytically for the paper's "depth 4 with 180-bit q" claim.
"""

from __future__ import annotations

import math

from ..params import ParameterSet
from .ciphertext import Ciphertext
from .keys import SecretKey
from .scheme import FvContext


def noise_of(context: FvContext, ct: Ciphertext, secret: SecretKey) -> int:
    """Infinity norm of the ciphertext's noise term."""
    return context.decrypt_with_noise(ct, secret)[1]


def budget_bits(params: ParameterSet, noise: int) -> float:
    """Remaining noise budget in bits for a measured noise norm.

    Defined as log2(q / (2 t * noise)); decryption is guaranteed correct
    while this stays positive (the same invariant-noise convention SEAL
    reports).
    """
    q, t = params.q, params.t
    if noise == 0:
        return math.log2(q / (2 * t))
    return math.log2(q / (2 * t)) - math.log2(noise)


#: A verified output must keep at least this much measured budget.
#: Decryption rounds to the nearest multiple of q/t, so once the noise
#: has wrapped the measured norm is the largest of n near-uniform
#: residues below q/2t and the budget reads just *above* zero — under
#: one bit unless every coefficient lands in the lower half
#: (probability 2^-n). ``budget <= 0`` alone never sees a wrapped
#: ciphertext.
MIN_VERIFIED_BUDGET_BITS = 1.0


def noise_budget_bits(context: FvContext, ct: Ciphertext,
                      secret: SecretKey) -> float:
    """Remaining noise budget of a ciphertext (see :func:`budget_bits`)."""
    return budget_bits(context.params, noise_of(context, ct, secret))
