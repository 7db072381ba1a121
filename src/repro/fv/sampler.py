"""Randomness sources of the FV scheme (paper Fig. 1: GaussNoise, u).

All samplers draw from an explicit :class:`numpy.random.Generator` so every
experiment in the repository is reproducible from a seed. The discrete
Gaussian uses rounded rejection-free sampling from the continuous normal —
adequate for a functional reproduction (the paper's security argument only
needs the standard deviation, sigma = 102); it is *not* a constant-time
sampler and must not be reused in a production cryptosystem.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..nttmath.batch import RESIDUE

#: Tail cut in standard deviations; beyond ~10 sigma the probability mass
#: is below 2^-70 and the paper's noise analysis ignores it.
TAIL_CUT_SIGMAS = 10.0


def uniform_ternary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Coefficients uniform over {-1, 0, 1} (the distribution of u and s)."""
    return rng.integers(-1, 2, size=n).astype(np.int64)


def discrete_gaussian(rng: np.random.Generator, n: int,
                      sigma: float) -> np.ndarray:
    """Rounded-Gaussian error polynomial with standard deviation sigma."""
    if sigma <= 0:
        raise ParameterError("sigma must be positive")
    samples = np.rint(rng.normal(0.0, sigma, size=n)).astype(np.int64)
    bound = int(TAIL_CUT_SIGMAS * sigma) + 1
    return np.clip(samples, -bound, bound)


def uniform_mod(rng: np.random.Generator, n: int, modulus: int) -> np.ndarray:
    """Coefficients uniform over [0, modulus) for a single machine-word modulus."""
    if modulus.bit_length() > 62:
        raise ParameterError("uniform_mod is limited to machine-word moduli")
    return rng.integers(0, modulus, size=n).astype(np.int64)


def uniform_rns_rows(rng: np.random.Generator, n: int,
                     primes: tuple[int, ...]) -> np.ndarray:
    """A uniform element of R_q sampled directly in RNS form.

    Sampling each residue row independently and uniformly is exactly
    uniform over Z_q by the CRT bijection, so no big-integer sampling is
    needed — the same trick the hardware uses for the public key stream.
    """
    return np.stack([uniform_mod(rng, n, p) for p in primes]).astype(RESIDUE)
