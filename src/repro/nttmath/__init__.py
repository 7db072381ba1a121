"""Number-theoretic substrate: modular arithmetic, primes, NTT.

This subpackage is the mathematical foundation underneath both the FV
scheme (``repro.fv``) and the hardware simulator (``repro.hw``). It
contains no hardware modelling; everything here is plain number theory.
"""

from .batch import (
    BasisTransformer,
    basis_transformer,
    intt_rows,
    ntt_rows,
    transform_counts,
)
from .bitrev import bit_reverse_indices, bit_reverse_permute
from .modmath import modinv, modpow
from .ntt import (
    NegacyclicTransformer,
    intt_iterative,
    negacyclic_convolution,
    ntt_iterative,
    power_table,
)
from .primes import (
    find_ntt_primes,
    is_prime,
    primitive_root,
    root_of_unity,
)

__all__ = [
    "modinv",
    "modpow",
    "find_ntt_primes",
    "is_prime",
    "primitive_root",
    "root_of_unity",
    "bit_reverse_indices",
    "bit_reverse_permute",
    "NegacyclicTransformer",
    "BasisTransformer",
    "basis_transformer",
    "ntt_rows",
    "intt_rows",
    "transform_counts",
    "power_table",
    "ntt_iterative",
    "intt_iterative",
    "negacyclic_convolution",
]
