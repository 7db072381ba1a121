"""The Fan–Vercauteren (FV/BFV) somewhat homomorphic encryption scheme.

This package is a complete, self-contained FV implementation:

* :mod:`~repro.fv.sampler` — error and key distributions;
* :mod:`~repro.fv.encoder` — plaintext encoders (bits, integers, SIMD
  batching when the plaintext modulus allows it);
* :mod:`~repro.fv.keys` — secret/public keys and the one relinearisation
  key, named by its :class:`~repro.rns.decompose.WordDecomp`;
* :mod:`~repro.fv.scheme` — :class:`FvContext`: keygen, encrypt, decrypt,
  and the additive homomorphic operations;
* :mod:`~repro.fv.evaluator` — homomorphic multiplication in the RNS-HPS
  form the paper's hardware computes, plus relinearisation;
* :mod:`~repro.fv.keyswitch` — the one key switch relinearisation and
  the Galois rotations share;
* :mod:`~repro.fv.reference` — a textbook big-integer FV used as ground
  truth in tests;
* :mod:`~repro.fv.noise` — invariant-noise budget measurement.
"""

from .ciphertext import Ciphertext
from .encoder import BatchEncoder, IntegerEncoder, Plaintext
from .evaluator import Evaluator
from .galois import GaloisEngine, GaloisKey
from .keys import KeySet, PublicKey, RelinKey, SecretKey
from .noise import noise_budget_bits
from .scheme import FvContext

__all__ = [
    "Ciphertext",
    "Plaintext",
    "IntegerEncoder",
    "BatchEncoder",
    "SecretKey",
    "PublicKey",
    "RelinKey",
    "KeySet",
    "FvContext",
    "Evaluator",
    "GaloisEngine",
    "GaloisKey",
    "noise_budget_bits",
]
