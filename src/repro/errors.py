"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish parameter problems from simulator problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ParameterError(ReproError):
    """A parameter set is malformed or unsupported.

    Raised, for example, when a modulus is not NTT-friendly for the ring
    degree, when the polynomial degree is not a power of two, or when a
    residue does not fit the 30-bit datapath of the modelled hardware.
    """


class EncodingError(ReproError):
    """A plaintext cannot be encoded, or a ciphertext cannot be decoded."""


class NoiseBudgetExhausted(ReproError):
    """Decryption would fail because ciphertext noise crossed the threshold."""


class HardwareModelError(ReproError):
    """The hardware simulator was driven into an invalid state."""


class MemoryConflictError(HardwareModelError):
    """Two accesses hit the same BRAM port in the same cycle.

    The dual-core NTT access schedule of the paper (Fig. 3) is designed to
    make this impossible; the simulator raises this error if a schedule
    would violate the port constraints, which turns the paper's correctness
    argument into an executable check.
    """


class IsaError(HardwareModelError):
    """An instruction is malformed or references an invalid operand slot."""
