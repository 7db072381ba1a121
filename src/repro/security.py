"""Security-level checks against the Homomorphic Encryption Standard.

The paper targets ">= 80-bit security" using Albrecht's LWE estimator
[26]. This module encodes the maximum ciphertext modulus widths tabulated
by the HomomorphicEncryption.org standard (Albrecht et al., 2018) for
ternary secrets and sigma ~ 3.2, interpolating the paper's wider sigma =
102 with the estimator's rule that a wider error distribution only adds
security. It gives the library a SEAL-style ``meets_security`` gate and
places the paper's (4096, 180) point on the standard's scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import ParameterSet

# HE-standard maximum log2(q) for classical security, ternary secret.
# Rows: n -> {security_bits: max_log2_q}.
HE_STANDARD_MAX_LOG2_Q = {
    1024: {128: 27, 192: 19, 256: 14},
    2048: {128: 54, 192: 37, 256: 29},
    4096: {128: 109, 192: 75, 256: 58},
    8192: {128: 218, 192: 152, 256: 118},
    16384: {128: 438, 192: 305, 256: 237},
    32768: {128: 881, 192: 611, 256: 476},
}

SUPPORTED_LEVELS = (128, 192, 256)


@dataclass(frozen=True)
class SecurityAssessment:
    """Outcome of placing a parameter set on the standard's scale."""

    params_name: str
    n: int
    log2_q: int
    classical_bits_estimate: float
    meets_128: bool
    notes: str


def max_log2_q(n: int, security_bits: int) -> int | None:
    """Standard's maximum modulus width, or None if n is off-table."""
    if security_bits not in SUPPORTED_LEVELS:
        raise ValueError(f"supported levels: {SUPPORTED_LEVELS}")
    row = HE_STANDARD_MAX_LOG2_Q.get(n)
    return None if row is None else row[security_bits]


def meets_security(params: ParameterSet, security_bits: int = 128) -> bool:
    """True when the set satisfies the HE-standard table at that level.

    Conservative: ring degrees not in the table fail closed.
    """
    limit = max_log2_q(params.n, security_bits)
    if limit is None:
        return False
    return params.log2_q <= limit


def estimate_security_level(params: ParameterSet) -> int:
    """The highest tabulated level the set satisfies (0 if none)."""
    best = 0
    for level in SUPPORTED_LEVELS:
        if meets_security(params, level):
            best = level
    return best


def assess(params: ParameterSet) -> SecurityAssessment:
    """Full placement of a parameter set, with the paper-relevant nuance.

    The paper's (4096, 180-bit) set sits *between* the standard's 128-bit
    line (max 109 bits of modulus at n = 4096) and nothing: the standard
    has no 80-bit row. The paper instead cites the LWE estimator directly
    for ">= 80-bit"; our heuristic linear rule reproduces that figure.
    """
    level = estimate_security_level(params)
    heuristic = params.estimated_security_bits()
    if level >= 128:
        notes = f"within the standard's {level}-bit table"
    elif params.n in HE_STANDARD_MAX_LOG2_Q:
        limit = max_log2_q(params.n, 128)
        notes = (
            f"exceeds the 128-bit modulus cap ({limit} bits) — the paper "
            "targets 80-bit security via the LWE estimator, below the "
            "standard's smallest tabulated level"
        )
    else:
        notes = "ring degree not tabulated by the HE standard"
    return SecurityAssessment(
        params_name=params.name,
        n=params.n,
        log2_q=params.log2_q,
        classical_bits_estimate=heuristic,
        meets_128=level >= 128,
        notes=notes,
    )
