"""Randomised hardware-vs-software equivalence campaigns.

The paper "verified its correctness" on the ZCU102 by checking hardware
results against software. This module packages the same methodology for
the simulator: given a hardware configuration, run a campaign of random
homomorphic operations through both the coprocessor model and the
software evaluator, compare bit-for-bit, decrypt, and report. It backs
``python -m repro verify`` and the release checklist in the README.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..fv.encoder import Plaintext
from ..fv.evaluator import Evaluator
from ..fv.scheme import FvContext
from ..nttmath.ntt import negacyclic_convolution
from ..params import mini
from .config import HardwareConfig
from .coprocessor import Coprocessor


@dataclass
class CampaignResult:
    """Outcome of one equivalence campaign."""

    params_name: str
    operations: int = 0
    bit_exact_matches: int = 0
    decrypt_matches: int = 0
    failures: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return (not self.failures
                and self.bit_exact_matches == self.operations
                and self.decrypt_matches == self.operations)

    def report(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"equivalence campaign on {self.params_name}: {status}",
            f"  operations:        {self.operations}",
            f"  bit-exact matches: {self.bit_exact_matches}",
            f"  decrypt matches:   {self.decrypt_matches}",
            f"  wall time:         {self.wall_seconds:.1f} s",
        ]
        lines.extend(f"  failure: {f}" for f in self.failures)
        return "\n".join(lines)


def run_campaign(config: HardwareConfig | None = None,
                 operations: int = 10,
                 seed: int = 12345) -> CampaignResult:
    """Random Mult/Add operations through HW model and SW evaluator,
    on the ``mini`` parameter set.

    Each round draws fresh random plaintexts, encrypts them, runs the
    operation on both paths, requires bit-identical ciphertexts, and
    checks the decryption against the plaintext ring computation.
    """
    params = mini()
    config = config or HardwareConfig()
    start = time.perf_counter()
    context = FvContext(params, seed=seed)
    keys = context.keygen()
    evaluator = Evaluator(context)
    coprocessor = Coprocessor(params, config)
    rng = np.random.default_rng(seed + 1)
    result = CampaignResult(params_name=params.name)

    for round_index in range(operations):
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct_a = context.encrypt(a, keys.public)
        ct_b = context.encrypt(b, keys.public)
        is_mult = round_index % 2 == 0
        if is_mult:
            hw_ct, _ = coprocessor.mult(ct_a, ct_b, keys.relin)
            sw_ct = evaluator.multiply(ct_a, ct_b, keys.relin)
            expected = negacyclic_convolution(
                a.coeffs.tolist(), b.coeffs.tolist(), params.t
            )
        else:
            hw_ct, _ = coprocessor.add(ct_a, ct_b)
            sw_ct = context.add(ct_a, ct_b)
            expected = ((a.coeffs + b.coeffs) % params.t).tolist()
        result.operations += 1

        # The model's registers hold coefficients; the evaluator's
        # result lives in the evaluation domain.
        bit_exact = all(
            np.array_equal(h.residues, s.residues)
            for h, s in zip(hw_ct.parts, sw_ct.to_coeff().parts,
                            strict=True)
        )
        if bit_exact:
            result.bit_exact_matches += 1
        else:
            result.failures.append(
                f"round {round_index}: HW != SW "
                f"({'mult' if is_mult else 'add'})"
            )
        decrypted = context.decrypt(hw_ct, keys.secret)
        if decrypted.coeffs.tolist() == expected:
            result.decrypt_matches += 1
        else:
            result.failures.append(
                f"round {round_index}: HW result decrypts incorrectly"
            )
    result.wall_seconds = time.perf_counter() - start
    return result


def run_configuration_matrix(operations: int = 4) -> list[CampaignResult]:
    """Campaigns across the design-space corners of the paper.

    Fast coprocessor, pinned-key variant, single-butterfly variant, and
    the no-ROM variant — all must be functionally indistinguishable (the
    design knobs trade cycles, never results).
    """
    from dataclasses import replace

    base = HardwareConfig()
    corners = [
        ("fast (paper)", base),
        ("relin key on-chip", replace(base, relin_key_on_chip=True)),
        ("single butterfly core", replace(base,
                                          butterfly_cores_per_rpau=1)),
        ("no twiddle ROM", replace(base, twiddle_rom=False)),
    ]
    results = []
    for name, config in corners:
        result = run_campaign(config=config, operations=operations,
                              seed=777)
        result.params_name = f"{result.params_name} / {name}"
        results.append(result)
    return results
