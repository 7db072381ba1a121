"""Homomorphic evaluation of a Rasta-like low-AND-depth cipher.

Paper Sec. III-A: the depth-4 parameter set supports "evaluation of
low-complexity block ciphers such as Rasta [25] on ciphertext" — the
transciphering use case, where a client sends data encrypted under a
cheap symmetric cipher and the cloud converts it into FV ciphertexts by
evaluating the cipher's decryption homomorphically.

This module implements a toy cipher with the structure that makes Rasta
FHE-friendly: rounds of a public GF(2) affine layer followed by the
chi nonlinear layer ``y_i = x_i XOR (x_{i+1} AND x_{i+2}) XOR x_{i+2}``
(one AND — one homomorphic multiplication — of depth per round). Over
F_2 (t = 2), XOR is addition and AND is multiplication, so a 4-round
instance consumes exactly the paper's multiplicative depth of 4.

Homomorphic evaluation is expressed over :mod:`repro.api` ciphertext
handles — ``evaluate_encrypted(session, bit_handles)``.
"""

from __future__ import annotations

import numpy as np

from ..api.session import Session
from ..errors import ParameterError


class RastaLikeCipher:
    """A toy chi-based cipher over bit vectors of length `width`."""

    def __init__(self, width: int, rounds: int, seed: int = 1) -> None:
        if width < 3:
            raise ParameterError("chi needs at least three state bits")
        self.width = width
        self.rounds = rounds
        rng = np.random.default_rng(seed)
        # Public per-round affine layers: invertible not required for the
        # demo; matrices and constants over GF(2).
        self.matrices = [
            rng.integers(0, 2, size=(width, width)).astype(np.int64)
            for _ in range(rounds)
        ]
        self.constants = [
            rng.integers(0, 2, size=width).astype(np.int64)
            for _ in range(rounds)
        ]

    # -- plaintext reference -----------------------------------------------------------

    def _chi(self, state: np.ndarray) -> np.ndarray:
        rot1 = np.roll(state, -1)
        rot2 = np.roll(state, -2)
        return (state + rot1 * rot2 + rot2) % 2

    def encrypt_reference(self, bits: np.ndarray) -> np.ndarray:
        """Evaluate the cipher in the clear (the ground truth)."""
        state = np.asarray(bits, dtype=np.int64) % 2
        if state.shape != (self.width,):
            raise ParameterError(f"state must have {self.width} bits")
        for matrix, constant in zip(self.matrices, self.constants, strict=True):
            state = (matrix @ state + constant) % 2
            state = self._chi(state)
        return state

    # -- homomorphic evaluation --------------------------------------------------------

    def evaluate_encrypted(self, session: Session, bit_cts: list) -> list:
        """Run the cipher over per-bit handles (t must be 2)."""
        if session.params.t != 2:
            raise ParameterError("homomorphic chi works over t = 2")
        if len(bit_cts) != self.width:
            raise ParameterError(f"need {self.width} encrypted state bits")
        state = bit_cts
        for matrix, constant in zip(self.matrices, self.constants, strict=True):
            # Affine layer: XOR of selected bits plus a public constant.
            new_state = []
            for row in range(self.width):
                acc = None
                for col in range(self.width):
                    if matrix[row, col]:
                        acc = (state[col] if acc is None
                               else acc + state[col])
                if acc is None:
                    # Degenerate all-zero row: encrypt-free zero via
                    # subtracting a ciphertext from itself.
                    acc = state[0] - state[0]
                if constant[row]:
                    acc = acc + 1
                new_state.append(acc)
            # chi layer: one AND per output bit (depth 1 per round).
            state = []
            for i in range(self.width):
                and_term = (new_state[(i + 1) % self.width]
                            * new_state[(i + 2) % self.width])
                term = new_state[i] + and_term
                state.append(term + new_state[(i + 2) % self.width])
        return state

    @staticmethod
    def decrypt_state(session: Session, state: list) -> np.ndarray:
        """Decrypt the output bits."""
        bits = [int(session.decrypt(ct)[0]) for ct in state]
        return np.array(bits, dtype=np.int64)
