"""The client session: keys, encoders, and handle minting.

A :class:`Session` is the one object a client application needs. It owns
the :class:`~repro.fv.scheme.FvContext`, generates and holds the
:class:`~repro.fv.keys.KeySet` (plus lazily-created Galois keys for
rotations), picks the encoder the parameter set admits, and mints the opaque
:class:`~repro.api.program.CiphertextHandle` objects all client-side
arithmetic runs on::

    session = Session(mini(t=257), seed=7)
    a, b = session.encrypt([1, 2, 3]), session.encrypt([4, 5, 6])
    program = session.compile((a * b).sum_slots(), name="dot")
    print(session.decrypt(program_result))

Everything below the session — ``FvContext``, ``Evaluator``,
``GaloisEngine``, raw key material — remains importable for low-level
work, but application code should not need it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..errors import ParameterError
from ..fv.ciphertext import Ciphertext
from ..fv.encoder import BatchEncoder, Plaintext
from ..fv.evaluator import Evaluator
from ..fv.galois import (
    GaloisEngine,
    GaloisKey,
    canonical_steps,
    rotation_element,
    summation_elements,
)
from ..fv.noise import budget_bits
from ..fv.scheme import FvContext
from ..params import ParameterSet, hpca19
from .program import CiphertextHandle, ExprNode, HEProgram, OpKind

class Session:
    """One client's view of the FV scheme: keys + encoder + handles.

    The encoder follows the parameter set: SIMD batching when ``t``
    admits it, raw coefficients otherwise.
    """

    def __init__(self, params: ParameterSet | None = None, *,
                 seed: int = 2019) -> None:
        self.params = params if params is not None else hpca19()
        self.context = FvContext(self.params, seed=seed)
        self.keys = self.context.keygen()
        try:
            self.encoder: BatchEncoder | None = BatchEncoder(self.params)
            self.encoder_kind = "batch"
        except ParameterError:
            self.encoder, self.encoder_kind = None, "coeff"
        self.evaluator = Evaluator(self.context)
        self.galois = GaloisEngine(self.context)
        # The one Galois key cache, keyed as key bundles are labelled:
        # normalised rotation steps, "conjugate", "conjugate_quarter".
        self._galois_keys: dict = {}
        # Plaintext-constant NTT pool: the server-side cache of encoded
        # constants in the evaluation domain, so a constant reused
        # across ops/requests is transformed exactly once. Bounded
        # (FIFO eviction) so long-lived sessions that stream fresh
        # per-request plaintexts cannot grow it without limit.
        self._plain_pool_limit = 256
        self._plain_ntt_pool: dict[tuple[int, bytes], np.ndarray] = {}
        self._plain_delta_pool: dict[tuple[int, bytes], np.ndarray] = {}

    # -- encoding ----------------------------------------------------------------------

    @property
    def slot_count(self) -> int:
        """SIMD slots per ciphertext (= n for the batch encoder)."""
        if self.encoder_kind == "batch":
            return self.encoder.slot_count
        return self.params.n

    def encode(self, values) -> Plaintext:
        """Encode scalars / vectors with the session's encoder.

        A scalar broadcasts: all slots under the batch encoder, the
        constant coefficient otherwise — so ``handle * 3`` means the
        same slot-wise scaling everywhere.
        """
        if isinstance(values, Plaintext):
            return values
        if isinstance(values, (int, np.integer)):
            if self.encoder_kind == "batch":
                return self.encoder.encode(
                    np.full(self.encoder.slot_count, int(values),
                            dtype=np.int64)
                )
            return Plaintext.from_list([int(values)], self.params.n,
                                       self.params.t)
        arr = np.asarray(values, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("encode expects a scalar or 1-D values")
        if self.encoder_kind == "batch":
            if len(arr) < self.encoder.slot_count:
                arr = np.concatenate([
                    arr, np.zeros(self.encoder.slot_count - len(arr),
                                  dtype=np.int64),
                ])
            return self.encoder.encode(arr)
        return Plaintext.from_list(arr.tolist(), self.params.n,
                                   self.params.t)

    def negate_plain(self, plain: Plaintext) -> Plaintext:
        """The additive inverse of an encoded plaintext (mod t)."""
        return Plaintext((-plain.coeffs) % self.params.t, self.params.t)

    # -- plaintext-constant NTT pool ---------------------------------------------

    def plain_ntt(self, plain: Plaintext) -> np.ndarray:
        """NTT rows of a plaintext constant (cached by value).

        The pool is what lets the executor multiply by the same
        plaintext constant many times while transforming it once —
        the software twin of the paper's server keeping operands
        resident in DDR between jobs.
        """
        return self._pool_lookup(self._plain_ntt_pool, plain,
                                 self.context.plain_ntt_rows)

    def plain_delta_ntt(self, plain: Plaintext) -> np.ndarray:
        """NTT rows of ``Delta * m`` for AddPlain (cached by value)."""
        return self._pool_lookup(
            self._plain_delta_pool, plain,
            lambda p: self.context._ntt_rows(
                self.context.delta_plain_rows(p)
            ),
        )

    def _pool_lookup(self, pool: dict, plain: Plaintext,
                     compute) -> np.ndarray:
        """Bounded value-keyed cache: a constant re-encoded per request
        (``x * 3``) is a new object with the same coefficients, and
        must hit the entry its first encoding made."""
        key = (plain.t, hashlib.blake2b(plain.coeffs.tobytes(),
                                        digest_size=16).digest())
        rows = pool.get(key)
        if rows is None:
            if len(pool) >= self._plain_pool_limit:
                pool.pop(next(iter(pool)))
            rows = pool[key] = compute(plain)
        return rows

    def decode(self, plain: Plaintext, size: int | None = None):
        """Invert :meth:`encode`; ``size`` truncates vector results."""
        # A copy: measured plaintexts are shared between callers.
        decoded = (self.encoder.decode(plain)
                   if self.encoder_kind == "batch" else plain.coeffs.copy())
        return decoded if size is None else decoded[:size]

    # -- encrypt / decrypt -------------------------------------------------------------

    def encrypt(self, values, *, resident: object = None) -> CiphertextHandle:
        """Encode + encrypt; returns an opaque (lazy-capable) handle to
        an evaluation-domain ciphertext. ``resident`` is a ledger shim,
        accepted and ignored: benchmarks/ledger/workloads.py's timed
        loop still passes it."""
        return self.wrap(self.context.encrypt(self.encode(values),
                                              self.keys.public))

    def wrap(self, ciphertext: Ciphertext) -> CiphertextHandle:
        """Adopt an existing ciphertext as a graph input.

        The door for ciphertexts made outside the engine: a two-part
        coefficient-domain one (the headerless wire, an ``hw`` result)
        is transformed into the evaluation domain here, once. A
        three-part raw product is taken as Scale left it.
        """
        if ciphertext.size == 2:
            ciphertext = ciphertext.to_ntt()
        return CiphertextHandle(
            ExprNode(OpKind.INPUT, payload=ciphertext), self
        )

    def decrypt(self, value, size: int | None = None):
        """Decrypt a handle (materialising it if lazy) or a ciphertext.

        Returns decoded values in the session encoder's domain: a slot
        vector for batch, coefficients for coeff.
        """
        return self.decode(self.decrypt_plaintext(value), size)

    def measure(self, value) -> tuple[Plaintext, int]:
        """``(plaintext, noise norm)`` of a handle or ciphertext: the
        one secret-key measurement both :meth:`decrypt` and
        :meth:`noise_budget_bits` are views of.

        A materialised handle is measured as it is; a lazy one is run
        through the local backend, whose verification already measured
        it.
        """
        if isinstance(value, CiphertextHandle):
            if value.node.cached is None:
                return self.run(value).measure()
            value = value.node.cached
        return self.context.decrypt_with_noise(value, self.keys.secret)

    def decrypt_plaintext(self, value) -> Plaintext:
        return self.measure(value)[0]

    def noise_budget_bits(self, value) -> float:
        """Measured (not worst-case) remaining budget of a result."""
        return budget_bits(self.params, self.measure(value)[1])

    # -- Galois key management --------------------------------------------------------

    def _ensure_galois_keys(self, elements: dict) -> int:
        """Generate the keys of ``{label: element}`` the cache lacks;
        returns how many that was."""
        missing = {label: g for label, g in elements.items()
                   if label not in self._galois_keys}
        for label, g in missing.items():
            self._galois_keys[label] = self.galois.keygen(
                self.keys.secret, g)
        return len(missing)

    def rotation_key(self, steps: int) -> GaloisKey:
        """The key-switch key for one rotation amount (cached; ``steps``
        and ``steps + n/2`` are the same rotation and share a key).
        The identity rotation has none: it returns its operand."""
        steps = canonical_steps(steps, self.params.n)
        if steps == 0:
            raise ParameterError("the identity rotation needs no key")
        self._ensure_galois_keys(
            {steps: rotation_element(steps, self.params.n)})
        return self._galois_keys[steps]

    def prefetch_rotation_keys(self, steps_list) -> int:
        """Derive every missing rotation key in one batch (deduped).

        Program executors call this with
        :meth:`HEProgram.rotation_steps` before walking the graph, so
        Galois keygen happens once per distinct step per session
        instead of per-op cache probes mid-run. Returns the number of
        keys actually generated (the identity rotation needs none).
        """
        n = self.params.n
        wanted = {canonical_steps(s, n) for s in steps_list} - {0}
        return self._ensure_galois_keys({
            steps: rotation_element(steps, n) for steps in sorted(wanted)
        })

    def summation_keys(self) -> dict:
        """Every key ``GaloisEngine.sum_all_slots`` needs: a
        view of the session's one Galois key cache, so the rotations a
        program also uses directly are the same key objects."""
        elements = summation_elements(self.params.n)
        self._ensure_galois_keys(elements)
        return {label: self._galois_keys[label] for label in elements}

    # -- programs ----------------------------------------------------------------------

    def compile(self, outputs, *, name: str = "program",
                check: bool = True, optimize: bool = False) -> HEProgram:
        """Capture handles into an :class:`HEProgram`.

        ``outputs`` may be one handle, a list (labelled ``out0..``), or
        a dict of label -> handle. ``check=True`` runs the static
        depth/noise validation and raises
        :class:`~repro.errors.NoiseBudgetExhausted` for programs that
        could fail to decrypt in the worst case. ``optimize=True``
        additionally runs the captured graph through the
        :mod:`repro.optim` pass stack; the returned program carries its
        :class:`~repro.optim.OptimizationReport` as ``.optimization``.
        """
        if isinstance(outputs, CiphertextHandle):
            mapping = {"out": outputs}
        elif isinstance(outputs, dict):
            mapping = outputs
        else:
            mapping = {f"out{i}": h for i, h in enumerate(outputs)}
        for handle in mapping.values():
            if not isinstance(handle, CiphertextHandle):
                raise ParameterError("program outputs must be handles")
            if handle.session is not self:
                raise ParameterError(
                    "cannot compile handles from another session"
                )
        program = HEProgram(
            {label: h.node for label, h in mapping.items()},
            self.params, name=name, check=check,
        )
        if optimize:
            from ..optim import optimize_program

            program, _ = optimize_program(program)
        return program

    def run(self, outputs):
        """Materialise handle(s) through the local backend.

        The convenience path behind ``session.decrypt(lazy_handle)`` —
        compiles without the static check (the measured noise verify in
        the backend still guards correctness) and executes functionally.
        """
        from .backends import LocalBackend

        program = self.compile(outputs, check=False)
        return LocalBackend(self).run(program)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Session({self.params.name!r}, "
                f"encoder={self.encoder_kind!r})")
