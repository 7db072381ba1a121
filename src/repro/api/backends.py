"""The functional program executor.

A backend consumes a compiled :class:`~repro.api.program.HEProgram`.
:class:`LocalBackend` here executes it for real — every graph node runs
through the FV :class:`~repro.fv.evaluator.Evaluator` (multiplication +
relinearisation exactly as the paper's coprocessor computes them) or the
:class:`~repro.fv.galois.GaloisEngine` (rotations), and the results are
verified against the measured noise budget before they are handed back.
The simulation twin lives in :mod:`repro.api.simulated`.
"""

from __future__ import annotations

import weakref
from contextlib import nullcontext

from ..errors import NoiseBudgetExhausted, ParameterError
from ..fv.ciphertext import Ciphertext
from ..fv.encoder import Plaintext
from ..fv.evaluator import Lifted
from ..fv.galois import canonical_steps
from ..fv.noise import MIN_VERIFIED_BUDGET_BITS, budget_bits
from ..nttmath.batch import transform_counts
from ..obs import TraceReport, Tracer
from ..parallel import (
    BlasDecision,
    ExecutionConfig,
    Executor,
    _resolve,
    use_executor,
)
from .program import CiphertextHandle, ExprNode, HEProgram, OpKind
from .session import Session


def _count_diff(before: dict[str, int],
                after: dict[str, int]) -> dict[str, int]:
    return {key: after[key] - before[key] for key in after
            if after[key] != before[key]}


class ProgramResult:
    """Outputs of one functional execution, addressable by label.

    Each output is measured with the secret key once, by the backend's
    verification: :meth:`decrypt` and :meth:`noise_budget_bits` are views
    of the ``(plaintext, noise norm)`` pair :meth:`measure` holds, so
    reading a result costs a decode.
    """

    def __init__(self, session: Session,
                 outputs: dict[str, CiphertextHandle],
                 trace: TraceReport,
                 measured: dict[str, tuple[Plaintext, int]]) -> None:
        self.session = session
        self.outputs = outputs
        #: Wall-clock trace of the run that produced these outputs.
        self.trace = trace
        self._measured = measured

    def __getitem__(self, label: str) -> CiphertextHandle:
        return self.outputs[label]

    def handle(self, label: str = "out") -> CiphertextHandle:
        return self.outputs[label]

    def measure(self, label: str = "out") -> tuple[Plaintext, int]:
        """One output's ``(plaintext, noise norm)``, as verified."""
        return self._measured[label]

    def decrypt(self, label: str = "out", size: int | None = None):
        """Decode one output into the session encoder's domain."""
        return self.session.decode(self.measure(label)[0], size)

    def noise_budget_bits(self, label: str = "out") -> float:
        return budget_bits(self.session.params, self.measure(label)[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProgramResult({list(self.outputs)})"


class LocalBackend:
    """Execute a program functionally over the session's evaluator.

    Node results are cached on the expression graph, so overlapping
    programs (or a decrypt of an intermediate handle followed by more
    building) never recompute shared work. Every output is decrypted
    and its noise measured once — a budget under
    :data:`~repro.fv.noise.MIN_VERIFIED_BUDGET_BITS` means the
    decryption is garbage (a wrapped ciphertext reads just above zero,
    not below), and the backend refuses to return it; otherwise the
    measurement travels with the :class:`ProgramResult`, so the
    client's ``decrypt`` / ``noise_budget_bits`` do not repeat it.

    Every ciphertext a node holds lives in the evaluation domain, as
    HEAX/Medha keep operands on-chip in NTT form: ADD / SUB / NEGATE /
    ADD_PLAIN are element-wise, MUL_PLAIN is a pointwise product
    against the session's plaintext-constant NTT pool, a rotation is a
    slot permutation plus a key switch whose accumulators are born in
    the NTT domain, and MULTIPLY lifts its operands straight from the
    NTT domain and emits its product there. Coefficients appear only
    inside kernels, and in the three-part product a MULTIPLY_RAW node
    hands to its RELINEARIZE. Outputs leave as they are, ready for the
    NTT-domain wire format or further programs. A Mult operand that two
    or more Mult nodes consume is lifted q->Q once, by the first of
    them, and its :class:`~repro.fv.evaluator.Lifted` rows are held
    only until the last has run (``(((a*b)*a)*b)*a`` lifts ``a`` and
    ``b`` once each). :attr:`telemetry` reports the forward/inverse
    transform counts of the last run.
    """

    def __init__(self, session: Session, *,
                 executor: Executor | ExecutionConfig | str | None
                 = None) -> None:
        self.session = session
        # Executor selection: None defers to the ambient scope (serial
        # outside any) at run time; a mode string or ExecutionConfig is
        # built once here (a thread pool sized from the affinity mask
        # unless the config says otherwise) and closed when the
        # backend is collected, giving back the BLAS threads it holds;
        # a live Executor is used as-is and stays the caller's.
        self.executor: Executor | None = None
        if executor is not None:
            self.executor, owned = _resolve(executor)
            if owned:
                weakref.finalize(self, self.executor.close)
        #: Transform counts of the most recent :meth:`run`.
        self.last_transform_counts: dict[str, int] = {}
        #: Wall-clock trace of the most recent :meth:`run` — per-op
        #: spans (with transform-count diffs and nested engine
        #: transform spans) reducible to rollups and a critical path.
        self.last_trace: TraceReport | None = None

    @property
    def telemetry(self) -> dict:
        """Execution telemetry: the last run's transform counts, the
        executor mode, and what the executor did about BLAS threading
        (process-wide transform totals live in the metrics registry)."""
        blas = (BlasDecision(False, reason="ambient executor")
                if self.executor is None else self.executor.blas)
        return {
            "executor": ("ambient" if self.executor is None
                         else self.executor.name),
            "workers": (0 if self.executor is None
                        else self.executor.workers),
            "blas": blas.as_dict(),
            "last_run": dict(self.last_transform_counts),
            # Ledger shim: benchmarks/ledger/workloads.py reads the hits.
            "resident_cache": {"hits": 0},
        }

    def run(self, program: HEProgram, **kwargs) -> ProgramResult:
        if kwargs:
            raise TypeError(
                f"LocalBackend.run got unknown options {sorted(kwargs)}"
            )
        # Identity is the cheap check; equal parameter sets from
        # two constructions are fine too.
        if (program.params is not self.session.params
                and program.params != self.session.params):
            raise ParameterError(
                "program was compiled for different parameters"
            )
        before = transform_counts()
        tracer = Tracer()
        order = {id(node): i for i, node in enumerate(program.nodes)}
        poly_bytes = program.params.poly_bytes
        # Spans measure per-op wall clock; each op span also records
        # the transform-counter diff across its execution, so the
        # TraceReport's totals reconcile exactly with the run-level
        # registry diff (the tests assert the equality).
        scope = (use_executor(self.executor)
                 if self.executor is not None else nullcontext())
        with scope, tracer.activate():
            lift_until = self._plan_lifts(program, order)
            # A Mult operand reused by later Mults is lifted once, by
            # its first Mult consumer, and held here until its last one
            # has run; the dict dies with the run.
            lifted: dict[int, Lifted] = {}
            steps = program.rotation_steps()
            if steps or program.uses_sum_slots:
                # Program-wide Galois key prefetch: one deduped keygen
                # batch up front instead of per-op cache probes.
                with tracer.span("prefetch_galois", kind="phase") as sp:
                    pre_before = transform_counts()
                    sp.attrs["steps"] = len(steps)
                    sp.attrs["generated"] = (
                        self.session.prefetch_rotation_keys(steps)
                        if steps else 0
                    )
                    if program.uses_sum_slots:
                        self.session.summation_keys()
                    sp.attrs["transforms"] = _count_diff(
                        pre_before, transform_counts()
                    )
            # Hoisted rotation groups (optimiser analysis): executing
            # the first member computes every member off one shared
            # digit transform; later members hit the graph cache.
            hoisted: dict[int, tuple[ExprNode, ...]] = {}
            for group in program.hoist_groups:
                for member in group:
                    hoisted[id(member)] = group
            for i, node in enumerate(program.nodes):
                if node.cached is not None:
                    continue
                with tracer.span(
                    node.op.name.lower(), kind="op", op=node.op.name,
                    node=order[id(node)],
                    deps=tuple(order[id(a)] for a in node.args),
                    bytes_moved=(2 * len(node.args) + 2) * poly_bytes,
                ) as sp:
                    op_before = transform_counts()
                    group = hoisted.get(id(node))
                    if group is not None:
                        sp.attrs["hoisted"] = self._execute_hoisted(group)
                    if node.cached is None:
                        node.cached = self._execute(node, lift_until, lifted)
                    sp.attrs["transforms"] = _count_diff(
                        op_before, transform_counts()
                    )
                for key in [k for k in lifted if lift_until[k] == i]:
                    del lifted[key]
            # Verification is the one place an output is measured.
            # Tracing it as a phase keeps the trace totals equal to the
            # run-level registry diff.
            measured: dict[str, tuple[Plaintext, int]] = {}
            with tracer.span("verify_outputs", kind="phase") as sp:
                ver_before = transform_counts()
                for label, node in program.outputs.items():
                    measured[label] = self.session.measure(node.cached)
                    budget = budget_bits(program.params,
                                         measured[label][1])
                    if budget < MIN_VERIFIED_BUDGET_BITS:
                        raise NoiseBudgetExhausted(
                            f"output {label!r} decrypts with "
                            f"{budget:.4f} bits of noise budget, "
                            f"under the {MIN_VERIFIED_BUDGET_BITS:g}"
                            f"-bit floor of a verified output (a "
                            f"wrapped ciphertext reads just above "
                            f"zero)"
                        )
                sp.attrs["transforms"] = _count_diff(
                    ver_before, transform_counts()
                )
            outputs = {
                label: CiphertextHandle(node, self.session)
                for label, node in program.outputs.items()
            }
        after = transform_counts()
        self.last_trace = tracer.report()
        self.last_transform_counts = {
            key: after[key] - before[key] for key in after
        }
        return ProgramResult(self.session, outputs,
                             trace=self.last_trace, measured=measured)

    # -- lift planning -----------------------------------------------------------------

    #: Ops that start with Lift q->Q of both operands.
    _MULT_OPS = frozenset({OpKind.MULTIPLY, OpKind.MULTIPLY_RAW})

    def _plan_lifts(self, program: HEProgram,
                    order: dict[int, int]) -> dict[int, int]:
        """Which Mult operands are worth lifting once?

        Every node that at least two distinct pending Mult nodes
        consume, keyed to the position in ``program.nodes`` of its last
        Mult consumer — where its :class:`~repro.fv.evaluator.Lifted`
        rows stop being needed. A node one Mult consumes (``x * x``
        included) is lifted inside that Mult, as always.
        """
        mults: dict[int, set[int]] = {}
        for node in program.nodes:
            if node.op in self._MULT_OPS and node.cached is None:
                for arg in node.args:
                    mults.setdefault(id(arg), set()).add(order[id(node)])
        return {key: max(users) for key, users in mults.items()
                if len(users) >= 2}

    # -- node dispatch -----------------------------------------------------------------

    def _execute_hoisted(self, group: tuple[ExprNode, ...]) -> int:
        """Materialise a hoisted rotation group off one digit transform.

        All pending members share their source's digit-decomposition
        NTT via :meth:`~repro.fv.galois.GaloisEngine.apply_many`;
        results land in each member's graph cache, so the normal node
        loop sees them as already computed. An identity member is left
        to :meth:`_execute`, which returns its operand.
        """
        session = self.session
        n = session.params.n
        source = group[0].args[0]
        pending = [m for m in group
                   if m.cached is None and canonical_steps(m.payload, n)]
        if not pending:
            return 0
        keys = {
            canonical_steps(m.payload, n): session.rotation_key(m.payload)
            for m in pending
        }
        results = session.galois.apply_many(source.cached, keys)
        for member in pending:
            member.cached = results[canonical_steps(member.payload, n)]
        return len(pending)

    def _mult_operands(self, node: ExprNode, lift_until: dict[int, int],
                       lifted: dict[int, Lifted]) -> list:
        """A Mult's two operands: the held :class:`Lifted` rows of a
        planned operand (lifting it here if this is its first Mult
        consumer — both operands in one call when both are due), the
        ciphertext itself otherwise. A repeated operand comes back as
        the same object twice, which Mult squares."""
        due = [arg for arg in dict.fromkeys(node.args)
               if id(arg) in lift_until and id(arg) not in lifted]
        held = self.session.evaluator.lift(*(arg.cached for arg in due))
        lifted.update(zip((id(arg) for arg in due), held, strict=True))
        return [lifted.get(id(arg), arg.cached) for arg in node.args]

    def _execute(self, node: ExprNode, lift_until: dict[int, int],
                 lifted: dict[int, Lifted]) -> Ciphertext:
        session = self.session
        context = session.context
        args = [arg.cached for arg in node.args]
        if node.op is OpKind.INPUT:
            raise ParameterError(
                "program has an unbound input (wrap() a ciphertext first)"
            )
        if node.op is OpKind.ADD:
            return context.add(args[0], args[1])
        if node.op is OpKind.SUB:
            return context.sub(args[0], args[1])
        if node.op is OpKind.NEGATE:
            return context.negate(args[0])
        if node.op is OpKind.ADD_PLAIN:
            return context.add_plain(
                args[0], node.payload,
                delta_m_ntt=session.plain_delta_ntt(node.payload),
            )
        if node.op is OpKind.MUL_PLAIN:
            return context.mul_plain(
                args[0], node.payload,
                m_ntt=session.plain_ntt(node.payload),
            )
        if node.op is OpKind.MULTIPLY_RAW:
            # Lazy-relin placement: the three-part tensor result flows
            # into an ADD tree; the deferred RELINEARIZE at its root
            # folds back to two parts.
            return session.evaluator.multiply_raw(
                *self._mult_operands(node, lift_until, lifted))
        if node.op is OpKind.MULTIPLY:
            return session.evaluator.multiply(
                *self._mult_operands(node, lift_until, lifted),
                session.keys.relin)
        if node.op is OpKind.RELINEARIZE:
            return session.evaluator.relinearize(args[0], session.keys.relin)
        if node.op is OpKind.ROTATE:
            if canonical_steps(node.payload, session.params.n) == 0:
                # The identity rotation: no key, no switch, no noise.
                return args[0]
            return session.galois.apply(args[0],
                                        session.rotation_key(node.payload))
        if node.op is OpKind.SUM_SLOTS:
            return session.galois.sum_all_slots(
                args[0], session.summation_keys()
            )
        raise ParameterError(f"unknown op {node.op!r}")  # pragma: no cover
