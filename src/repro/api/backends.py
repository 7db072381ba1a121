"""Program executors: the ``Backend`` protocol and the functional one.

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
from typing import Protocol, runtime_checkable

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
from .resident import ResidentOperandCache
from .session import Session


def _count_diff(before: dict[str, int],
                after: dict[str, int]) -> dict[str, int]:
    return {key: after[key] - before[key] for key in after
            if after[key] != before[key]}


@runtime_checkable
class Backend(Protocol):
    """Anything that can execute an :class:`HEProgram`."""

    def run(self, program: HEProgram, **kwargs):  # pragma: no cover
        ...


class ProgramResult:
    """Outputs of one functional execution, addressable by label.

    Each output is measured with the secret key at most once:
    :meth:`decrypt` and :meth:`noise_budget_bits` are views of the
    ``(plaintext, noise norm)`` pair :meth:`measure` holds. A verifying
    backend hands over the pairs its verification computed, so reading a
    verified result costs a decode; otherwise the pair is computed on
    first use.
    """

    def __init__(self, session: Session,
                 outputs: dict[str, CiphertextHandle],
                 trace: TraceReport | None = None,
                 measured: dict[str, tuple[Plaintext, int]] | None = None,
                 ) -> None:
        self.session = session
        self.outputs = outputs
        #: Wall-clock trace of the run that produced these outputs.
        self.trace = trace
        self._measured = dict(measured or {})

    def __getitem__(self, label: str) -> CiphertextHandle:
        return self.outputs[label]

    def handle(self, label: str = "out") -> CiphertextHandle:
        return self.outputs[label]

    def measure(self, label: str = "out") -> tuple[Plaintext, int]:
        """One output's ``(plaintext, noise norm)``, computed once."""
        if label not in self._measured:
            self._measured[label] = self.session.measure(
                self.outputs[label])
        return self._measured[label]

    def decrypt(self, label: str = "out", size: int | None = None):
        """Decode one output into the session encoder's domain."""
        return self.session.decode(self.measure(label)[0], size)

    def ciphertext(self, label: str = "out") -> Ciphertext:
        """One output's ciphertext in its *current* domain.

        Unlike :attr:`CiphertextHandle.ciphertext`, this does not force
        a coefficient-domain conversion — with a resident-emitting
        backend the result serialises straight into the NTT-domain wire
        format.
        """
        return self.outputs[label].node.cached

    def noise_budget_bits(self, label: str = "out") -> float:
        return budget_bits(self.session.params, self.measure(label)[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProgramResult({list(self.outputs)})"


class LocalBackend:
    """Execute a program functionally over the session's evaluator.

    Node results are cached on the expression graph, so overlapping
    programs (or a decrypt of an intermediate handle followed by more
    building) never recompute shared work. With ``verify=True`` every
    output is decrypted and its noise measured once, while it is still
    in the domain the executor produced it in — a budget under
    :data:`~repro.fv.noise.MIN_VERIFIED_BUDGET_BITS` means the
    decryption is garbage (a wrapped ciphertext reads just above zero,
    not below), and the backend refuses to return it; otherwise the
    measurement travels with the :class:`ProgramResult`, so the
    client's ``decrypt`` /
    ``noise_budget_bits`` do not repeat it. ``verify=False`` defers the
    measurement to the first of those calls.

    Intermediates stay in the evaluation domain across ADD / SUB /
    MUL_PLAIN / ROTATE / SUM_SLOTS chains, exactly as HEAX/Medha keep
    operands on-chip in NTT form: rotations become slot permutations
    plus a key switch that never leaves the NTT domain, plaintext
    multiplies are pointwise products against the session's
    plaintext-constant NTT pool, and — with the
    evaluation-domain base extension — MULTIPLY consumes resident
    operands directly and can emit a resident product, so conversions
    back to the coefficient domain happen only at the program's output
    boundary. A Mult operand that two or more Mult nodes consume is
    lifted q->Q once, by the first of them, and its
    :class:`~repro.fv.evaluator.Lifted` rows are held only until the
    last has run (``(((a*b)*a)*b)*a`` lifts ``a`` and ``b`` once each).
    :attr:`telemetry` reports the forward/inverse transform counts of
    the last run.

    Residency also spans *requests*. Born-resident inputs
    (``Session.encrypt(..., resident=True)`` or an NTT-domain wire
    load) are ingested without a coefficient round-trip; a bounded
    :class:`~repro.api.resident.ResidentOperandCache` keyed by handle
    remembers the resident form of every operand this backend has
    materialised, so a handle reused by a later program is restored
    from cache instead of re-transformed. ``resident_outputs=True``
    additionally skips the output boundary's inverse transform — the
    emit half of the resident pipeline, for results that will be
    serialised in the NTT-domain wire format or fed to further
    programs.
    """

    def __init__(self, session: Session, *, verify: bool = True,
                 resident_outputs: bool = False,
                 resident_cache_limit: int = 64,
                 executor: Executor | ExecutionConfig | str | None
                 = None) -> None:
        self.session = session
        self.verify = verify
        self.resident_outputs = resident_outputs
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
        self.resident_cache = ResidentOperandCache(resident_cache_limit,
                                                   name="local")
        #: Transform counts of the most recent :meth:`run`.
        self.last_transform_counts: dict[str, int] = {}
        #: Cache restores performed by the most recent :meth:`run`.
        self.last_cache_restores = 0
        #: Wall-clock trace of the most recent :meth:`run` — per-op
        #: spans (with transform-count diffs and nested engine
        #: transform spans) reducible to rollups and a critical path.
        self.last_trace: TraceReport | None = None
        #: Accumulated transform counts across all runs of this backend.
        self.total_transform_counts = {
            key: 0 for key in transform_counts()
        }

    @property
    def telemetry(self) -> dict:
        """Execution telemetry: transform counts, cache, executor mode,
        and what the executor did about BLAS threading."""
        blas = (BlasDecision(False, reason="ambient executor")
                if self.executor is None else self.executor.blas)
        return {
            "resident_outputs": self.resident_outputs,
            "executor": ("ambient" if self.executor is None
                         else self.executor.name),
            "workers": (0 if self.executor is None
                        else self.executor.workers),
            "blas": blas.as_dict(),
            "last_run": dict(self.last_transform_counts),
            "total": dict(self.total_transform_counts),
            "resident_cache": {
                **self.resident_cache.stats(),
                "last_run_restores": self.last_cache_restores,
            },
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
        tracer = Tracer("heprogram.run", kind="program")
        order = {id(node): i for i, node in enumerate(program.nodes)}
        poly_bytes = program.params.poly_bytes
        # Spans measure per-op wall clock; each op span also records
        # the transform-counter diff across its execution, so the
        # TraceReport's totals reconcile exactly with the run-level
        # registry diff (the tests assert the equality).
        scope = (use_executor(self.executor)
                 if self.executor is not None else nullcontext())
        with scope, tracer.activate():
            wants, lift_until = self._plan_domains(program, order)
            # A Mult operand reused by later Mults is lifted once, by
            # its first Mult consumer, and held here until its last one
            # has run; the dict dies with the run.
            lifted: dict[int, Lifted] = {}
            with tracer.span("restore_residents", kind="phase") as sp:
                self.last_cache_restores = self._restore_residents(
                    program, wants
                )
                sp.attrs["restores"] = self.last_cache_restores
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
                        node.cached = self._execute(node, wants, lift_until,
                                                    lifted)
                    sp.attrs["transforms"] = _count_diff(
                        op_before, transform_counts()
                    )
                for key in [k for k in lifted if lift_until[k] == i]:
                    del lifted[key]
            # Remember the resident operands that cross request
            # boundaries — program inputs and outputs. Intermediates
            # are deliberately not cached: they are never
            # boundary-converted (the graph cache keeps them resident
            # as long as their handles live), and a single wide program
            # would otherwise flush the bounded FIFO of every genuinely
            # reusable entry.
            boundary = list(program.inputs) + list(
                program.outputs.values()
            )
            for node in boundary:
                if node.cached is not None and node.cached.ntt_resident:
                    self.resident_cache.put(node, node.cached)
            # Verification is the one place an output is measured, and
            # it runs before the output boundary: a resident output
            # decrypts without the forward transforms its coefficient
            # form would need. Tracing it as a phase keeps the trace
            # totals equal to the run-level registry diff.
            measured: dict[str, tuple[Plaintext, int]] = {}
            if self.verify:
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
            # Output boundary: by default results leave the executor in
            # the coefficient domain (the legacy wire representation),
            # mirroring the download DMA of the paper's server; with
            # ``resident_outputs`` they stay in the evaluation domain
            # for the NTT-domain wire format. Either way the resident
            # form survives in the cache for cross-program reuse.
            context = self.session.context
            if not self.resident_outputs:
                with tracer.span("output_boundary", kind="phase") as sp:
                    bnd_before = transform_counts()
                    for node in program.outputs.values():
                        node.cached = context.to_coeff_ct(node.cached)
                    sp.attrs["transforms"] = _count_diff(
                        bnd_before, transform_counts()
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
        for key, value in self.last_transform_counts.items():
            self.total_transform_counts[key] += value
        return ProgramResult(self.session, outputs,
                             trace=self.last_trace, measured=measured)

    def _restore_residents(self, program: HEProgram,
                           wants: dict[int, bool]) -> int:
        """Swap already-materialised coefficient-domain operands for
        their cached resident forms where the domain plan wants them.

        This is what makes residency *cross-request*: an output the
        previous run converted at its boundary (or an input whose
        handle access degraded it) re-enters the evaluation domain via
        a cache hit instead of a fresh forward transform.
        """
        restores = 0
        for node in program.nodes:
            ct = node.cached
            if ct is None or ct.ntt_resident:
                continue
            if not wants.get(id(node), False):
                continue
            resident = self.resident_cache.get(node)
            if resident is not None:
                node.cached = resident
                restores += 1
        return restores

    # -- domain planning ---------------------------------------------------------------

    #: Ops that compute naturally in the evaluation domain — a node
    #: feeding one of these benefits from arriving NTT-resident.
    #: MULTIPLY joined the set with the evaluation-domain base
    #: extension (:func:`~repro.rns.lift.lift_hps_ntt`): resident
    #: operands now feed the tensor step directly, so a producer
    #: upstream of a Mult should stay resident rather than pay the
    #: boundary inverse transform. RELINEARIZE is deliberately *not* a
    #: sink: its c2 digits decompose raw coefficient residues, so its
    #: three-part input must stay coefficient-domain.
    _RESIDENT_SINKS = frozenset(
        {OpKind.ROTATE, OpKind.MUL_PLAIN, OpKind.SUM_SLOTS,
         OpKind.MULTIPLY, OpKind.MULTIPLY_RAW}
    )
    #: Domain-agnostic ops: they propagate their consumers' preference.
    _LINEAR_OPS = frozenset(
        {OpKind.ADD, OpKind.SUB, OpKind.NEGATE, OpKind.ADD_PLAIN}
    )
    #: Ops that start with Lift q->Q of both operands.
    _MULT_OPS = frozenset({OpKind.MULTIPLY, OpKind.MULTIPLY_RAW})

    def _plan_domains(self, program: HEProgram, order: dict[int, int]
                      ) -> tuple[dict[int, bool], dict[int, int]]:
        """Consumer analysis: which nodes should produce NTT-resident
        results, and which Mult operands are worth lifting once?

        Greedy residency wastes transforms when a rotation or plaintext
        multiply feeds straight into a coefficient-domain boundary (a
        program output): the forward transforms it saves come back as
        inverse transforms one node later. Walking the graph in
        reverse, a node wants to be resident exactly when some consumer
        computes in the evaluation domain — directly, or through a
        chain of domain-agnostic linear ops. MULTIPLY and MULTIPLY_RAW
        are always such consumers: every parameter set lies inside the
        NTT engine's envelope, so Mult lifts resident operands as they
        are.

        The second map is the lift plan: every node that at least two
        distinct pending Mult nodes consume, keyed to the position in
        ``program.nodes`` of its last Mult consumer — where its
        :class:`~repro.fv.evaluator.Lifted` rows stop being needed. A
        node one Mult consumes (``x * x`` included) is lifted inside
        that Mult, as always.
        """
        consumers: dict[int, list[ExprNode]] = {}
        for node in program.nodes:
            for arg in node.args:
                consumers.setdefault(id(arg), []).append(node)
        # With resident outputs the boundary conversion is skipped, so
        # the output nodes themselves want to be born resident — a
        # Mult-heavy chain then never materialises coefficients at all.
        out_ids = ({id(node) for node in program.outputs.values()}
                   if self.resident_outputs else set())
        wants: dict[int, bool] = {}
        for node in reversed(program.nodes):
            wants[id(node)] = id(node) in out_ids or any(
                user.op in self._RESIDENT_SINKS
                or (user.op in self._LINEAR_OPS and wants[id(user)])
                for user in consumers.get(id(node), ())
            )
        lift_until: dict[int, int] = {}
        for key, users in consumers.items():
            mults = {order[id(user)] for user in users
                     if user.op in self._MULT_OPS and user.cached is None}
            if len(mults) >= 2:
                lift_until[key] = max(mults)
        return wants, lift_until

    # -- node dispatch -----------------------------------------------------------------

    def _execute_hoisted(self, group: tuple[ExprNode, ...]) -> int:
        """Materialise a hoisted rotation group off one digit transform.

        All pending members share their source's digit-decomposition
        NTT via :meth:`~repro.fv.galois.GaloisEngine.apply_many_resident`;
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
        results = session.galois.apply_many_resident(source.cached, keys)
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

    def _execute(self, node: ExprNode, wants: dict[int, bool],
                 lift_until: dict[int, int],
                 lifted: dict[int, Lifted]) -> Ciphertext:
        session = self.session
        context = session.context
        args = [arg.cached for arg in node.args]
        resident_out = wants.get(id(node), False)
        if node.op is OpKind.INPUT:
            raise ParameterError(
                "program has an unbound input (wrap() a ciphertext first)"
            )
        if node.op in (OpKind.ADD, OpKind.SUB):
            if not resident_out and not all(
                ct.c0.ntt_domain for ct in args
            ):
                # No downstream benefit: align mixed operands onto the
                # coefficient domain instead of transforming forward.
                # Converted operands are written back to their nodes so
                # a shared subexpression never converts twice.
                for arg_node, ct in zip(node.args, args, strict=True):
                    if ct.c0.ntt_domain:
                        arg_node.cached = context.to_coeff_ct(ct)
                args = [arg.cached for arg in node.args]
            op = context.add if node.op is OpKind.ADD else context.sub
            return op(args[0], args[1])
        if node.op is OpKind.NEGATE:
            return context.negate(args[0])
        if node.op is OpKind.ADD_PLAIN:
            if args[0].c0.ntt_domain:
                return context.add_plain(
                    args[0], node.payload,
                    delta_m_ntt=session.plain_delta_ntt(node.payload),
                )
            return context.add_plain(args[0], node.payload)
        if node.op is OpKind.MUL_PLAIN:
            # MulPlain computes in the evaluation domain either way, so
            # a resident result is free — and in an add-tree of
            # plaintext products the deferred conversions all merge at
            # the root. The plaintext operand comes from the session's
            # NTT pool, and the operand's conversion is written back so
            # a shared subexpression transforms forward only once.
            node.args[0].cached = context.to_ntt_ct(args[0])
            return context.mul_plain(
                node.args[0].cached, node.payload,
                m_ntt=session.plain_ntt(node.payload),
            )
        if node.op is OpKind.MULTIPLY_RAW:
            # Lazy-relin placement: the three-part tensor result flows
            # into an ADD tree; the deferred RELINEARIZE at its root
            # folds back to two parts (always coefficient-domain — c2
            # feeds WordDecomp).
            return session.evaluator.multiply_raw(
                *self._mult_operands(node, lift_until, lifted))
        if node.op is OpKind.MULTIPLY:
            # Operands go in as they are, or as their held lifts: the
            # lift takes each part from the domain it lives in.
            return session.evaluator.multiply(
                *self._mult_operands(node, lift_until, lifted),
                session.keys.relin, resident=resident_out)
        if node.op is OpKind.RELINEARIZE:
            return session.evaluator.relinearize(args[0], session.keys.relin,
                                                 resident=resident_out)
        if node.op is OpKind.ROTATE:
            if canonical_steps(node.payload, session.params.n) == 0:
                # The identity rotation: no key, no switch, no noise.
                return args[0]
            key = session.rotation_key(node.payload)
            if args[0].c0.ntt_domain or resident_out:
                return session.galois.apply_resident(args[0], key)
            return session.galois.apply(args[0], key)
        if node.op is OpKind.SUM_SLOTS:
            # The internal rotate-and-add chain always benefits from
            # residency, whatever happens downstream.
            return session.galois.sum_all_slots_resident(
                args[0], session.summation_keys()
            )
        raise ParameterError(f"unknown op {node.op!r}")  # pragma: no cover
