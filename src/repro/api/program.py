"""Lazy HE expression graphs and the :class:`HEProgram` they compile to.

Arithmetic on :class:`CiphertextHandle` objects does not touch the FV
evaluator — it records an expression node. The captured graph compiles
into an :class:`HEProgram`, which is the unit both executors understand:

* :class:`~repro.api.backends.LocalBackend` walks the graph over the
  functional :class:`~repro.fv.evaluator.Evaluator` /
  :class:`~repro.fv.galois.GaloisEngine` and produces real ciphertexts;
* :class:`~repro.api.simulated.SimulatedBackend` lowers every node to a
  priced :class:`~repro.system.workloads.Job` (with the operation's real
  polynomial-transfer footprint) and plays the stream through the
  serving runtime or the multi-FPGA cluster.

Programs carry static checks: multiplicative-depth accounting and a
worst-case noise walk over :class:`~repro.fv.noise_model.NoiseModel`, so
a program that cannot decrypt is rejected before any backend runs it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from ..errors import NoiseBudgetExhausted, ParameterError
from ..fv.ciphertext import Ciphertext
from ..fv.encoder import Plaintext
from ..fv.galois import canonical_steps
from ..fv.noise_model import NoiseModel
from ..params import ParameterSet
from ..system.workloads import JobKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import Session


class OpKind(Enum):
    """Graph node operations (the client-visible HE instruction set)."""

    INPUT = "input"
    ADD = "add"
    SUB = "sub"
    NEGATE = "negate"
    MULTIPLY = "multiply"
    ADD_PLAIN = "add_plain"
    MUL_PLAIN = "mul_plain"
    ROTATE = "rotate"
    SUM_SLOTS = "sum_slots"
    #: FV.Mult *without* relinearisation — a three-part intermediate.
    #: Only the optimiser emits these (lazy-relin placement); handle
    #: arithmetic always builds MULTIPLY.
    MULTIPLY_RAW = "multiply_raw"
    #: Fold a three-part ciphertext back to two parts (one keyswitch).
    RELINEARIZE = "relinearize"


#: Node ops that consume one level of multiplicative depth.
_DEPTH_OPS = frozenset({OpKind.MULTIPLY, OpKind.MULTIPLY_RAW})


def sum_slots_rounds(n: int) -> int:
    """Rotate-and-add rounds one SUM_SLOTS expands to: log2(n/2)
    power-of-two row rotations plus the row-folding conjugation.

    This is the *modelled* count — the ROTATE jobs the simulated
    coprocessor (which has no hoisting) runs, and the rounds the
    worst-case noise walk takes. The functional engine runs
    ceil(rounds / 2) hoisted radix-4 rounds
    (:func:`repro.fv.galois.summation_rounds`) with the same worst-case
    noise: v -> 4v + 3e is two v -> 2v + e steps."""
    return max((n // 2).bit_length() - 1, 0) + 1


class ExprNode:
    """One node of the lazy expression DAG (identity-hashed).

    ``payload`` depends on the op: the bound :class:`Ciphertext` for
    INPUT nodes, the :class:`Plaintext` operand for the ``*_PLAIN`` ops,
    the step count for ROTATE. ``cached`` holds the materialised
    ciphertext once a local execution has computed this node, so
    incremental flows (decrypt an intermediate, keep building) never
    recompute shared subexpressions.
    """

    #: ``__weakref__`` lets the cross-request resident-operand caches
    #: key entries on nodes without pinning the expression graph.
    __slots__ = ("op", "args", "payload", "depth", "cached",
                 "__weakref__")

    def __init__(self, op: OpKind, args: tuple[ExprNode, ...] = (),
                 payload=None) -> None:
        self.op = op
        self.args = args
        self.payload = payload
        base = max((arg.depth for arg in args), default=0)
        self.depth = base + (1 if op in _DEPTH_OPS else 0)
        self.cached: Ciphertext | None = payload if op is OpKind.INPUT \
            else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExprNode({self.op.value}, depth={self.depth})"


class CiphertextHandle:
    """An opaque reference to an (eventual) ciphertext.

    Handles are what :meth:`Session.encrypt` returns and what every
    homomorphic operator produces; they stay lazy until a backend runs
    the compiled program (or :meth:`Session.decrypt` forces one).
    Python arithmetic builds the graph::

        reply = h1 * h2 + h3          # cipher-cipher ops
        scaled = reply * 3            # plaintext op (encoded by session)
        total = sum_slots(scaled)     # rotate-and-add reduction

    Mixed-session arithmetic is rejected: a handle is only meaningful
    under the keys of the session that minted it.
    """

    __slots__ = ("node", "session")

    def __init__(self, node: ExprNode, session: Session) -> None:
        self.node = node
        self.session = session

    # -- introspection -------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Multiplicative depth consumed so far."""
        return self.node.depth

    @property
    def is_materialized(self) -> bool:
        return self.node.cached is not None

    @property
    def ciphertext(self) -> Ciphertext:
        """The concrete ciphertext (materialising lazily if needed), in
        the evaluation domain every two-part ciphertext lives in."""
        if self.node.cached is None:
            self.session.run(self)
        return self.node.cached

    # -- graph-building helpers ------------------------------------------------------

    def _derive(self, op: OpKind, *args: CiphertextHandle,
                payload=None) -> CiphertextHandle:
        nodes = (self.node,) + tuple(a.node for a in args)
        return CiphertextHandle(ExprNode(op, nodes, payload), self.session)

    def _coerce(self, other) -> CiphertextHandle | Plaintext | None:
        """Classify an operand: handle, plaintext, or encodable value."""
        if isinstance(other, CiphertextHandle):
            if other.session is not self.session:
                raise ParameterError(
                    "cannot mix handles from different sessions"
                )
            return other
        if isinstance(other, Plaintext):
            return other
        try:
            return self.session.encode(other)
        except (TypeError, ValueError):
            return None

    # -- operators --------------------------------------------------------------------

    def __add__(self, other):
        operand = self._coerce(other)
        if isinstance(operand, CiphertextHandle):
            return self._derive(OpKind.ADD, operand)
        if isinstance(operand, Plaintext):
            return self._derive(OpKind.ADD_PLAIN, payload=operand)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        operand = self._coerce(other)
        if isinstance(operand, CiphertextHandle):
            return self._derive(OpKind.SUB, operand)
        if isinstance(operand, Plaintext):
            # h - p == h + (-p): one ADD_PLAIN with the negated encoding.
            return self._derive(
                OpKind.ADD_PLAIN,
                payload=self.session.negate_plain(operand),
            )
        return NotImplemented

    def __rsub__(self, other):
        # plain - handle = ADD_PLAIN(NEGATE(handle), plain)
        operand = self._coerce(other)
        if isinstance(operand, Plaintext):
            return self._derive(OpKind.NEGATE)._derive(
                OpKind.ADD_PLAIN, payload=operand
            )
        return NotImplemented

    def __neg__(self):
        return self._derive(OpKind.NEGATE)

    def __mul__(self, other):
        operand = self._coerce(other)
        if isinstance(operand, CiphertextHandle):
            return self._derive(OpKind.MULTIPLY, operand)
        if isinstance(operand, Plaintext):
            return self._derive(OpKind.MUL_PLAIN, payload=operand)
        return NotImplemented

    __rmul__ = __mul__

    def rotate(self, steps: int) -> CiphertextHandle:
        """Rotate the batching slots by ``steps`` (Galois automorphism)."""
        return self._derive(OpKind.ROTATE, payload=int(steps))

    def sum_slots(self) -> CiphertextHandle:
        """Rotate-and-add: every slot ends up holding the slot total."""
        return self._derive(OpKind.SUM_SLOTS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "materialized" if self.is_materialized else "lazy"
        return (f"CiphertextHandle({self.node.op.value}, "
                f"depth={self.depth}, {state})")


def rotate(handle: CiphertextHandle, steps: int) -> CiphertextHandle:
    """Free-function spelling of :meth:`CiphertextHandle.rotate`."""
    return handle.rotate(steps)


def sum_slots(handle: CiphertextHandle) -> CiphertextHandle:
    """Free-function spelling of :meth:`CiphertextHandle.sum_slots`."""
    return handle.sum_slots()


# -- lowering to the job stream --------------------------------------------------------


@dataclass(frozen=True)
class LoweredOp:
    """One serving-runtime job lowered from a graph node.

    ``polys_in`` counts only polynomial bursts the client actually
    uploads for this op (fresh INPUT operands and plaintext operands);
    operands produced by earlier ops stay resident in the server's DDR
    and cost nothing to move again — as do INPUT operands the server
    already holds from a previous request (the cross-request
    resident-operand cache), which lower with ``cached_inputs`` > 0
    and zero transfer. ``polys_out`` is non-zero only for program
    outputs — the reply the client downloads. Residency changes only
    these transfers: the op's compute is its kind's compiled program,
    priced by :meth:`~repro.system.server.CostModel.compute_seconds`.
    """

    kind: JobKind
    polys_in: int
    polys_out: int
    source: OpKind
    #: INPUT operands of this op that were served from the server's
    #: cross-request resident cache (each saved one ciphertext upload).
    cached_inputs: int = 0
    #: Indices (into the lowered op list) of the ops producing this
    #: op's operands — the intra-request dependency edges
    #: :meth:`~repro.api.simulated.LoweredProgram.critical_path_seconds`
    #: walks. INPUT operands have no producing op and do not appear.
    deps: tuple[int, ...] = ()


_JOB_KINDS = {
    OpKind.ADD: JobKind.ADD,
    OpKind.SUB: JobKind.ADD,
    OpKind.NEGATE: JobKind.ADD,
    OpKind.ADD_PLAIN: JobKind.ADD,
    OpKind.MULTIPLY: JobKind.MULT,
    OpKind.MUL_PLAIN: JobKind.MUL_PLAIN,
    OpKind.ROTATE: JobKind.ROTATE,
    OpKind.MULTIPLY_RAW: JobKind.MULT_RAW,
    OpKind.RELINEARIZE: JobKind.RELIN,
}

#: Polynomials per fresh two-part ciphertext on the wire.
_POLYS_PER_CT = 2
#: A plaintext operand travels as one (narrow) polynomial burst.
_POLYS_PER_PLAIN = 1


class HEProgram:
    """A compiled HE computation: topologically ordered expression DAG.

    The same program object drives both executors — that is the point
    of the facade: ``LocalBackend(session).run(program)`` returns real
    ciphertexts, ``SimulatedBackend.over_cluster(...).run(program,
    requests=1000)`` returns simulated latency percentiles, and nothing
    about the program changes between the two.
    """

    def __init__(self, outputs: Mapping[str, ExprNode],
                 params: ParameterSet, *, name: str = "program",
                 check: bool = True) -> None:
        if not outputs:
            raise ParameterError("a program needs at least one output")
        self.name = name
        self.params = params
        self.outputs = dict(outputs)
        self.nodes = self._topo_sort(self.outputs.values())
        self.inputs = [n for n in self.nodes if n.op is OpKind.INPUT]
        #: Rotation-hoisting groups (tuples of ROTATE nodes sharing one
        #: source), attached by the optimiser's hoist analysis; the
        #: resident executor computes each group's shared digit
        #: transform once.
        self.hoist_groups: list[tuple[ExprNode, ...]] = []
        #: The :class:`~repro.optim.OptimizationReport` that produced
        #: this program, when it came out of the pass stack.
        self.optimization = None
        if check:
            self.check_noise()

    @staticmethod
    def _topo_sort(roots: Iterable[ExprNode]) -> list[ExprNode]:
        """Iterative post-order DFS (graphs can be deep; no recursion)."""
        order: list[ExprNode] = []
        seen: set[int] = set()
        for root in roots:
            if id(root) in seen:
                continue
            stack: list[tuple[ExprNode, bool]] = [(root, False)]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    order.append(node)
                    continue
                if id(node) in seen:
                    continue
                seen.add(id(node))
                stack.append((node, True))
                for arg in node.args:
                    if id(arg) not in seen:
                        stack.append((arg, False))
        return order

    # -- static accounting -------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Multiplicative depth of the deepest output."""
        return max(node.depth for node in self.outputs.values())

    @property
    def num_ops(self) -> int:
        """Graph nodes that execute (everything but the inputs)."""
        return len(self.nodes) - len(self.inputs)

    def op_counts(self) -> dict[OpKind, int]:
        counts: dict[OpKind, int] = {}
        for node in self.nodes:
            if node.op is not OpKind.INPUT:
                counts[node.op] = counts.get(node.op, 0) + 1
        return counts

    def rotation_steps(self) -> list[int]:
        """Distinct rotation amounts the program needs a key for,
        normalised the way the session's Galois-key cache keys them
        (modulo the rotation group's order; the identity needs none)."""
        steps = {
            canonical_steps(node.payload, self.params.n)
            for node in self.nodes if node.op is OpKind.ROTATE
        }
        return sorted(steps - {0})

    @property
    def uses_sum_slots(self) -> bool:
        return any(n.op is OpKind.SUM_SLOTS for n in self.nodes)

    def static_noise_bits(self) -> dict[str, float]:
        """Worst-case remaining noise budget (bits) of every output.

        Walks the graph through the analytic
        :class:`~repro.fv.noise_model.NoiseModel` bounds, assuming every
        INPUT is a fresh encryption. Being worst-case bounds, these run
        a few bits below what a real execution measures — a *positive*
        result here guarantees decryptability.
        """
        model = NoiseModel(self.params)
        noise: dict[int, float] = {}

        def keyswitch_round(value: float) -> float:
            """One rotate-and-add level: ct + keyswitched(rotated ct)."""
            return model.add_bound(value, model.relin_bound(value))

        for node in self.nodes:
            args = [noise[id(a)] for a in node.args]
            if node.op is OpKind.INPUT:
                value = model.fresh_bound()
            elif node.op in (OpKind.ADD, OpKind.SUB):
                value = model.add_bound(args[0], args[1])
            elif node.op is OpKind.NEGATE:
                value = args[0]
            elif node.op is OpKind.ADD_PLAIN:
                value = model.add_plain_bound(args[0])
            elif node.op is OpKind.MUL_PLAIN:
                value = model.mul_plain_bound(args[0])
            elif node.op is OpKind.MULTIPLY:
                value = model.mult_relin_bound(args[0], args[1])
            elif node.op is OpKind.MULTIPLY_RAW:
                value = model.mult_bound(args[0], args[1])
            elif node.op in (OpKind.RELINEARIZE, OpKind.ROTATE):
                value = model.relin_bound(args[0])
            else:  # SUM_SLOTS: log2(n/2) rotation levels + conjugation
                value = args[0]
                for _ in range(sum_slots_rounds(self.params.n)):
                    value = keyswitch_round(value)
            noise[id(node)] = value
        return {
            label: model.budget_bits(noise[id(node)])
            for label, node in self.outputs.items()
        }

    def check_noise(self) -> None:
        """Raise :class:`NoiseBudgetExhausted` if any output could fail.

        This is the compile-time guarantee: programs that pass decrypt
        correctly on every parameter-respecting execution.
        """
        for label, bits in self.static_noise_bits().items():
            if bits <= 0:
                raise NoiseBudgetExhausted(
                    f"program {self.name!r} output {label!r} exhausts the "
                    f"noise budget (depth {self.depth}, worst-case budget "
                    f"{bits:.1f} bits) — shrink the depth or grow q"
                )

    # -- lowering ----------------------------------------------------------------------

    def lower(self, resident_inputs: Iterable[ExprNode] = ()
              ) -> list[LoweredOp]:
        """Lower the graph to the serving runtime's job stream.

        SUM_SLOTS macro-expands into its log2(n/2) + 1 rotation +
        addition rounds so the simulated cost reflects what the
        hardware would actually execute. Transfer footprints follow the
        resident-intermediate model documented on :class:`LoweredOp`;
        INPUT nodes listed in ``resident_inputs`` are already held by
        the server (a cross-request resident-operand cache hit) and
        price at **zero** upload transfer, recorded per op in
        ``cached_inputs``.
        """
        output_ids = {id(node) for node in self.outputs.values()}
        resident_ids = {id(node) for node in resident_inputs}
        uploaded: set[int] = set()
        ops: list[LoweredOp] = []
        #: Node id -> index of the lowered op producing its value (for
        #: SUM_SLOTS, the final ADD of its expansion). INPUT operands
        #: have no producer and contribute no dependency edge.
        producer: dict[int, int] = {}
        for node in self.nodes:
            if node.op is OpKind.INPUT:
                continue
            # Each fresh INPUT is uploaded once, at its first consumer;
            # after that it is just as resident as any intermediate.
            # Server-cached inputs never upload at all.
            uploads = 0
            cached = 0
            for arg in node.args:
                if arg.op is OpKind.INPUT and id(arg) not in uploaded:
                    uploaded.add(id(arg))
                    if id(arg) in resident_ids:
                        cached += 1
                    else:
                        uploads += _POLYS_PER_CT
            if node.op in (OpKind.ADD_PLAIN, OpKind.MUL_PLAIN):
                uploads += _POLYS_PER_PLAIN
            downloads = _POLYS_PER_CT if id(node) in output_ids else 0
            deps = tuple(
                producer[id(arg)] for arg in node.args
                if id(arg) in producer
            )
            if node.op is OpKind.SUM_SLOTS:
                rounds = sum_slots_rounds(self.params.n)
                # result = arg; per round: result += rotate(result) —
                # each rotation depends on the running accumulator, the
                # addition on both accumulator and rotation.
                acc: tuple[int, ...] = deps
                for i in range(rounds):
                    last = i == rounds - 1
                    first = i == 0
                    ops.append(LoweredOp(JobKind.ROTATE,
                                         uploads if first else 0, 0,
                                         node.op,
                                         cached_inputs=cached if first
                                         else 0,
                                         deps=acc))
                    rot = len(ops) - 1
                    ops.append(LoweredOp(JobKind.ADD, 0,
                                         downloads if last else 0, node.op,
                                         deps=acc + (rot,)))
                    acc = (len(ops) - 1,)
                producer[id(node)] = len(ops) - 1
                continue
            ops.append(LoweredOp(_JOB_KINDS[node.op], uploads, downloads,
                                 node.op, cached_inputs=cached, deps=deps))
            producer[id(node)] = len(ops) - 1
        return ops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HEProgram({self.name!r}, ops={self.num_ops}, "
                f"depth={self.depth}, outputs={list(self.outputs)})")
