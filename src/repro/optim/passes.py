"""The optimiser passes: rewrites over the lazy expression DAG.

Every pass consumes an ``outputs`` mapping (label -> root node) and
produces a new one. Rewrites are **non-destructive**: user-visible nodes
are never mutated (handles, graph caches and the resident-operand
caches all key on node identity), so passes rebuild bottom-up with a
memo and return the *original* node object whenever nothing under it
changed — an unchanged subgraph keeps its identity, its ``cached``
ciphertext and its cache entries. INPUT nodes are always reused by
identity for the same reason.

The default stack (see :func:`repro.optim.default_passes`):

* :class:`RotationCanonicalizePass` — rotation algebra: steps reduce
  mod n/2 (the slot-row period of the generator 3), chained rotations
  compose, zero rotations and double negations vanish.
* :class:`CsePass` — value-numbering common-subexpression elimination
  with canonical hashing (commutative operands sorted, plaintext
  payloads compared by value), which also drops dead code.
* :class:`RotationFoldPass` — keyswitch folding across linearity:
  ``sum_slots(a) + sum_slots(b)`` becomes ``sum_slots(a + b)`` (one
  ladder instead of two) and ``rotate(a, k) + rotate(b, k)`` becomes
  ``rotate(a + b, k)``; both strictly reduce worst-case noise.
* :class:`RelinPlacementPass` — lazy relinearisation: sums over
  single-consumer products are computed on three-part intermediates
  and folded back with **one** deferred RELINEARIZE at the root.
* :class:`RotationHoistPass` — analysis pass that groups distinct-step
  rotations of one source so the local executor computes the shared
  digit-decomposition NTT once per group (Halevi–Shoup hoisting).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field

from ..api.program import ExprNode, HEProgram, OpKind
from ..fv.encoder import Plaintext
from ..fv.galois import canonical_steps
from ..params import ParameterSet

#: run() result: (new outputs, rewrites applied, detail counters).
PassResult = tuple[dict[str, ExprNode], int, dict]


def payload_key(node: ExprNode):
    """Canonical, hashable view of a node's payload (for CSE keys and
    fingerprints). Plaintext operands compare by value, so two separate
    encodings of the same constant still merge."""
    payload = node.payload
    if node.op is OpKind.ROTATE:
        return int(payload)
    if isinstance(payload, Plaintext):
        return (int(payload.t), payload.coeffs.tobytes())
    return payload


def consumer_counts(outputs: dict[str, ExprNode],
                    order: list[ExprNode]) -> dict[int, int]:
    """Graph-consumer count per node id. Program outputs count one
    extra consumer — the client download — so "single use" tests can
    never rewrite away an externally visible value."""
    counts: dict[int, int] = {}
    for node in order:
        for arg in node.args:
            counts[id(arg)] = counts.get(id(arg), 0) + 1
    for node in outputs.values():
        counts[id(node)] = counts.get(id(node), 0) + 1
    return counts


def rebuild(outputs: dict[str, ExprNode],
            transform: Callable[[ExprNode, tuple[ExprNode, ...]],
                                ExprNode | None],
            on_copy: Callable[[ExprNode, ExprNode], None] | None = None,
            ) -> dict[str, ExprNode]:
    """Bottom-up rebuild with identity reuse.

    ``transform(node, new_args)`` returns a replacement node or ``None``
    for "no rewrite here"; in the latter case the node is reused as-is
    when its arguments are unchanged, or copied with the new arguments
    (``on_copy`` hears about such structural copies so passes can carry
    bookkeeping like consumer counts over to them).
    """
    order = HEProgram._topo_sort(outputs.values())
    memo: dict[int, ExprNode] = {}
    for node in order:
        if node.op is OpKind.INPUT:
            memo[id(node)] = node
            continue
        new_args = tuple(memo[id(a)] for a in node.args)
        out = transform(node, new_args)
        if out is None:
            if new_args == node.args:
                out = node
            else:
                out = ExprNode(node.op, new_args, node.payload)
                if on_copy is not None:
                    on_copy(node, out)
        memo[id(node)] = out
    return {label: memo[id(node)] for label, node in outputs.items()}


@dataclass
class PassContext:
    """Shared state the manager threads through the stack."""

    params: ParameterSet
    #: Rotation-hoisting groups collected by the analysis pass; the
    #: manager attaches them to the optimised program.
    hoist_groups: list[tuple[ExprNode, ...]] = field(default_factory=list)


class Pass(ABC):
    """One rewrite (or analysis) over the expression DAG."""

    name = "pass"

    @abstractmethod
    def run(self, outputs: dict[str, ExprNode],
            ctx: PassContext) -> PassResult: ...


class RotationCanonicalizePass(Pass):
    """Normalise the rotation algebra before anything hashes nodes.

    The slot generator 3 has multiplicative order n/2 mod 2n, so
    ``rotate(x, k)`` depends only on ``k mod n/2``: steps reduce into
    [0, n/2), ``rotate(rotate(x, a), b)`` composes to
    ``rotate(x, a + b)`` (tau_3^a . tau_3^b = tau_3^(a+b)) and a
    zero rotation is the identity. ``--x`` collapses too.
    """

    name = "canonicalize"

    def run(self, outputs: dict[str, ExprNode],
            ctx: PassContext) -> PassResult:
        n = ctx.params.n
        rewrites = 0

        def transform(node: ExprNode,
                      new_args: tuple[ExprNode, ...]) -> ExprNode | None:
            nonlocal rewrites
            if (node.op is OpKind.NEGATE
                    and new_args[0].op is OpKind.NEGATE):
                rewrites += 1
                return new_args[0].args[0]
            if node.op is not OpKind.ROTATE:
                return None
            steps = canonical_steps(node.payload, n)
            inner = new_args[0]
            # Bottom-up traversal means `inner` is already canonical,
            # so one composition step collapses any rotation chain.
            if inner.op is OpKind.ROTATE:
                steps = canonical_steps(steps + inner.payload, n)
                inner = inner.args[0]
            if steps == 0:
                rewrites += 1
                return inner
            if inner is new_args[0] and steps == int(node.payload):
                return None
            rewrites += 1
            return ExprNode(OpKind.ROTATE, (inner,), steps)

        return rebuild(outputs, transform), rewrites, {}


class CsePass(Pass):
    """Value-numbering CSE with canonical node hashing.

    Two nodes merge when they compute the same value: same op, same
    canonical payload (rotation steps as ints, plaintexts by value) and
    value-equal arguments — sorted first for the commutative ops, so
    ``a * b`` and ``b * a`` share. Rebuilding from the outputs also
    drops dead code. INPUT nodes are value-numbered by identity: two
    encryptions are never interchangeable, even of equal plaintexts.
    """

    name = "cse"

    _COMMUTATIVE = frozenset(
        {OpKind.ADD, OpKind.MULTIPLY, OpKind.MULTIPLY_RAW}
    )

    def run(self, outputs: dict[str, ExprNode],
            ctx: PassContext) -> PassResult:
        order = HEProgram._topo_sort(outputs.values())
        vn: dict[int, int] = {}          # id(rebuilt node) -> value number
        table: dict[tuple, ExprNode] = {}
        memo: dict[int, ExprNode] = {}
        rewrites = 0
        for node in order:
            if node.op is OpKind.INPUT:
                memo[id(node)] = node
                vn.setdefault(id(node), len(vn))
                continue
            new_args = tuple(memo[id(a)] for a in node.args)
            arg_vns = tuple(vn[id(a)] for a in new_args)
            if node.op in self._COMMUTATIVE:
                arg_vns = tuple(sorted(arg_vns))
            key = (node.op.value, payload_key(node), arg_vns)
            existing = table.get(key)
            if existing is not None:
                if existing is not node:
                    rewrites += 1
                memo[id(node)] = existing
                continue
            rebuilt = (node if new_args == node.args
                       else ExprNode(node.op, new_args, node.payload))
            table[key] = rebuilt
            vn[id(rebuilt)] = len(vn)
            memo[id(node)] = rebuilt
        new_outputs = {label: memo[id(node)]
                       for label, node in outputs.items()}
        return new_outputs, rewrites, {"merged": rewrites}


class RotationFoldPass(Pass):
    """Fold keyswitches across the linearity of rotations.

    Galois automorphisms are ring homomorphisms, so
    ``sum_slots(a) + sum_slots(b) == sum_slots(a + b)`` and
    ``rotate(a, k) + rotate(b, k) == rotate(a + b, k)``. Each fold
    replaces two keyswitch chains with one (a whole ladder, for
    SUM_SLOTS) at the price of one extra ADD — and *reduces* worst-case
    noise, since one keyswitch error term is added instead of two.
    Only single-consumer, non-output operands fold: a value someone
    else still reads must keep existing.
    """

    name = "rotation_fold"

    def run(self, outputs: dict[str, ExprNode],
            ctx: PassContext) -> PassResult:
        order = HEProgram._topo_sort(outputs.values())
        counts = consumer_counts(outputs, order)
        carried: dict[int, int] = {}
        rewrites = 0

        def uses(node: ExprNode) -> int:
            return carried.get(id(node), counts.get(id(node), 0))

        def foldable(a: ExprNode, b: ExprNode) -> bool:
            if a is b:
                return uses(a) == 2
            return uses(a) == 1 and uses(b) == 1

        def transform(node: ExprNode,
                      new_args: tuple[ExprNode, ...]) -> ExprNode | None:
            nonlocal rewrites
            if node.op is not OpKind.ADD:
                return None
            a, b = new_args
            out: ExprNode | None = None
            if (a.op is OpKind.SUM_SLOTS and b.op is OpKind.SUM_SLOTS
                    and foldable(a, b)):
                inner = ExprNode(OpKind.ADD, (a.args[0], b.args[0]))
                out = ExprNode(OpKind.SUM_SLOTS, (inner,))
            elif (a.op is OpKind.ROTATE and b.op is OpKind.ROTATE
                    and a.payload == b.payload and foldable(a, b)):
                inner = ExprNode(OpKind.ADD, (a.args[0], b.args[0]))
                out = ExprNode(OpKind.ROTATE, (inner,), a.payload)
            if out is None:
                return None
            rewrites += 1
            carried[id(out.args[0])] = 1
            # The replacement inherits the replaced ADD's consumers, so
            # a chain of folds (a whole reduction tree) keeps folding.
            carried[id(out)] = uses(node)
            return out

        def on_copy(node: ExprNode, copy: ExprNode) -> None:
            carried[id(copy)] = uses(node)

        new_outputs = rebuild(outputs, transform, on_copy)
        return new_outputs, rewrites, {"folded": rewrites}


class RelinPlacementPass(Pass):
    """Lazy relinearisation over sums of products.

    ``m1 + m2 + ... + mk`` where every ``mi`` is a single-consumer
    MULTIPLY becomes a three-part sum of MULTIPLY_RAW results with
    **one** deferred RELINEARIZE at the root — k keyswitches collapse
    to 1 (the standard BGV/BFV lazy-relin trick; noise improves too,
    one keyswitch error term instead of k). Multi-consumer products and
    products visible as outputs keep their embedded relinearisation:
    their two-part value is observable.
    """

    name = "relin_placement"

    def run(self, outputs: dict[str, ExprNode],
            ctx: PassContext) -> PassResult:
        order = HEProgram._topo_sort(outputs.values())
        counts = consumer_counts(outputs, order)
        sole: dict[int, ExprNode] = {}
        for node in order:
            for arg in node.args:
                sole[id(arg)] = node
        # raw_ok: this node can hand its single consumer a three-part
        # value (a product, or an ADD tree made entirely of them).
        raw_ok: dict[int, bool] = {}
        for node in order:
            if node.op is OpKind.MULTIPLY:
                raw_ok[id(node)] = counts.get(id(node), 0) == 1
            elif node.op is OpKind.ADD:
                raw_ok[id(node)] = (
                    counts.get(id(node), 0) == 1
                    and all(raw_ok.get(id(a), False) for a in node.args)
                )
        candidates = {
            id(node): node for node in order
            if node.op is OpKind.ADD
            and all(raw_ok.get(id(a), False) for a in node.args)
        }
        roles: dict[int, str] = {}
        leaves = 0
        roots = 0
        for cid, node in candidates.items():
            consumer = sole.get(cid)
            if (raw_ok.get(cid, False) and consumer is not None
                    and id(consumer) in candidates):
                continue        # interior of a larger merge
            roles[cid] = "root"
            roots += 1
            stack = list(node.args)
            while stack:
                arg = stack.pop()
                if arg.op is OpKind.ADD and raw_ok.get(id(arg), False):
                    roles[id(arg)] = "interior"
                    stack.extend(arg.args)
                elif (arg.op is OpKind.MULTIPLY
                        and raw_ok.get(id(arg), False)):
                    roles[id(arg)] = "leaf"
                    leaves += 1
        rewrites = 0

        def transform(node: ExprNode,
                      new_args: tuple[ExprNode, ...]) -> ExprNode | None:
            nonlocal rewrites
            role = roles.get(id(node))
            if role is None:
                return None
            if role == "leaf":
                return ExprNode(OpKind.MULTIPLY_RAW, new_args)
            if role == "interior":
                return ExprNode(OpKind.ADD, new_args)
            rewrites += 1
            return ExprNode(OpKind.RELINEARIZE,
                            (ExprNode(OpKind.ADD, new_args),))

        new_outputs = rebuild(outputs, transform)
        return new_outputs, rewrites, {
            "merged_products": leaves,
            "relins_saved": leaves - roots,
        }


class RotationHoistPass(Pass):
    """Group rotations of one source for a shared hoisted keyswitch.

    Pure analysis: rotations with distinct steps cannot merge, but when
    several of them read the *same* source, the expensive half of each
    keyswitch — the digit decomposition's stacked forward NTT — is a
    function of the source alone. The groups recorded here let the
    local executor run
    :meth:`~repro.fv.galois.GaloisEngine.apply_many`: one
    digit transform for the whole group, one cheap per-step fold each
    (Halevi–Shoup hoisting).
    """

    name = "rotation_hoist"

    def run(self, outputs: dict[str, ExprNode],
            ctx: PassContext) -> PassResult:
        order = HEProgram._topo_sort(outputs.values())
        by_source: dict[int, list[ExprNode]] = {}
        for node in order:
            if node.op is OpKind.ROTATE:
                by_source.setdefault(id(node.args[0]), []).append(node)
        groups: list[tuple[ExprNode, ...]] = []
        for members in by_source.values():
            distinct: dict[int, ExprNode] = {}
            for member in members:
                distinct.setdefault(int(member.payload), member)
            if len(distinct) >= 2:
                groups.append(tuple(distinct.values()))
        ctx.hoist_groups = groups
        shared = sum(len(g) - 1 for g in groups)
        return outputs, 0, {
            "groups": len(groups),
            "hoisted_digit_ntts": shared,
        }
