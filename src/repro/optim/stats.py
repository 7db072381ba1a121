"""Graph statistics and the per-pass optimisation report.

Every pass run is bracketed by a :class:`GraphStats` snapshot so the
report can show exactly what each rewrite bought: op counts, DAG depth
and — the currency the paper's coprocessor actually spends — the number
of keyswitch operations the program will execute once lowered (every
ROTATE, every relinearisation inside a MULTIPLY or a deferred
RELINEARIZE, and the log2(n/2) + 1 rounds of every SUM_SLOTS ladder).
That is the *modelled* job count: the functional engine's ladder shares
one digit decomposition between the key switches of two rounds
(ceil(rounds / 2) hoisted rounds, ``repro.fv.galois.summation_rounds``),
which the modelled coprocessor cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api.program import ExprNode, HEProgram, OpKind, sum_slots_rounds
from ..params import ParameterSet

#: Keyswitches one graph node costs when lowered (SUM_SLOTS is handled
#: separately: it expands to ``sum_slots_rounds(n)`` of them).
_KEYSWITCH_OPS = {
    OpKind.ROTATE: 1,
    OpKind.MULTIPLY: 1,       # the embedded relinearisation
    OpKind.RELINEARIZE: 1,
}


@dataclass(frozen=True)
class GraphStats:
    """Static shape of one expression DAG (before or after a pass)."""

    num_ops: int
    num_inputs: int
    depth: int
    keyswitches: int
    op_counts: dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, outputs: dict[str, ExprNode],
           params: ParameterSet) -> GraphStats:
        nodes = HEProgram._topo_sort(outputs.values())
        counts: dict[str, int] = {}
        keyswitches = 0
        inputs = 0
        for node in nodes:
            if node.op is OpKind.INPUT:
                inputs += 1
                continue
            counts[node.op.value] = counts.get(node.op.value, 0) + 1
            if node.op is OpKind.SUM_SLOTS:
                keyswitches += sum_slots_rounds(params.n)
            else:
                keyswitches += _KEYSWITCH_OPS.get(node.op, 0)
        depth = max((n.depth for n in outputs.values()), default=0)
        return cls(num_ops=len(nodes) - inputs, num_inputs=inputs,
                   depth=depth, keyswitches=keyswitches,
                   op_counts=counts)


@dataclass(frozen=True)
class PassStats:
    """One pass execution: the graph before and after, and what moved."""

    name: str
    before: GraphStats
    after: GraphStats
    rewrites: int
    details: dict = field(default_factory=dict)


@dataclass
class OptimizationReport:
    """Everything one :meth:`PassManager.optimize` run did.

    Attached to the optimised program as ``program.optimization`` and
    rendered by ``python -m repro program`` / ``python -m repro trace``.
    """

    program_name: str
    passes: list[PassStats]
    before: GraphStats
    after: GraphStats
    hoist_groups: int = 0

    @property
    def keyswitches_saved(self) -> int:
        return self.before.keyswitches - self.after.keyswitches

    def keyswitch_reduction(self) -> float:
        """Fraction of lowered keyswitch ops the stack removed."""
        if self.before.keyswitches == 0:
            return 0.0
        return self.keyswitches_saved / self.before.keyswitches
