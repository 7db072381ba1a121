"""The pass manager: run the stack, measure every pass, re-emit a program.

``optimize_program(program)`` is the one call the rest of the system
uses (``Session.compile(optimize=True)``, ``SimulatedBackend.lower``,
the CLI). It returns a *new* :class:`HEProgram` — sharing every
unchanged node with the original, so materialised ciphertexts and
resident operands survive — plus an
:class:`~repro.optim.stats.OptimizationReport` with per-pass
before/after stats, the one record of what the stack did. Each pass
runs under a ``pass`` span, so its wall clock shows up in whatever
trace is active.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..api.program import HEProgram
from ..obs import maybe_span
from .passes import (
    CsePass,
    Pass,
    PassContext,
    RelinPlacementPass,
    RotationCanonicalizePass,
    RotationFoldPass,
    RotationHoistPass,
)
from .stats import GraphStats, OptimizationReport, PassStats


def default_passes() -> list[Pass]:
    """The standard stack, in dependency order: canonical rotations
    first (so CSE hashes agree), folding before relin placement (folds
    create the product sums lazy relin merges), hoist analysis last
    (its groups must reference the final nodes)."""
    return [
        RotationCanonicalizePass(),
        CsePass(),
        RotationFoldPass(),
        RelinPlacementPass(),
        RotationHoistPass(),
    ]


class PassManager:
    """Run a pass pipeline over programs, with per-pass accounting."""

    def __init__(self, passes: Sequence[Pass] | None = None) -> None:
        self.passes = list(passes) if passes is not None \
            else default_passes()

    def optimize(self, program: HEProgram
                 ) -> tuple[HEProgram, OptimizationReport]:
        """Rewrite one program through the stack.

        The optimised program is built with ``check=False``: every pass
        preserves or improves the worst-case noise walk, so a program
        that passed compilation still passes, and one deliberately
        compiled unchecked stays unchecked.
        """
        outputs = dict(program.outputs)
        ctx = PassContext(params=program.params)
        stats: list[PassStats] = []
        # Pass i's `after` is pass i + 1's `before`: one GraphStats per
        # pass plus the input's.
        before_all = current = GraphStats.of(outputs, program.params)
        for p in self.passes:
            with maybe_span(p.name, kind="pass"):
                outputs, rewrites, details = p.run(outputs, ctx)
            after = GraphStats.of(outputs, program.params)
            stats.append(PassStats(p.name, current, after, rewrites,
                                   details))
            current = after
        optimized = HEProgram(outputs, program.params,
                              name=f"{program.name}+opt", check=False)
        optimized.hoist_groups = list(ctx.hoist_groups)
        report = OptimizationReport(
            program_name=program.name, passes=stats,
            before=before_all, after=current,
            hoist_groups=len(ctx.hoist_groups),
        )
        optimized.optimization = report
        return optimized, report


def optimize_program(program: HEProgram,
                     passes: Sequence[Pass] | None = None
                     ) -> tuple[HEProgram, OptimizationReport]:
    """Convenience wrapper: one program through (by default) the
    standard stack."""
    return PassManager(passes).optimize(program)
