"""The HEProgram optimiser: a compiler pass stack over expression DAGs.

Usage::

    from repro.optim import optimize_program

    optimized, report = optimize_program(program)
    print(f"{report.keyswitch_reduction():.0%} fewer keyswitches")

or, through the facade, ``session.compile(handle, optimize=True)``.
The stack rewrites for the costs that dominate the paper's
coprocessor — keyswitch operations (rotations, relinearisations,
sum-all-slots ladders) and redundant subexpressions — and records a
rotation-hoisting plan the local executor uses to share digit
transforms across rotations of one source.
"""

from .manager import PassManager, default_passes, optimize_program
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

__all__ = [
    "CsePass",
    "GraphStats",
    "OptimizationReport",
    "Pass",
    "PassContext",
    "PassManager",
    "PassStats",
    "RelinPlacementPass",
    "RotationCanonicalizePass",
    "RotationFoldPass",
    "RotationHoistPass",
    "default_passes",
    "optimize_program",
]
