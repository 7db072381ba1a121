"""Parameter-set scaling estimates (paper Sec. VI-D, Table V).

The paper extrapolates from its measured (n = 2^12, log q = 180) design
point with an explicit iterative rule: each doubling of both the
polynomial degree and the coefficient size is ~4.34x more computation;
doubling the number of RPAUs and lift/scale cores (~2x logic and DSP)
brings the net computation increase to ~2.17x; off-chip transfer grows
~4x; and the polynomial storage (BRAM) grows ~4x. This module applies the
same rule starting from *our modelled* base point, so Table V regenerates
from the simulator rather than from hard-coded paper numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .resources import Utilization

COMPUTE_GROWTH_PER_DOUBLING = 2.17
COMM_GROWTH_PER_DOUBLING = 4.0
LOGIC_GROWTH_PER_DOUBLING = 2
BRAM_GROWTH_PER_DOUBLING = 4


@dataclass(frozen=True)
class ScalingPoint:
    """One row of Table V (single coprocessor)."""

    n: int
    log2_q: int
    resources: Utilization
    compute_seconds: float
    comm_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.comm_seconds


def scaling_table(base_resources: Utilization, base_compute_seconds: float,
                  base_comm_seconds: float) -> list[ScalingPoint]:
    """Apply the paper's Sec. VI-D estimation model iteratively.

    ``base_*`` come from the measured/modelled single-coprocessor design
    point (n = 2^12, log q = 180); each of Table V's three further rows
    doubles n and log q.
    """
    points = [
        ScalingPoint(4096, 180, base_resources,
                     base_compute_seconds, base_comm_seconds)
    ]
    current = points[0]
    for _ in range(3):
        resources = Utilization(
            luts=current.resources.luts * LOGIC_GROWTH_PER_DOUBLING,
            regs=current.resources.regs * LOGIC_GROWTH_PER_DOUBLING,
            bram36=current.resources.bram36 * BRAM_GROWTH_PER_DOUBLING,
            dsps=current.resources.dsps * LOGIC_GROWTH_PER_DOUBLING,
        )
        current = ScalingPoint(
            n=current.n * 2,
            log2_q=current.log2_q * 2,
            resources=resources,
            compute_seconds=(current.compute_seconds
                             * COMPUTE_GROWTH_PER_DOUBLING),
            comm_seconds=current.comm_seconds * COMM_GROWTH_PER_DOUBLING,
        )
        points.append(current)
    return points
