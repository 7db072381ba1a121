"""Lift q->Q units (paper Figs. 5 and 6).

Two architectures, as implemented in the paper's design-space exploration:

* :class:`HpsLiftUnit` (Fig. 6) — the fast variant. Block-level pipeline
  of five blocks over 30-bit arithmetic; Block 2 (seven parallel MACs,
  each a six-term sum of products) bounds the throughput at
  ``HPS_BLOCK_CYCLES`` (= 7) cycles per coefficient per core. The
  functional output reuses the *exact* fixed-point tables of
  :mod:`repro.rns.lift`, so the unit is bit-identical to the RTL's
  89-fractional-bit reciprocal datapath.
* :class:`TraditionalLiftUnit` (Fig. 5) — multi-precision CRT. The
  long-integer division block dominates; its throughput model is
  calibrated to the paper's measured 1.68 ms single-core Lift at 225 MHz
  (Sec. VI-C), i.e. ~92 cycles per coefficient.
"""

from __future__ import annotations

import numpy as np

from ..rns.basis import LiftContext
from ..rns.lift import lift_hps, lift_traditional
from .config import HPS_BLOCK_CYCLES, HardwareConfig

#: Calibrated throughput of the Fig. 5 long-integer pipeline (cycles per
#: coefficient, division-block bound; Sec. VI-C: 4096 coeff in 1.68 ms at
#: 225 MHz = 92 cycles/coeff).
TRADITIONAL_LIFT_CYCLES_PER_COEFF = 92


class HpsLiftUnit:
    """The Fig. 6 lift core cluster (``config.lift_cores`` parallel cores)."""

    def __init__(self, context: LiftContext, config: HardwareConfig) -> None:
        self.context = context
        self.config = config

    @property
    def cores(self) -> int:
        return self.config.lift_cores

    def run(self, residues: np.ndarray) -> tuple[np.ndarray, int]:
        """Lift a residue matrix; returns (target residues, FPGA cycles)."""
        result = lift_hps(self.context, residues)
        return result, self.cycles(residues.shape[1])

    def cycles(self, n: int) -> int:
        """Block-pipeline model: issue-bound by Block 2's MAC schedule.

        The closed form is validated against the event-driven pipeline
        recurrence in the tests (`repro.hw.block_pipeline`).
        """
        from .block_pipeline import pipeline_total_cycles

        per_core = -(-n // self.cores)
        return pipeline_total_cycles(per_core, self.block_latencies())

    def block_latencies(self) -> tuple[int, ...]:
        """Fig. 6 per-block latencies with the bottleneck
        (paper Sec. V-B2): Block 1 computes the six x'_i "one by one
        taking six cycles"; Block 2's MACs and Blocks 3-5, which emit one
        residue result per cycle, each take ``HPS_BLOCK_CYCLES``."""
        bottleneck = HPS_BLOCK_CYCLES
        return (6, bottleneck, bottleneck, bottleneck, bottleneck)


class TraditionalLiftUnit:
    """The Fig. 5 multi-precision lift core cluster."""

    def __init__(self, context: LiftContext, config: HardwareConfig) -> None:
        self.context = context
        self.config = config

    @property
    def cores(self) -> int:
        return self.config.lift_cores

    def run(self, residues: np.ndarray) -> tuple[np.ndarray, int]:
        result = lift_traditional(self.context, residues)
        return result, self.cycles(residues.shape[1])

    def cycles(self, n: int) -> int:
        per_core = -(-n // self.cores)
        return per_core * TRADITIONAL_LIFT_CYCLES_PER_COEFF
