"""Scale Q->q units (paper Figs. 8 and 9).

* :class:`HpsScaleUnit` (Fig. 9) — four small-arithmetic blocks compute
  the scaled value in the p-basis, then the result is base-extended back
  to the q-basis *through the lift datapath* (the hardware literally
  reuses the Fig. 6 pipeline; this model reuses its cycle formula). All
  blocks run in the same block-level pipeline, so throughput stays at
  ``HPS_BLOCK_CYCLES`` cycles per coefficient per core and the overall
  Scale time lands within a pipeline-fill of the Lift time — reproducing
  the near-equality of the paper's Table II rows.
* :class:`TraditionalScaleUnit` (Fig. 8) — multi-precision: reconstruct
  over Q (390 bits), divide with a >571-bit reciprocal, round, reduce.
  The division block is ~4x the lift's division cost (paper Sec. V-C);
  throughput calibrated to the measured 4.3 ms single-core Scale at
  225 MHz (Sec. VI-C) = ~236 cycles per coefficient.
"""

from __future__ import annotations

import numpy as np

from ..rns.basis import ScaleContext
from ..rns.scale import scale_hps, scale_traditional
from .config import HPS_BLOCK_CYCLES, HardwareConfig

#: Calibrated Fig. 8 throughput (Sec. VI-C: 4096 coeff in 4.3 ms at
#: 225 MHz = 236 cycles/coeff; the paper attributes the ~4x over Lift to
#: the doubled dividend width and doubled reciprocal precision).
TRADITIONAL_SCALE_CYCLES_PER_COEFF = 236


class HpsScaleUnit:
    """The Fig. 9 scale core cluster (``config.scale_cores`` cores)."""

    def __init__(self, context: ScaleContext, config: HardwareConfig) -> None:
        self.context = context
        self.config = config

    @property
    def cores(self) -> int:
        return self.config.scale_cores

    def run(self, residues: np.ndarray) -> tuple[np.ndarray, int]:
        """Scale a full-basis residue matrix to the q basis."""
        result = scale_hps(self.context, residues)
        return result, self.cycles(residues.shape[1])

    def cycles(self, n: int) -> int:
        """Closed form of the nine-block pipeline (validated against the
        event-driven recurrence in the tests)."""
        from .block_pipeline import pipeline_total_cycles

        per_core = -(-n // self.cores)
        return pipeline_total_cycles(per_core, self.block_latencies())

    def block_latencies(self) -> tuple[int, ...]:
        """Fig. 9's four front blocks plus the reused Fig. 6 chain."""
        b = HPS_BLOCK_CYCLES
        return (b, b, 6, b) + (6, b, b, b, b)


class TraditionalScaleUnit:
    """The Fig. 8 multi-precision scale core cluster."""

    def __init__(self, context: ScaleContext, config: HardwareConfig) -> None:
        self.context = context
        self.config = config

    @property
    def cores(self) -> int:
        return self.config.scale_cores

    def run(self, residues: np.ndarray) -> tuple[np.ndarray, int]:
        result = scale_traditional(self.context, residues)
        return result, self.cycles(residues.shape[1])

    def cycles(self, n: int) -> int:
        per_core = -(-n // self.cores)
        return per_core * TRADITIONAL_SCALE_CYCLES_PER_COEFF
