"""Cycle-level simulator of the paper's FPGA coprocessor.

Every component of the paper's Figs. 3–11 is modelled here with two
obligations: compute *bit-exact* results, and charge *cycle counts*
derived from the schedules the component executes (port limits,
pipeline fill/drain, stage barriers). The values come from the engine's
own kernels (the batched NTT, :mod:`repro.rns` lift and scale), so the
coprocessor and the library share one arithmetic. The cycles are closed
forms, and the stepped units — the Fig. 3 NTT unit walking its schedule
through port-checked paired-word BRAMs with the Fig. 4 butterfly's
reduction circuit, the block-pipeline recurrence — are the oracle the
tests prove those closed forms against.

Component map (paper figure -> module):

=============  ===========================================
Fig. 3         :mod:`~repro.hw.ntt_unit` (access schedule)
Fig. 4         :mod:`~repro.hw.butterfly`, :mod:`~repro.hw.modred`,
               :mod:`~repro.hw.datapath`
Fig. 5, 6      :mod:`~repro.hw.lift_unit`
Fig. 7         MAC DSP counts in :mod:`~repro.hw.resources`
Fig. 8, 9      :mod:`~repro.hw.scale_unit`
Fig. 10        :mod:`~repro.hw.coprocessor`, :mod:`~repro.hw.memory_file`
Fig. 11        :mod:`~repro.hw.dma`, :mod:`repro.system.server`
=============  ===========================================
"""

from .config import HardwareConfig, slow_coprocessor_config
from .coprocessor import Coprocessor, MultReport
from .isa import Opcode

__all__ = [
    "HardwareConfig",
    "slow_coprocessor_config",
    "Coprocessor",
    "MultReport",
    "Opcode",
]
