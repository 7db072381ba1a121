"""Power model (paper Sec. VI-C, last paragraph).

The paper measures, with the Xilinx Power Advantage Tool:

* 5.3 W static;
* +2.2 W dynamic while one coprocessor streams homomorphic
  multiplications (including the data transfers);
* +3.4 W dynamic with both coprocessors busy;
* peak 8.7 W, against ~40 W for the Intel i5 baseline under load.

The dual-core increment (+1.2 W) is smaller than the single-core one
(+2.2 W) because the DMA/interface/DDR path is shared: the model splits
dynamic power into a shared-infrastructure term and a per-active-
coprocessor term, which reproduces all three measurements exactly and
extrapolates to other core counts for the design-space discussion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import HardwareConfig

STATIC_WATTS = 5.3
SHARED_DYNAMIC_WATTS = 1.0      # DMA + interface + DDR path, paid once
PER_COPROCESSOR_WATTS = 1.2     # RPAUs + lift/scale cores of one instance


@dataclass(frozen=True)
class PowerModel:
    """Activity-based power estimate for the Fig. 11 system."""

    config: HardwareConfig

    def static_watts(self) -> float:
        return STATIC_WATTS

    def dynamic_watts(self, active_coprocessors: int) -> float:
        if active_coprocessors <= 0:
            return 0.0
        active = min(active_coprocessors, self.config.num_coprocessors)
        return SHARED_DYNAMIC_WATTS + PER_COPROCESSOR_WATTS * active

    def total_watts(self, active_coprocessors: int) -> float:
        return self.static_watts() + self.dynamic_watts(active_coprocessors)

    def peak_watts(self) -> float:
        return self.total_watts(self.config.num_coprocessors)
