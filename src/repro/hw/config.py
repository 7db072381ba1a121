"""Hardware configuration: the design parameters of the paper's coprocessor.

Defaults model the configuration the paper implements on the ZCU102:
200 MHz fabric clock, 7 RPAUs with two butterfly cores each, two HPS
lift cores and two HPS scale cores per coprocessor, and two coprocessors
per FPGA.

Where the paper gives first-principles structure (ports, core counts,
block throughputs), the model derives cycle counts from it. Two scalar
overheads are *calibrated* against the paper's own measurements and
documented as such:

* ``dispatch_overhead`` — software-to-hardware instruction dispatch,
  visible in the constant ~600-FPGA-cycle offset of every Table II row
  (the paper measures instruction timings from the Arm side);
* ``stage_sync_overhead`` — per-NTT-stage control/BRAM-turnaround gap on
  top of the datapath pipeline drain.

Every other number (issue cycles, fill/drain, batch counts) comes from
schedules the simulator actually executes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ParameterError


@dataclass(frozen=True)
class HardwareConfig:
    """Design parameters of one FPGA bitstream (paper Sec. V)."""

    # Clocks (paper Sec. VI-A).
    fpga_clock_hz: int = 200_000_000
    arm_clock_hz: int = 1_200_000_000
    dma_clock_hz: int = 250_000_000

    # Parallelism (paper Sec. V-A).
    num_rpaus: int = 7
    butterfly_cores_per_rpau: int = 2
    lift_cores: int = 2
    scale_cores: int = 2
    num_coprocessors: int = 2

    # Circuit-level pipeline depths (paper Sec. V-A4, Fig. 4): a butterfly
    # is a 30x30 DSP multiplier, the sliding-window reduction, and a
    # modular add/sub, all pipelined to reach 200 MHz.
    multiplier_stages: int = 4
    addsub_stages: int = 1
    pairing_lag: int = 2        # output re-pairing buffer of the NTT cores

    # Sliding-window modular reduction (paper Sec. V-A4).
    sliding_window_bits: int = 6

    # Block-level pipeline of the HPS lift/scale units (paper Sec. V-B2):
    # the bottleneck block produces one residue set per coefficient every
    # `hps_block_cycles` cycles (seven outputs, seven MACs).
    hps_block_cycles: int = 7

    # Algorithm selection: HPS (fast coprocessor) vs traditional CRT
    # (slow coprocessor of Sec. VI-C, which runs at 225 MHz with four
    # lift/scale cores and a two-component relinearisation key).
    use_hps: bool = True

    # Twiddle factors in on-chip ROM (Sec. V-A4). Disabling models the
    # ~20% bubble-cycle penalty the paper cites from prior work [20].
    twiddle_rom: bool = True
    twiddle_bubble_fraction: float = 0.20

    # Relinearisation keys streamed from DDR (the paper's configuration;
    # ~30% of Mult latency) or pinned on-chip (the "larger FPGA" what-if).
    relin_key_on_chip: bool = False

    # Calibrated overheads (see module docstring). With the structural
    # pipeline depth of 11 cycles and the schedule-derived pairing lags,
    # sync = 46 and dispatch = 600 land the modelled NTT instruction on
    # the paper's measured 87,582 Arm cycles (14,597 FPGA cycles).
    dispatch_overhead: int = 600
    stage_sync_overhead: int = 46

    def __post_init__(self) -> None:
        if self.num_rpaus < 1 or self.butterfly_cores_per_rpau not in (1, 2):
            raise ParameterError(
                "the memory layout supports one or two butterfly cores"
            )
        if self.lift_cores < 1 or self.scale_cores < 1:
            raise ParameterError("need at least one lift and one scale core")
        if self.sliding_window_bits < 1 or self.sliding_window_bits > 12:
            raise ParameterError("sliding window must be 1..12 bits")

    # -- derived quantities ------------------------------------------------------

    def fpga_to_arm_cycles(self, cycles: int) -> int:
        """Convert FPGA cycles to the Arm-side counts the paper reports.

        Paper Sec. VI-A: "Cycle counts for various operations are measured
        from the software side reading the Arm processors' cycle-count
        register" — the Arm runs 6x faster than the fabric.
        """
        return round(cycles * self.arm_clock_hz / self.fpga_clock_hz)


def slow_coprocessor_config() -> HardwareConfig:
    """The non-HPS design point of Sec. VI-C.

    225 MHz clock and traditional-CRT lift/scale with four cores each.
    Its compiled programs default to the paper's two-component key,
    ``WordDecomp(base_bits=ceil(log2 q / 2))`` (two 90-bit digits at
    hpca19); ``Coprocessor.mult`` follows whatever decomposition the
    key it is handed names.
    """
    return replace(
        HardwareConfig(),
        fpga_clock_hz=225_000_000,
        use_hps=False,
        lift_cores=4,
        scale_cores=4,
    )
