#!/usr/bin/env python3
"""Design-space exploration of the coprocessor (paper Sec. VII).

The paper: "Our coprocessor architecture offers trade-offs between
hardware cost and performance ... the design decisions can be tweaked to
meet different requirements." This script sweeps the main design knobs
of the model and prints the resulting Mult latency, throughput, and
resource estimates:

* HPS vs traditional-CRT lift/scale (the paper's two coprocessors);
* one vs two butterfly cores per RPAU;
* twiddle factors in ROM vs recomputed (the 20% bubble penalty);
* relinearisation keys streamed from DDR vs pinned on-chip.

Run:  python examples/design_space_exploration.py
"""

from dataclasses import replace

from repro import HardwareConfig, hpca19, slow_coprocessor_config
from repro.hw.config import ARM_CLOCK_HZ
from repro.hw.resources import ResourceEstimator
from repro.system import CostModel, JobKind
from repro.system.related_work import PAPER_RECORD


def evaluate(name: str, config: HardwareConfig) -> None:
    params = hpca19()
    cost = CostModel(params, config)
    resources = ResourceEstimator(params, config).single_coprocessor()
    mult_ms = cost.compute_seconds(JobKind.MULT) * 1e3
    throughput = cost.mult_throughput_per_second()
    print(f"{name:<38}{mult_ms:>9.2f} ms {throughput:>8.0f}/s"
          f"{resources.luts:>9,}{resources.bram36:>7}{resources.dsps:>6}")


def main() -> None:
    header = (f"{'design point':<38}{'Mult':>12}{'thruput':>10}"
              f"{'LUTs':>9}{'BRAM':>7}{'DSP':>6}")
    print(header)
    print("-" * len(header))

    base = HardwareConfig()
    evaluate("paper fast coprocessor (HPS)", base)
    evaluate("slow coprocessor (traditional CRT)", slow_coprocessor_config())
    evaluate("single butterfly core per RPAU",
             replace(base, butterfly_cores_per_rpau=1))
    evaluate("no twiddle ROM (20% NTT bubbles)",
             replace(base, twiddle_rom=False))
    evaluate("relin keys pinned on-chip",
             replace(base, relin_key_on_chip=True))
    evaluate("4 lift + 4 scale cores",
             replace(base, lift_cores=4, scale_cores=4))
    evaluate("single coprocessor",
             replace(base, num_coprocessors=1))

    print("-" * len(header))
    fast_ms = PAPER_RECORD["Table I", "Mult in HW"].paper / ARM_CLOCK_HZ * 1e3
    mults = PAPER_RECORD["headline", "Mult/s with two coprocessors"].paper
    slow_ms = PAPER_RECORD["Sec. VI-C", "slow coprocessor Mult (ms)"].paper
    share = PAPER_RECORD["Table I text",
                         "relinearisation key transfer share"].paper
    print(f"paper reference points: fast coprocessor {fast_ms:.3f} ms / "
          f"{mults} per s with two instances;\nslow coprocessor {slow_ms} ms; "
          f"rlk streaming costs ~{share:.0%} of Mult latency.")


if __name__ == "__main__":
    main()
