"""Related-work comparison points (paper Sec. VI-E).

Published numbers from the implementations the paper compares against,
plus helpers that compute our modelled system's entries so the
CLI and the tests regenerate the section's claims:

* >13x throughput over FV-NFLlib on the i5;
* 400 Mult/s beats the Tesla V100's ~388 Mult/s at matched parameters;
* faster than Pöppelmann et al.'s Catapult YASHE implementation despite
  their computationally lighter (and since-broken) scheme;
* orders of magnitude less data-transfer-bound than HEPCloud [20].
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ComparisonPoint:
    """One row of the Sec. VI-E comparison."""

    name: str
    platform: str
    scheme: str
    n: int
    log2_q: int
    mult_ms: float
    power_watts: float | None = None
    note: str = ""

    @property
    def mults_per_second(self) -> float:
        return 1000.0 / self.mult_ms


def published_points() -> list[ComparisonPoint]:
    """The literature numbers quoted in Sec. VI-E."""
    return [
        ComparisonPoint(
            name="FV-NFLlib [4]",
            platform="Intel i5-3427U @ 1.8 GHz, 1 thread",
            scheme="FV", n=4096, log2_q=186, mult_ms=33.0,
            power_watts=40.0,
            note="the paper's primary software baseline",
        ),
        ComparisonPoint(
            name="Badawi et al. [33] CPU",
            platform="Xeon Platinum @ 2.1 GHz, 1 thread",
            scheme="FV (HPS RNS)", n=4096, log2_q=180, mult_ms=30.0,
            note="10 ms at 60-bit q, ~3x at 180-bit per the paper",
        ),
        ComparisonPoint(
            name="Badawi et al. [33] CPU 26T",
            platform="Xeon Platinum @ 2.1 GHz, 26 threads",
            scheme="FV (HPS RNS)", n=4096, log2_q=180, mult_ms=12.0,
            note="4 ms at 60-bit q, ~3x at 180-bit",
        ),
        ComparisonPoint(
            name="Badawi et al. [33] K80",
            platform="Tesla K80 GPU (2496 cores)",
            scheme="FV (HPS RNS)", n=4096, log2_q=180, mult_ms=5.94,
            power_watts=300.0,
            note="1.98 ms at 60-bit q, ~3x at 180-bit",
        ),
        ComparisonPoint(
            name="Badawi et al. [33] V100",
            platform="Tesla V100 GPU (5120 cores)",
            scheme="FV (HPS RNS)", n=4096, log2_q=180, mult_ms=2.58,
            power_watts=300.0,
            note="0.86 ms at 60-bit q, ~3x at 180-bit -> ~388 Mult/s",
        ),
        ComparisonPoint(
            name="Poppelmann et al. [14]",
            platform="Catapult (Stratix V) @ 100 MHz",
            scheme="YASHE (broken by [35])", n=4096, log2_q=128,
            mult_ms=6.75,
            note="lighter scheme, smaller q, still slower",
        ),
        ComparisonPoint(
            name="HEPCloud [20]",
            platform="Virtex-6 FPGA",
            scheme="FV", n=32768, log2_q=1228, mult_ms=26_670.0,
            note="much larger parameters; DDR-transfer dominated",
        ),
    ]


def our_point(mult_ms_single: float, num_coprocessors: int,
              peak_watts: float) -> ComparisonPoint:
    """Our modelled system entry (throughput scales with coprocessors)."""
    return ComparisonPoint(
        name=f"This work ({num_coprocessors} coprocessors)",
        platform="Zynq UltraScale+ ZCU102 @ 200 MHz",
        scheme="FV (HPS RNS)", n=4096, log2_q=180,
        mult_ms=mult_ms_single / num_coprocessors,
        power_watts=peak_watts,
        note="cycle-level simulator of the HPCA'19 design",
    )
