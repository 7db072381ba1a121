"""DMA / AXI transfer-time model (paper Sec. V-D, Table III).

The paper moves ciphertexts between DDR and the coprocessor's BRAMs with
a 250 MHz DMA and finds that one contiguous burst per R_q polynomial
(98,304 bytes) is fastest — Table III quantifies the chunking penalty.

Model: each chunk costs a descriptor/re-arm overhead plus its payload at
the effective AXI bandwidth; a whole transfer job additionally pays an
Arm-side setup cost. Parameters are fitted to the paper's own
measurements (``python -m repro table3`` prints the fit beside the
paper: the 16 KiB-chunk row lands ~24% low, every other row within
4%):

* single transfer of 98,304 B = 76 us  -> effective bandwidth 1.316 GB/s
  (5.27 bytes/cycle at 250 MHz, i.e. a 64-bit AXI stream at ~66%
  efficiency);
* 96 chunks of 1,024 B = 202 us        -> 331 DMA cycles (~1.33 us) of
  per-chunk overhead;
* job setup measured from Table I (send two ciphertexts = 4 polynomial
  bursts in 362 us) -> ~14.4 us of Arm-side setup per burst.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError
from ..utils import chunks
from .config import HardwareConfig


@dataclass(frozen=True)
class DmaModel:
    """Parametric transfer-time model for the Fig. 11 DMA path."""

    config: HardwareConfig
    axi_bytes_per_beat: int = 8
    axi_efficiency: float = 0.658
    per_chunk_overhead_cycles: int = 331   # DMA-clock cycles
    arm_setup_seconds: float = 14.4e-6     # per transfer job

    @property
    def bytes_per_second(self) -> float:
        return (self.config.dma_clock_hz * self.axi_bytes_per_beat
                * self.axi_efficiency)

    # -- raw transfers --------------------------------------------------------------

    def transfer_seconds(self, total_bytes: int,
                         chunk_bytes: int | None = None) -> float:
        """DMA-engine time for one transfer, optionally chunked (Table III)."""
        if total_bytes <= 0:
            raise ParameterError("transfer size must be positive")
        if chunk_bytes is None:
            chunk_bytes = total_bytes
        pieces = chunks(total_bytes, chunk_bytes)
        overhead = len(pieces) * (self.per_chunk_overhead_cycles
                                  / self.config.dma_clock_hz)
        payload = total_bytes / self.bytes_per_second
        return overhead + payload

    def transfer_arm_cycles(self, total_bytes: int,
                            chunk_bytes: int | None = None) -> int:
        """The Arm-cycle counts of Table III."""
        seconds = self.transfer_seconds(total_bytes, chunk_bytes)
        return round(seconds * self.config.arm_clock_hz)

    # -- ciphertext jobs (Table I rows) --------------------------------------------

    def polynomial_job_seconds(self, poly_bytes: int, count: int) -> float:
        """Send/receive `count` polynomials, one burst + setup each."""
        per_poly = self.transfer_seconds(poly_bytes) + self.arm_setup_seconds
        return count * per_poly

    def send_ciphertexts_seconds(self, poly_bytes: int,
                                 num_ciphertexts: int) -> float:
        """Table I 'Send two ciphertexts to HW' with num_ciphertexts = 2."""
        return self.polynomial_job_seconds(poly_bytes, 2 * num_ciphertexts)

    def receive_ciphertext_seconds(self, poly_bytes: int) -> float:
        """Table I 'Receive result ciphertext from HW'."""
        return self.polynomial_job_seconds(poly_bytes, 2)
