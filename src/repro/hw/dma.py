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

from ..errors import ParameterError
from ..utils import chunks
from .config import ARM_CLOCK_HZ, DMA_CLOCK_HZ

#: The fit (see module docstring): a 64-bit AXI stream at ~66%
#: efficiency, a per-chunk re-arm in DMA-clock cycles, and the Arm-side
#: setup of one transfer job.
AXI_BYTES_PER_BEAT = 8
AXI_EFFICIENCY = 0.658
PER_CHUNK_OVERHEAD_CYCLES = 331
ARM_SETUP_SECONDS = 14.4e-6

#: Effective payload bandwidth of the Fig. 11 DMA path.
BYTES_PER_SECOND = DMA_CLOCK_HZ * AXI_BYTES_PER_BEAT * AXI_EFFICIENCY


# -- raw transfers ------------------------------------------------------------

def transfer_seconds(total_bytes: int,
                     chunk_bytes: int | None = None) -> float:
    """DMA-engine time for one transfer, optionally chunked (Table III)."""
    if total_bytes <= 0:
        raise ParameterError("transfer size must be positive")
    if chunk_bytes is None:
        chunk_bytes = total_bytes
    pieces = chunks(total_bytes, chunk_bytes)
    overhead = len(pieces) * (PER_CHUNK_OVERHEAD_CYCLES / DMA_CLOCK_HZ)
    payload = total_bytes / BYTES_PER_SECOND
    return overhead + payload


def transfer_arm_cycles(total_bytes: int,
                        chunk_bytes: int | None = None) -> int:
    """The Arm-cycle counts of Table III."""
    seconds = transfer_seconds(total_bytes, chunk_bytes)
    return round(seconds * ARM_CLOCK_HZ)


# -- ciphertext jobs (Table I rows) -------------------------------------------

def polynomial_job_seconds(poly_bytes: int, count: int) -> float:
    """Send/receive `count` polynomials, one burst + setup each."""
    per_poly = transfer_seconds(poly_bytes) + ARM_SETUP_SECONDS
    return count * per_poly


def send_ciphertexts_seconds(poly_bytes: int) -> float:
    """Table I 'Send two ciphertexts to HW': four polynomial bursts."""
    return polynomial_job_seconds(poly_bytes, 4)


def receive_ciphertext_seconds(poly_bytes: int) -> float:
    """Table I 'Receive result ciphertext from HW'."""
    return polynomial_job_seconds(poly_bytes, 2)
