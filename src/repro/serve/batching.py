"""Batched DMA: coalescing uploads to amortise Arm/DMA setup cost.

Table I prices each polynomial burst with its own Arm-side DMA setup
(~14.4 us); sending two operand ciphertexts is four bursts and four
setups. When a backlog exists, the runtime can coalesce the uploads of
several queued jobs into one descriptor train: the payload bursts still
pay full DMA time, but the Arm setup is paid once per train instead of
once per polynomial. It is the server-side half of client batching:
when one network request carries the operands of many operations, one
DMA train moves them all to BRAM.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..hw.dma import ARM_SETUP_SECONDS, transfer_seconds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..system.server import CostModel
    from .schedulers import QueueEntry


@dataclass(frozen=True)
class BatchPolicy:
    """How aggressively the dispatcher coalesces queued jobs.

    ``max_jobs=1`` disables batching (every job pays the full Table I
    transfer cost, as :meth:`CostModel.job_seconds_of` prices it). Larger
    values let a free coprocessor grab up to ``max_jobs`` queued jobs and
    run them as one upload train / compute burst / download train; all
    jobs in the train complete together.
    """

    max_jobs: int = 1

    def __post_init__(self) -> None:
        if self.max_jobs < 1:
            raise ValueError("max_jobs must be at least 1")

    @classmethod
    def none(cls) -> BatchPolicy:
        return cls(max_jobs=1)


class DmaBatcher:
    """Prices a coalesced train of jobs against the DMA model."""

    def __init__(self, cost: CostModel,
                 policy: BatchPolicy | None = None) -> None:
        self.cost = cost
        self.policy = BatchPolicy.none() if policy is None else policy
        self._burst_seconds = transfer_seconds(cost.params.poly_bytes)

    @property
    def max_jobs(self) -> int:
        return self.policy.max_jobs

    def service_seconds(self, entries: Sequence[QueueEntry]) -> float:
        """Coprocessor occupancy of one dispatched batch.

        A single-job "train" prices exactly as the unbatched job —
        including any per-op transfer footprint the job carries. Longer
        trains coalesce each job's real polynomial bursts behind one
        Arm setup per direction.
        """
        if not entries:
            raise ValueError("a batch needs at least one job")
        if len(entries) == 1:
            return self.cost.job_seconds_of(entries[0].job)
        compute = sum(self.cost.compute_seconds(e.kind) for e in entries)
        bursts_in = sum(e.job.polys_in for e in entries)
        bursts_out = sum(e.job.polys_out for e in entries)
        # A direction that moves no bursts (all-resident operands or
        # no downloads) pays no Arm setup either.
        upload = (bursts_in * self._burst_seconds + ARM_SETUP_SECONDS
                  if bursts_in else 0.0)
        download = (bursts_out * self._burst_seconds + ARM_SETUP_SECONDS
                    if bursts_out else 0.0)
        return upload + compute + download
