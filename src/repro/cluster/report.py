"""The cluster report: the shards' records side by side.

A cluster run ends with one :class:`~repro.serve.engine.RuntimeReport`
per shard plus the cluster-level overflow rejections. The cluster's
record is their concatenation, in shard order, and its latency,
throughput and offered-load numbers are the ones every report shares
(:class:`~repro.serve.telemetry.ServingReductions`) over that record —
there is no second implementation to drift. What only a cluster has
is added here: availability, per-shard utilization against the shared
window, the imbalance metric that explains any sub-linear scaling, and
the :class:`~repro.faults.FailureReport` ledger of a chaos run. A shard
that received no work (a perfectly plausible outcome of
tenant-affinity routing with few tenants) reduces to zeros, not a
division by zero. The report is the run's one record: nothing in it is
copied from, or into, the process-level :mod:`repro.obs` registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults import FailureReport
from ..serve.engine import JobResult, RuntimeReport
from ..serve.telemetry import ServingReductions
from ..serve.tenants import Rejection


@dataclass
class ClusterReport(ServingReductions):
    """The outcome of one multi-shard run."""

    shard_names: list[str]
    shard_reports: list[RuntimeReport]
    router_name: str = ""
    #: Arrivals rejected at the cluster edge: no board was up, or a
    #: failed job ran out of retries.
    overflow_rejected: list[Rejection] = field(default_factory=list)
    #: Placements on a board other than the first live candidate.
    reroutes: int = 0
    #: Fault ledger of the run — present whenever the cluster ran with
    #: a fault plan or replicated placement, ``None`` otherwise.
    failure: FailureReport | None = None

    def __post_init__(self) -> None:
        if len(self.shard_names) != len(self.shard_reports):
            raise ValueError("one report per shard name")

    # -- the record --------------------------------------------------------------------

    @property
    def results(self) -> list[JobResult]:
        return [r for report in self.shard_reports for r in report.results]

    @property
    def rejected(self) -> list[Rejection]:
        return [r for report in self.shard_reports
                for r in report.rejected] + list(self.overflow_rejected)

    @property
    def completed(self) -> int:
        return sum(len(report.results) for report in self.shard_reports)

    @property
    def availability(self) -> float:
        """Completed fraction of offered load (1.0 when nothing came).

        The chaos gate's headline: under a board kill with replication
        this must stay >= 0.99 — everything spilled either completes
        after retry or was never accepted in the first place.
        """
        offered = self.offered
        return self.completed / offered if offered else 1.0

    @property
    def sla_violations(self) -> int:
        return sum(report.sla_violations for report in self.shard_reports)

    # -- utilization and balance -------------------------------------------------------

    def utilization_by_shard(self) -> list[float]:
        """Mean busy fraction of each shard over the cluster window.

        Measured against the shared window (not each shard's own busy
        interval) so an idle or early-finishing shard correctly shows
        the slack the imbalance metric should see.
        """
        makespan = self.makespan_seconds
        return [report.mean_utilization(makespan)
                for report in self.shard_reports]

    def imbalance(self) -> float:
        """Utilization spread, ``(max - min) / mean``; 0 when idle.

        0 means perfectly level shards; 1 means the busiest shard did
        a full mean-utilization more work than the idlest. The routing
        tests order policies by it: affinity routing trades a
        little imbalance for batchable same-tenant trains.
        """
        util = self.utilization_by_shard()
        if not util:
            return 0.0
        mean = sum(util) / len(util)
        if mean <= 0:
            return 0.0
        return (max(util) - min(util)) / mean
