"""Aggregated cluster telemetry: merge per-shard reports into one view.

A cluster run ends with one :class:`~repro.serve.engine.RuntimeReport`
per shard plus the cluster-level overflow rejections. This module
reduces them to the operator numbers: cluster-wide and per-shard
p50/p95/p99, throughput against the union busy window, per-shard
utilization and the imbalance metric that explains any sub-linear
scaling. Every ratio is guarded against empty inputs — a shard that
received no work (a perfectly plausible outcome of tenant-affinity
routing with few tenants) must merge cleanly, not divide by zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults import FailureReport
from ..serve.engine import JobResult, RuntimeReport
from ..serve.telemetry import LatencySummary, Telemetry
from ..serve.tenants import Rejection
from ..system.workloads import JobKind


@dataclass
class ClusterReport:
    """The merged outcome of one multi-shard run."""

    shard_names: list[str]
    shard_reports: list[RuntimeReport]
    router_name: str = ""
    #: Arrivals no shard would accept (cluster-level backpressure).
    overflow_rejected: list[Rejection] = field(default_factory=list)
    #: Arrivals whose primary shard was full but a sibling took them.
    reroutes: int = 0
    #: Snapshot of the active :mod:`repro.obs` metrics registry taken
    #: at drain time (flat series-name → value mapping), so the merged
    #: report carries the process-level counters — engine transforms,
    #: resident-cache events — alongside the queueing telemetry.
    registry_snapshot: dict[str, float] = field(default_factory=dict)
    #: Fault ledger of the run — present whenever the cluster ran with
    #: a fault plan or replicated placement, ``None`` otherwise.
    failure: FailureReport | None = None

    def __post_init__(self) -> None:
        if len(self.shard_names) != len(self.shard_reports):
            raise ValueError("one report per shard name")

    # -- job accounting ----------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shard_reports)

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
    def offered(self) -> int:
        return self.completed + len(self.rejected)

    @property
    def rejection_fraction(self) -> float:
        offered = self.offered
        return len(self.rejected) / offered if offered else 0.0

    @property
    def availability(self) -> float:
        """Completed fraction of offered load (1.0 when nothing came).

        The chaos gate's headline: under a board kill with replication
        this must stay >= 0.99 — everything spilled either completes
        after retry or was never accepted in the first place.
        """
        offered = self.offered
        return self.completed / offered if offered else 1.0

    # -- time window and throughput ----------------------------------------------------

    @property
    def first_arrival_seconds(self) -> float:
        return min((report.first_arrival_seconds
                    for report in self.shard_reports if report.results),
                   default=0.0)

    @property
    def last_finish_seconds(self) -> float:
        return max((report.last_finish_seconds
                    for report in self.shard_reports if report.results),
                   default=0.0)

    @property
    def makespan_seconds(self) -> float:
        """Union busy window: first arrival to last finish, any shard."""
        if not any(report.results for report in self.shard_reports):
            return 0.0
        return self.last_finish_seconds - self.first_arrival_seconds

    def throughput_per_second(self, kind: JobKind | None = None) -> float:
        makespan = self.makespan_seconds
        if makespan <= 0:
            return 0.0
        jobs = sum(
            1 for report in self.shard_reports for r in report.results
            if kind is None or r.job.kind is kind
        )
        return jobs / makespan

    def per_shard_throughput(self) -> list[float]:
        """Each shard's completions over the *cluster* busy window."""
        makespan = self.makespan_seconds
        if makespan <= 0:
            return [0.0] * self.num_shards
        return [len(report.results) / makespan
                for report in self.shard_reports]

    # -- latency -----------------------------------------------------------------------

    def telemetry(self) -> Telemetry:
        """Exact merge of every shard's collector (empty shards fine)."""
        return Telemetry.merged([report.telemetry
                                 for report in self.shard_reports])

    def latency_summary(self, tenant: str | None = None) -> LatencySummary:
        return self.telemetry().latency_summary(tenant)

    def shard_latency_summaries(self) -> dict[str, LatencySummary]:
        return {name: report.latency_summary()
                for name, report in zip(self.shard_names,
                                        self.shard_reports, strict=True)}

    @property
    def sla_violations(self) -> int:
        return sum(report.telemetry.sla_violations
                   for report in self.shard_reports)

    # -- utilization and balance -------------------------------------------------------

    def utilization_by_shard(self) -> list[float]:
        """Mean busy fraction of each shard over the cluster window.

        Measured against the shared window (not each shard's own busy
        interval) so an idle or early-finishing shard correctly shows
        the slack the imbalance metric should see.
        """
        makespan = self.makespan_seconds
        if makespan <= 0:
            return [0.0] * self.num_shards
        out = []
        for report in self.shard_reports:
            util = report.telemetry.utilization(makespan)
            out.append(sum(util) / len(util) if util else 0.0)
        return out

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
