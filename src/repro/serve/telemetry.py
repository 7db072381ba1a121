"""The serving numbers: every reduction of a run's record, written once.

Throughput alone (the paper's 400 Mult/s) says nothing about what a
client experiences under load; serving systems are judged on tail
latency. A run's record is its job results and rejections — one
board's :class:`~repro.serve.engine.RuntimeReport`, or a
:class:`~repro.cluster.report.ClusterReport` over the concatenation of
its shards' — and the numbers operators watch are reduced from it here:
the busy window, throughput, offered load and rejection fraction
(:class:`ServingReductions`), and the p50/p95/p99 digest of a latency
series (:class:`LatencySummary`). A cluster's numbers are therefore
those of its concatenated shard records by construction; there is no
merge step to keep exact.

The process-wide counter plane (engine transform counts, resident-cache
events) lives in the :mod:`repro.obs` metrics registry, and a record's
per-job schedule and queue-depth trace export as a Perfetto-loadable
timeline via :func:`repro.obs.runtime_timeline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import JobResult
    from .tenants import Rejection


@dataclass(frozen=True)
class LatencySummary:
    """The percentile digest of one latency series (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def of(cls, latencies: list[float]) -> LatencySummary:
        """Linear-interpolated percentiles; all zero for an empty series."""
        if not latencies:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0,
                       max=0.0)
        values = np.asarray(latencies, dtype=float)
        p50, p95, p99 = np.percentile(values, (50, 95, 99))
        return cls(
            count=len(values),
            mean=float(np.mean(values)),
            p50=float(p50),
            p95=float(p95),
            p99=float(p99),
            max=float(np.max(values)),
        )

    def row(self, label: str) -> str:
        return (f"{label:<10} n={self.count:<6} "
                f"p50={self.p50 * 1e3:8.2f} ms  "
                f"p95={self.p95 * 1e3:8.2f} ms  "
                f"p99={self.p99 * 1e3:8.2f} ms  "
                f"max={self.max * 1e3:8.2f} ms")


class ServingReductions:
    """The reductions of a run record, shared by every report.

    A subclass supplies ``results`` and ``rejected``: a board's report
    stores them, a cluster's concatenates its shards' in shard order.
    Every empty case reduces to 0 rather than dividing by zero — an
    idle board in a cluster is a perfectly plausible outcome.
    """

    results: list[JobResult]
    rejected: list[Rejection]

    @property
    def first_arrival_seconds(self) -> float:
        return min((r.job.arrival_seconds for r in self.results),
                   default=0.0)

    @property
    def last_finish_seconds(self) -> float:
        return max((r.finish_seconds for r in self.results), default=0.0)

    @property
    def makespan_seconds(self) -> float:
        """Busy interval of the run, measured from the *first arrival*.

        Open-loop streams (e.g. Poisson) may not deliver their first job
        at t=0; measuring from t=0 would dilute the throughput of every
        such run by the initial idle gap.
        """
        if not self.results:
            return 0.0
        return self.last_finish_seconds - self.first_arrival_seconds

    def throughput_per_second(self) -> float:
        makespan = self.makespan_seconds
        if not self.results or makespan == 0:
            return 0.0
        return len(self.results) / makespan

    @property
    def mean_latency_seconds(self) -> float:
        results = self.results
        if not results:
            return 0.0
        return sum(r.latency_seconds for r in results) / len(results)

    @property
    def offered(self) -> int:
        return len(self.results) + len(self.rejected)

    @property
    def rejection_fraction(self) -> float:
        offered = self.offered
        return len(self.rejected) / offered if offered else 0.0

    def latency_summary(self, tenant: str | None = None) -> LatencySummary:
        """Digest of the completions' latencies (one tenant's, if named)."""
        return LatencySummary.of([
            r.latency_seconds for r in self.results
            if tenant is None or r.job.tenant == tenant
        ])
