"""Structured accounting of what failed and how the cluster coped.

A :class:`FailureReport` travels inside
:class:`~repro.cluster.report.ClusterReport` after any run with a
fault plan attached: every injected fault, every spill/retry/failover,
and the per-shard downtime windows. It is a plain comparable
dataclass, so the determinism property ("two runs of one seeded plan
produce identical reports") is a single ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .plan import FaultEvent


@dataclass
class FailureReport:
    """The fault ledger of one cluster run."""

    #: Seed of the plan that produced the faults (None for hand-built
    #: or empty plans).
    plan_seed: int | None = None
    #: Every fault event the stepping loop actually applied, in order.
    events: list[FaultEvent] = field(default_factory=list)
    crashes: int = 0
    recoveries: int = 0
    transient_failures: int = 0
    dma_stalls: int = 0
    #: Jobs pulled off a crashing board (queued + in-flight).
    jobs_spilled: int = 0
    #: Retry injections actually performed (one job can retry twice).
    jobs_retried: int = 0
    #: Retries that landed on a different board than the one that
    #: failed them — the hedged re-route count.
    jobs_relocated: int = 0
    #: Accepted jobs the cluster gave up on (``max_attempts``
    #: exhausted). The chaos gate pins this to zero.
    jobs_lost: int = 0
    #: Jobs priced with the cold-replica key-rehydration penalty.
    rehydrations: int = 0
    #: Tenants whose rendezvous-primary returned when a board recovered.
    rebalanced_tenants: int = 0
    #: Per-tenant count of jobs served by a replica while the tenant's
    #: primary board was down.
    failovers_by_tenant: dict[str, int] = field(default_factory=dict)
    #: Per-shard seconds spent DOWN (closed at drain for boards that
    #: never recovered).
    downtime_by_shard: dict[str, float] = field(default_factory=dict)

    @property
    def failovers(self) -> int:
        return sum(self.failovers_by_tenant.values())
