"""Multi-tenant clients: weights, SLA deadlines, admission control.

The ROADMAP's "millions of users" goal makes the server a shared
resource: tenants submit independent job streams, pay for a service
share (their WFQ weight), and may carry a latency SLA. Admission
control protects the SLAs of admitted work — once the backlog predicts
a completion past a job's deadline, rejecting at arrival is strictly
better than accepting work that is already dead on arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..system.workloads import Job


@dataclass(frozen=True)
class Tenant:
    """One client organisation sharing the server."""

    name: str
    weight: float = 1.0
    #: Completion deadline measured from arrival; None = best-effort.
    sla_seconds: float | None = None
    #: Reject arrivals beyond this many queued jobs; None = unbounded.
    max_queue_depth: int | None = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.sla_seconds is not None and self.sla_seconds <= 0:
            raise ValueError("SLA deadline must be positive")
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError("queue depth bound must be non-negative")


@dataclass
class TenantSet:
    """The tenants known to a runtime; unknown names get defaults.

    An unknown name's best-effort default is built once and cached, so
    the per-job lookups of admission and SLA accounting cost a dict hit.
    """

    tenants: dict[str, Tenant] = field(default_factory=dict)
    _defaults: dict[str, Tenant] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, *tenants: Tenant) -> TenantSet:
        return cls({t.name: t for t in tenants})

    def get(self, name: str) -> Tenant:
        tenant = self.tenants.get(name) or self._defaults.get(name)
        if tenant is None:
            tenant = self._defaults[name] = Tenant(name=name)
        return tenant

    def weights(self) -> dict[str, float]:
        return {name: t.weight for name, t in self.tenants.items()}

    def __contains__(self, name: str) -> bool:
        return name in self.tenants


@dataclass(frozen=True)
class Rejection:
    """One refused arrival, with the reason admission gave."""

    job: Job
    time_seconds: float
    reason: str


class AdmissionController:
    """Arrival-time gate: queue-depth caps and deadline feasibility.

    ``reject_reason`` sees the tenant's current in-queue count and the
    scheduler's total backlog (in service-seconds). A job is refused
    when its tenant's queue cap is hit, or when the backlog divided
    across the coprocessors already predicts a completion past the
    job's SLA deadline. The prediction assumes a FIFO drain of the
    backlog with per-job transfer costs: under a reordering policy
    (SJF, WFQ) a cheap job may overtake the backlog and meet a
    deadline this gate rejected, and conversely batching discounts
    and later arrivals mean admitted jobs can still miss their SLA
    (counted in the report's ``sla_violations``). Scheduler-aware admission is an open
    ROADMAP item.
    """

    def __init__(self, tenants: TenantSet,
                 num_coprocessors: int) -> None:
        self.tenants = tenants
        self._coprocessors = num_coprocessors

    def reject_reason(self, job: Job, queued_for_tenant: int,
                      backlog_seconds: float,
                      job_cost_seconds: float) -> str | None:
        """The reason to refuse `job`, or None to admit it."""
        tenant = self.tenants.get(job.tenant)
        if (tenant.max_queue_depth is not None
                and queued_for_tenant >= tenant.max_queue_depth):
            return "queue-depth"
        if tenant.sla_seconds is not None:
            predicted = (backlog_seconds / self._coprocessors
                         + job_cost_seconds)
            if predicted > tenant.sla_seconds:
                return "deadline"
        return None
