"""The discrete-event serving runtime: the one simulator of a board.

A :class:`ServingRuntime` is one Arm+FPGA board of paper Fig. 11. Job
arrivals, batch dispatches and completions are events on an
:class:`~repro.serve.events.EventHeap`, the simulation's one queue and
one clock, so the model expresses queueing delay, tenant contention,
DMA batching and admission control, pricing every job with the board's
:class:`~repro.system.server.CostModel`. With FIFO and no batching on a
saturated stream it is the earliest-free list schedule that yields the
paper's 400 Mult/s headline.

A runtime can be driven two ways:

* :meth:`ServingRuntime.run` — the one-shot mode: inject a whole job
  list and drain the heap to completion;
* the stepping API — :meth:`begin`, :meth:`inject`, :meth:`advance_to`
  and :meth:`drain` — which lets an outer driver feed arrivals one at a
  time and read live load signals (:meth:`outstanding_seconds`,
  :meth:`drain_estimate_seconds`) between injections. ``run`` is
  exactly ``begin`` + ``inject``\\* + ``drain``.

A board alone owns its heap; in a cluster (:mod:`repro.cluster`) every
board's events share the cluster's heap, in (time, rank, insertion)
order, and :attr:`now` reads that one clock. The cluster drives the
board lifecycle through :meth:`crash` / :meth:`recover` (plus
:meth:`fail_one` and :attr:`service_scale` for transient faults and
DMA stalls).

At most one DISPATCH marker is pending per instant: an arrival or a
completion at *t* pushes one only when none is already queued at *t*,
and the marker's pass serves every free coprocessor in one go.
Popping the marker, or a crash's :meth:`spill`, clears the pending
state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..system.server import CostModel
from ..system.workloads import Job
from .batching import BatchPolicy, DmaBatcher
from .events import Event, EventHeap, EventKind
from .schedulers import FifoScheduler, QueueEntry, Scheduler, \
    WeightedFairScheduler
from .telemetry import ServingReductions
from .tenants import AdmissionController, Rejection, TenantSet


@dataclass(frozen=True)
class _Dispatched:
    """Payload of a COMPLETION event: one batch on one coprocessor."""

    coprocessor: int
    entries: tuple[QueueEntry, ...]
    start_seconds: float
    service_seconds: float


@dataclass(frozen=True)
class JobResult:
    """Completion record of one scheduled job."""

    job: Job
    coprocessor: int
    start_seconds: float
    finish_seconds: float

    @property
    def latency_seconds(self) -> float:
        """Finish minus the client's *first* submission: a retried job
        is measured from its original arrival, not its re-injection."""
        origin = self.job.first_arrival_seconds
        return self.finish_seconds - (self.job.arrival_seconds
                                      if origin is None else origin)


@dataclass
class RuntimeReport(ServingReductions):
    """One board's run: its job results plus three accumulators.

    ``results`` and ``rejected`` are the record every reduction reads.
    The fields beside them are the three quantities that record cannot
    rebuild exactly: per-coprocessor busy time (summed service seconds
    — re-summing result intervals drifts in the last bits), the
    scheduler's queue depth sampled at every enqueue and dispatch, and
    the completions that missed their tenant's SLA (the tenants are
    the runtime's, not the record's).
    """

    busy_seconds: list[float]
    results: list[JobResult] = field(default_factory=list)
    rejected: list[Rejection] = field(default_factory=list)
    queue_depth_trace: list[tuple[float, int]] = field(default_factory=list)
    sla_violations: int = 0

    def utilization(self, horizon_seconds: float | None = None,
                    ) -> list[float]:
        """Busy fraction of each coprocessor over ``horizon_seconds``.

        The window defaults to this run's makespan; a cluster passes
        its shared window so an early-finishing board shows its slack.
        """
        horizon = (self.makespan_seconds if horizon_seconds is None
                   else horizon_seconds)
        if horizon <= 0:
            return [0.0] * len(self.busy_seconds)
        return [min(b / horizon, 1.0) for b in self.busy_seconds]

    def mean_utilization(self, horizon_seconds: float | None = None,
                         ) -> float:
        """Average busy fraction across coprocessors; 0.0 when empty.

        Safe on reports with no results (an idle board in a cluster
        must not crash the aggregation that averages utilizations).
        """
        util = self.utilization(horizon_seconds)
        return sum(util) / len(util) if util else 0.0


class ServingRuntime:
    """One Arm+FPGA board: event-driven scheduling over its cost model.

    One runtime instance performs one run: schedulers and the report are
    stateful, so construct a fresh runtime (or at least a fresh
    scheduler) for every workload. ``name`` identifies the board inside
    a cluster (rendezvous hashing and the cluster report read it).
    """

    def __init__(self, cost: CostModel, *, name: str = "board",
                 scheduler: Scheduler | None = None,
                 batching: BatchPolicy | None = None,
                 tenants: TenantSet | None = None) -> None:
        self.cost = cost
        self.name = name
        # `is None`, not `or`: an empty scheduler is falsy via __len__.
        self.scheduler = FifoScheduler() if scheduler is None else scheduler
        self.tenants = TenantSet() if tenants is None else tenants
        if isinstance(self.scheduler, WeightedFairScheduler):
            self.scheduler.weights = self.tenants.weights()
        self.batcher = DmaBatcher(cost, batching)
        self.admission = AdmissionController(self.tenants,
                                             self.num_coprocessors)
        self._ran = False
        self._heap: EventHeap | None = None
        self._report: RuntimeReport | None = None
        self._free: list[bool] = []
        self._busy_until: list[float] = []
        self._queued_per_tenant: dict[str, int] = {}
        self._seq: itertools.count[int] = itertools.count()
        self._pending_seconds = 0.0
        self._pending_jobs = 0
        self._in_flight_jobs = 0
        self._service_scale = 1.0
        self._arrived = 0
        self._handed_back = 0
        #: Instant of the one pending DISPATCH marker; ``None`` if none.
        self._dispatch_at: float | None = None
        #: Clock instant of the last crash; ``None`` while the board is up.
        self.down_since: float | None = None

    # -- the stepping API --------------------------------------------------------------

    def begin(self, heap: EventHeap | None = None) -> None:
        """Arm the runtime for one simulation (single-use guard): on
        its own heap, or on the one a cluster's boards share."""
        if self._ran:
            raise RuntimeError(
                "a ServingRuntime is single-use; build a fresh one per run"
            )
        self._ran = True
        self.scheduler.bind(self.num_coprocessors)
        self._heap = EventHeap() if heap is None else heap
        self._report = RuntimeReport(
            busy_seconds=[0.0] * self.num_coprocessors)
        self._free = [True] * self.num_coprocessors
        self._busy_until = [0.0] * self.num_coprocessors

    def inject(self, job: Job) -> None:
        """Feed one arrival into the simulation.

        The arrival is queued on the event heap, not processed: events
        advance only through :meth:`advance_to` / :meth:`drain`, so an
        outer driver injecting several equal-time arrivals observes
        the same event ordering as a one-shot :meth:`run`.
        """
        if self._heap is None:
            raise RuntimeError("begin() must run before inject()")
        if job.arrival_seconds < self._heap.now:
            raise ValueError(
                f"cannot inject an arrival at {job.arrival_seconds} behind "
                f"the clock at {self._heap.now}"
            )
        self._heap.push(job.arrival_seconds, EventKind.ARRIVAL, job, self)
        self._pending_seconds += self.cost.job_seconds_of(job)
        self._pending_jobs += 1
        self._arrived += 1

    def advance_to(self, time_seconds: float, *,
                   inclusive: bool = True) -> None:
        """Process every event due by ``time_seconds``
        (:meth:`EventHeap.advance`); the clock reaches the deadline."""
        if self._heap is None:
            raise RuntimeError("begin() must run before advance_to()")
        self._heap.advance(time_seconds, inclusive=inclusive)

    def drain(self) -> RuntimeReport:
        """Process all remaining events and return the final report.

        Raises if a job went missing: every arrival must have completed,
        been rejected, or been handed back by :meth:`spill` /
        :meth:`fail_one`.
        """
        if self._heap is None:
            raise RuntimeError("begin() must run before drain()")
        self._heap.advance()
        check_conservation("runtime", self._arrived,
                           completed=len(self._report.results),
                           rejected=len(self._report.rejected),
                           handed_back=self._handed_back)
        return self._report

    def run(self, jobs: list[Job]) -> RuntimeReport:
        self.begin()
        for job in jobs:
            self.inject(job)
        return self.drain()

    @property
    def num_coprocessors(self) -> int:
        return self.cost.config.num_coprocessors

    # -- failure semantics (driven by the cluster's fault loop) ------------------------

    @property
    def service_scale(self) -> float:
        """Service-time multiplier (1.0 nominal; >1 under a DMA stall)."""
        return self._service_scale

    @service_scale.setter
    def service_scale(self, value: float) -> None:
        if value < 1.0:
            raise ValueError("service scale cannot beat nominal hardware")
        self._service_scale = float(value)

    def spill(self) -> list[Job]:
        """Crash semantics: abandon all outstanding work, return it.

        Takes this board's events off the heap and drains the
        scheduler without processing anything: queued arrivals,
        scheduled entries and in-flight batches all come back as bare
        jobs (the cluster's retry path re-prices and re-routes them);
        a pending DISPATCH marker is dropped. The runtime itself stays
        usable — a recovered board re-enters service with empty queues
        on the same clock.
        """
        if self._heap is None:
            raise RuntimeError("begin() must run before spill()")
        spilled: list[Job] = []
        self._dispatch_at = None
        for event in self._heap.take(self):
            if event.kind is EventKind.ARRIVAL:
                spilled.append(event.payload)
            elif event.kind is EventKind.COMPLETION:
                spilled.extend(e.job for e in event.payload.entries)
        now = self._heap.now
        while True:
            entry = self.scheduler.next_entry(0, now)
            if entry is None:
                break
            self._queued_per_tenant[entry.tenant] -= 1
            spilled.append(entry.job)
        self._pending_seconds = 0.0
        self._pending_jobs = 0
        self._in_flight_jobs = 0
        self._free = [True] * self.num_coprocessors
        self._busy_until = [now] * self.num_coprocessors
        self._handed_back += len(spilled)
        return spilled

    @property
    def up(self) -> bool:
        """Whether the board is in service (not crashed)."""
        return self.down_since is None

    def crash(self, now: float) -> list[Job]:
        """Kill the board: spill all outstanding work, go down."""
        if not self.up:
            return []
        self.down_since = now
        return self.spill()

    def recover(self) -> None:
        """Return to service: empty queues, nominal DMA, cold caches."""
        self.down_since = None
        self.service_scale = 1.0

    def fail_one(self) -> Job | None:
        """Transient-fault semantics: kill one queued job, return it.

        Pops the entry the scheduler would dispatch next (determinism:
        no sampling involved); ``None`` when nothing is queued.
        """
        if self._heap is None:
            raise RuntimeError("begin() must run before fail_one()")
        entry = self.scheduler.next_entry(0, self._heap.now)
        if entry is None:
            return None
        self._queued_per_tenant[entry.tenant] -= 1
        self._handed_back += 1
        return entry.job

    # -- live load signals (routing/backpressure hints) --------------------------------

    @property
    def now(self) -> float:
        """The simulation's clock (the heap this board runs on)."""
        return self._heap.now

    def next_event_seconds(self) -> float | None:
        """Due time of the next queued event, or None when idle.

        Closed-loop drivers peek this to know how far they can advance
        before the simulation state changes.
        """
        if not self._heap:
            return None
        return self._heap.peek().time_seconds

    def completion_feeds(self) -> list[list[JobResult]]:
        """Live completion list(s); entries appear as events process.

        Part of the stepping protocol closed-loop clients drive
        (:class:`~repro.system.workloads.ClosedLoopClients`): callers
        keep a cursor per feed and must not mutate the lists.
        """
        if self._report is None:
            raise RuntimeError("begin() must run before completion_feeds()")
        return [self._report.results]

    def rejection_feeds(self) -> list[list[Rejection]]:
        """Live rejection list(s), parallel to :meth:`completion_feeds`."""
        if self._report is None:
            raise RuntimeError("begin() must run before rejection_feeds()")
        return [self._report.rejected]

    def outstanding_seconds(self) -> float:
        """Service-seconds of admitted-or-pending work not yet finished.

        Counts the scheduler backlog, the remaining service of in-flight
        batches, and injected-but-unprocessed arrivals — the signal
        load-aware routers compare across shards.
        """
        in_flight = sum(max(until - self._heap.now, 0.0)
                        for until in self._busy_until)
        return (self.scheduler.backlog_seconds + in_flight
                + self._pending_seconds)

    def outstanding_jobs(self) -> int:
        return (len(self.scheduler) + self._in_flight_jobs
                + self._pending_jobs)

    def drain_estimate_seconds(self) -> float:
        """Optimistic time-to-idle: outstanding work split evenly."""
        return self.outstanding_seconds() / self.num_coprocessors

    def would_admit(self, job: Job) -> bool:
        """Whether admission control would accept `job` right now.

        A routing hint only — the authoritative decision happens when
        the arrival event is processed (equal-time arrivals injected
        after this check still count against the backlog then).
        """
        cost = self.cost.job_seconds_of(job)
        reason = self.admission.reject_reason(
            job, self._queued_per_tenant.get(job.tenant, 0),
            self.scheduler.backlog_seconds, cost,
        )
        return reason is None

    # -- the event loop ----------------------------------------------------------------

    def handle(self, event: Event) -> None:
        """Process one of this board's events (called by the heap)."""
        kind = event.kind
        if kind is EventKind.ARRIVAL:
            self._on_arrival(event.payload, event.time_seconds)
        elif kind is EventKind.DISPATCH:
            self._dispatch_at = None
            self._on_dispatch(event.time_seconds)
        else:
            self._on_completion(event.payload, event.time_seconds)

    def _on_arrival(self, job: Job, now: float) -> None:
        cost = self.cost.job_seconds_of(job)
        self._pending_seconds = max(self._pending_seconds - cost, 0.0)
        self._pending_jobs -= 1
        reason = self.admission.reject_reason(
            job, self._queued_per_tenant.get(job.tenant, 0),
            self.scheduler.backlog_seconds, cost,
        )
        if reason is not None:
            self._report.rejected.append(
                Rejection(job=job, time_seconds=now, reason=reason)
            )
            return
        self.scheduler.enqueue(
            QueueEntry(job=job, cost_seconds=cost, seq=next(self._seq))
        )
        self._queued_per_tenant[job.tenant] = \
            self._queued_per_tenant.get(job.tenant, 0) + 1
        self._report.queue_depth_trace.append((now, len(self.scheduler)))
        # All-busy arrivals just queue; the next completion dispatches.
        if any(self._free):
            self._request_dispatch(now)

    def _request_dispatch(self, now: float) -> None:
        """Queue a DISPATCH at `now` unless one is already pending there."""
        if self._dispatch_at != now:
            self._dispatch_at = now
            self._heap.push(now, EventKind.DISPATCH, None, self)

    def _on_dispatch(self, now: float) -> None:
        for coproc in range(self.num_coprocessors):
            if not self._free[coproc] or not len(self.scheduler):
                continue
            # Coalesce only the backlog beyond what the still-free
            # coprocessors can absorb one job each: a train must never
            # serialize work that could run in parallel right now.
            still_free = sum(self._free[coproc:])
            fair_share = -(-len(self.scheduler) // still_free)
            limit = min(self.batcher.max_jobs, fair_share)
            batch: list[QueueEntry] = []
            while len(batch) < limit:
                entry = self.scheduler.next_entry(coproc, now)
                if entry is None:
                    break
                self._queued_per_tenant[entry.tenant] -= 1
                batch.append(entry)
            if not batch:
                continue
            self._report.queue_depth_trace.append(
                (now, len(self.scheduler)))
            service = self.batcher.service_seconds(batch) \
                * self._service_scale
            self._free[coproc] = False
            self._busy_until[coproc] = now + service
            self._in_flight_jobs += len(batch)
            self._heap.push(now + service, EventKind.COMPLETION, _Dispatched(
                coprocessor=coproc, entries=tuple(batch),
                start_seconds=now, service_seconds=service,
            ), self)

    def _on_completion(self, done: _Dispatched, now: float) -> None:
        report = self._report
        for entry in done.entries:
            result = JobResult(
                job=entry.job, coprocessor=done.coprocessor,
                start_seconds=done.start_seconds, finish_seconds=now,
            )
            report.results.append(result)
            sla = self.tenants.get(entry.tenant).sla_seconds
            if sla is not None and result.latency_seconds > sla:
                report.sla_violations += 1
        report.busy_seconds[done.coprocessor] += done.service_seconds
        self._free[done.coprocessor] = True
        self._in_flight_jobs -= len(done.entries)
        self._request_dispatch(now)


def check_conservation(where: str, arrived: int, **outcomes: int) -> None:
    """Raise unless every arrival landed in exactly one outcome bucket."""
    landed = sum(outcomes.values())
    if arrived != landed:
        counts = " + ".join(f"{count} {name.replace('_', ' ')}"
                            for name, count in outcomes.items())
        raise RuntimeError(f"{where} broke job conservation: {arrived} "
                           f"arrived but {counts} = {landed}")
