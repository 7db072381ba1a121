"""The multi-FPGA cluster: N boards behind one router.

A shard is one board, i.e. one :class:`~repro.serve.engine.ServingRuntime`;
the cluster adds only placement and faults. A run has one
:class:`~repro.serve.events.EventHeap`, the one queue and the one
clock: every board's arrivals, dispatches and completions, the fault
plan's FAULT events and the RETRY of every failed job. Events pop in
(time, rank, insertion) order, and at one instant FAULT and RETRY
events rank before board events. An arrival at *t* first advances the
heap to *t* exclusively — every event before *t*, and every fault and
retry at *t* — then one walk over the live boards in preference order
places the job on the first board whose admission control would take
it; the board's events at *t* run after it.

A single-shard cluster is bit-identical to driving the underlying
:class:`ServingRuntime` directly (validated in the tests), so the
runtime's results — and through them the paper's 400 Mult/s headline —
carry over unchanged; the scale-out claim this layer adds is
near-linear Mult/s to eight boards under tenant-affinity routing.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import replace

from ..faults import (
    FailureReport,
    FaultEvent,
    FaultKind,
    FaultPlan,
    RetryPolicy,
)
from ..hw.config import HardwareConfig
from ..obs import active_tracer
from ..params import ParameterSet
from ..serve.engine import ServingRuntime, check_conservation
from ..serve.events import Event, EventHeap, EventKind
from ..serve.tenants import Rejection
from ..system.server import CostModel
from ..system.workloads import Job
from .placement import ReplicatedPlacement
from .report import ClusterReport
from .routing import RoundRobinRouter, Router

class FpgaCluster:
    """N Arm+FPGA boards serving one job stream (single-use)."""

    def __init__(self, shards: Sequence[ServingRuntime],
                 router: Router | None = None, *,
                 fault_plan: FaultPlan | None = None,
                 retry: RetryPolicy | None = None,
                 replicas: int | None = None) -> None:
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        if len({shard.name for shard in shards}) != len(shards):
            raise ValueError("shard names must be unique")
        self.shards = list(shards)
        self.router = RoundRobinRouter() if router is None else router
        self.fault_plan = fault_plan
        if fault_plan is not None:
            for event in fault_plan:
                if event.shard >= len(self.shards):
                    raise ValueError(
                        f"fault plan names shard {event.shard} but the "
                        f"cluster has {len(self.shards)}"
                    )
        self.retry = (RetryPolicy() if retry is None
                      and fault_plan is not None else retry)
        self.placement = (None if replicas is None else
                          ReplicatedPlacement(
                              [s.name for s in self.shards], replicas))
        self._ran = False
        self._arrived = 0
        self._overflow: list[Rejection] = []
        self._reroutes = 0
        self._heap: EventHeap | None = None
        self._attempts: dict[tuple, int] = {}
        self._failure: FailureReport | None = None

    # -- constructors ------------------------------------------------------------------

    @classmethod
    def homogeneous(cls, params: ParameterSet, num_shards: int,
                    **kwargs) -> FpgaCluster:
        """N identical boards of the paper's design (sharing one
        :class:`CostModel`)."""
        return cls.heterogeneous(
            params, [HardwareConfig()] * num_shards, **kwargs)

    @classmethod
    def heterogeneous(cls, params: ParameterSet,
                      configs: Sequence[HardwareConfig], *,
                      router: Router | None = None,
                      fault_plan: FaultPlan | None = None,
                      retry: RetryPolicy | None = None,
                      replicas: int | None = None,
                      ) -> FpgaCluster:
        """One board per config — mixed design points in one cluster.

        Real deployments accrete hardware: a rack may mix two-butterfly
        boards with older one-butterfly builds or the slow non-HPS
        design point. Load-aware routers see each board's own service
        costs, so the slow boards naturally draw less work.
        """
        if not configs:
            raise ValueError("need at least one hardware config")
        # Boards sharing a design point share one cost model too —
        # HardwareConfig is frozen/hashable, and the cycle model it
        # keys is the expensive part of board construction.
        costs: dict[HardwareConfig, CostModel] = {}
        shards = []
        for i, config in enumerate(configs):
            cost = costs.get(config)
            if cost is None:
                cost = costs[config] = CostModel(params, config)
            shards.append(ServingRuntime(cost, name=f"shard{i}"))
        return cls(shards, router=router, fault_plan=fault_plan,
                   retry=retry, replicas=replicas)

    def capacity_mults_per_second(self) -> float:
        """Sum of every board's saturated Mult/s."""
        return sum(shard.cost.mult_throughput_per_second()
                   for shard in self.shards)

    # -- the shared-clock stepping API -------------------------------------------------

    def begin(self) -> None:
        """Arm every shard on one heap and queue the fault plan on it
        (single-use guard)."""
        if self._ran:
            raise RuntimeError(
                "an FpgaCluster is single-use; build a fresh one per run"
            )
        self._ran = True
        heap = self._heap = EventHeap()
        for shard in self.shards:
            shard.begin(heap)
        for event in self.fault_plan or ():
            heap.push(event.time_seconds, EventKind.FAULT, event, self)
        self._overflow: list[Rejection] = []
        self._reroutes = 0
        self._attempts = {}
        if self.fault_plan is not None or self.placement is not None:
            self._failure = FailureReport(
                plan_seed=None if self.fault_plan is None
                else self.fault_plan.seed)

    def inject(self, job: Job) -> None:
        """Advance the heap to the arrival instant, route, and inject.

        The exclusive advance runs every event before the arrival and
        every fault and retry at it, so the router compares load states
        at one instant; :meth:`_place` then puts the job on a board.
        """
        arrival = job.arrival_seconds
        if not 0.0 <= arrival < math.inf:
            raise ValueError(
                f"arrival time must be finite and non-negative, "
                f"not {arrival}")
        self._heap.advance(arrival, inclusive=False)
        self._arrived += 1
        self._place(job)

    def advance_to(self, time_seconds: float, *,
                   inclusive: bool = True) -> None:
        """Process every event due by ``time_seconds``
        (:meth:`EventHeap.advance`)."""
        self._heap.advance(time_seconds, inclusive=inclusive)

    def next_event_seconds(self) -> float | None:
        """Due time of the next event — board, fault or retry — or None
        when the heap is empty."""
        heap = self._heap
        return heap.peek().time_seconds if heap else None

    def completion_feeds(self) -> list[list]:
        """One live completion list per shard (closed-loop protocol)."""
        return [feed for shard in self.shards
                for feed in shard.completion_feeds()]

    def rejection_feeds(self) -> list[list[Rejection]]:
        """Per-shard live rejection lists plus the cluster-edge overflow."""
        feeds = [feed for shard in self.shards
                 for feed in shard.rejection_feeds()]
        return feeds + [self._overflow]

    def drain(self) -> ClusterReport:
        """Run the heap dry and collect the per-shard reports.

        A crash scheduled after the last arrival still spills (and
        recovers) exactly as it would mid-stream. Raises if a job went
        missing: every arrival must end up in one board's results or
        rejections, or in the cluster-edge rejections (which include
        retry-budget losses).
        """
        self._heap.advance()
        reports = [shard.drain() for shard in self.shards]
        check_conservation(
            "cluster", self._arrived,
            completed=sum(len(report.results) for report in reports),
            rejected=sum(len(report.rejected) for report in reports),
            rejected_at_edge=len(self._overflow))
        if self._failure is not None:
            self._close_downtime_windows()
        return ClusterReport(
            shard_names=[shard.name for shard in self.shards],
            shard_reports=reports,
            router_name=self.router.name,
            overflow_rejected=self._overflow,
            reroutes=self._reroutes,
            failure=self._failure,
        )

    # -- faults and retries ------------------------------------------------------------

    def handle(self, event: Event) -> None:
        """Apply a FAULT or a RETRY event (called by the heap)."""
        if event.kind is EventKind.FAULT:
            self._apply_fault(event.payload)
        else:
            self._inject_retry(*event.payload)

    def _apply_fault(self, event: FaultEvent) -> None:
        now = event.time_seconds
        shard = self.shards[event.shard]
        failure = self._failure
        failure.events.append(event)
        tracer = active_tracer()
        if tracer is not None:
            tracer.add(f"fault.{event.kind.value}", "fault", now, now,
                       clock="sim", shard=shard.name)
        if event.kind is FaultKind.SHARD_CRASH:
            if not shard.up:
                return
            spilled = shard.crash(now)
            failure.crashes += 1
            failure.jobs_spilled += len(spilled)
            if self.placement is not None:
                self.placement.evict_shard(event.shard)
            for job in spilled:
                self._schedule_retry(job, event.shard, now)
        elif event.kind is FaultKind.SHARD_RECOVER:
            if shard.up:
                return
            down_since = shard.down_since
            failure.recoveries += 1
            failure.downtime_by_shard[shard.name] = (
                failure.downtime_by_shard.get(shard.name, 0.0)
                + (now - down_since))
            if tracer is not None:
                tracer.add("shard.down", "fault", down_since, now,
                           clock="sim", shard=shard.name)
            if self.placement is not None:
                failure.rebalanced_tenants += len(
                    self.placement.primary_tenants(event.shard))
            shard.recover()
        elif event.kind is FaultKind.JOB_FAIL:
            if not shard.up:
                return
            job = shard.fail_one()
            if job is not None:
                failure.transient_failures += 1
                self._schedule_retry(job, event.shard, now)
        elif event.kind is FaultKind.DMA_STALL:
            if shard.up:
                shard.service_scale = event.factor
                failure.dma_stalls += 1
        elif event.kind is FaultKind.DMA_RESUME:
            if shard.up:
                shard.service_scale = 1.0

    def _schedule_retry(self, job: Job, origin: int, now: float) -> None:
        """Queue a failed/spilled job for backed-off re-injection."""
        retry = self.retry
        key = (job.tenant, job.index, job.request)
        attempt = self._attempts.get(key, 1) + 1
        self._attempts[key] = attempt
        if attempt > retry.max_attempts:
            self._failure.jobs_lost += 1
            self._overflow.append(Rejection(
                job=job, time_seconds=now, reason="retry-budget"))
            return
        due = now + retry.backoff_seconds(attempt - 1, token=job.index)
        first = (job.arrival_seconds if job.first_arrival_seconds is None
                 else job.first_arrival_seconds)
        retried = replace(job, arrival_seconds=due,
                          first_arrival_seconds=first)
        self._heap.push(due, EventKind.RETRY, (retried, origin), self)

    def _inject_retry(self, job: Job, origin: int) -> None:
        self._failure.jobs_retried += 1
        target = self._place(job)
        if target is not None and target != origin:
            self._failure.jobs_relocated += 1

    def _close_downtime_windows(self) -> None:
        """Account downtime for boards still down when the run ends."""
        end = self._heap.now
        tracer = active_tracer()
        for shard in self.shards:
            if shard.up:
                continue
            self._failure.downtime_by_shard[shard.name] = (
                self._failure.downtime_by_shard.get(shard.name, 0.0)
                + (end - shard.down_since))
            if tracer is not None:
                tracer.add("shard.down", "fault", shard.down_since, end,
                           clock="sim", shard=shard.name)

    # -- placement ---------------------------------------------------------------------

    def _candidates(self, job: Job) -> Iterator[int]:
        """The live boards for `job`, most preferred first.

        With replicas, the tenant's rendezvous order. Otherwise the
        router's pick over the live boards, then the rest of them by
        (drain estimate, index).
        """
        if self.placement is not None:
            yield from (i for i in self.placement.preference(job.tenant)
                        if self.shards[i].up)
            return
        alive = [i for i, shard in enumerate(self.shards) if shard.up]
        if not alive:
            return
        chosen = self.router.choose(job, [self.shards[i] for i in alive])
        if not 0 <= chosen < len(alive):
            raise ValueError(
                f"router {self.router.name!r} chose shard {chosen} "
                f"of {len(alive)}"
            )
        primary = alive.pop(chosen)
        yield primary
        yield from sorted(
            alive, key=lambda i: (self.shards[i].drain_estimate_seconds(), i))

    def _place(self, job: Job) -> int | None:
        """Inject `job` on a board and return its index (None: no board
        is up, and the cluster rejects at its edge).

        The job goes to the first candidate whose admission control
        would take it; when none would, the first candidate's own
        admission control records the rejection with its precise
        reason. A replicated tenant placed past its rendezvous primary
        while that board is down has *failed over*; on a board that
        does not hold its keys warm it pays the key-rehydration penalty.
        """
        candidates = self._candidates(job)
        first = next(candidates, None)
        if first is None:
            self._overflow.append(Rejection(
                job=job, time_seconds=job.arrival_seconds,
                reason="unavailable"))
            return None
        target = next((i for i in itertools.chain((first,), candidates)
                       if self.shards[i].would_admit(job)), first)
        if target != first:
            self._reroutes += 1
        placement = self.placement
        if placement is not None:
            primary = placement.primary(job.tenant)
            if target != primary and not self.shards[primary].up:
                tenants = self._failure.failovers_by_tenant
                tenants[job.tenant] = tenants.get(job.tenant, 0) + 1
            if not placement.is_warm(job.tenant, target):
                # Cold replica: the tenant's relin/Galois key
                # polynomials restage over DMA before this job runs —
                # priced as extra input transfers.
                key_polys = 2 * self.shards[target].cost.params.k_q
                job = replace(job, polys_in=job.polys_in + key_polys)
                placement.warm(job.tenant, target)
                self._failure.rehydrations += 1
        self.shards[target].inject(job)
        return target

    def run(self, jobs: Sequence[Job]) -> ClusterReport:
        """Route `jobs` across the shards and drain every board.

        Exactly ``begin`` + ``inject``\\* (in arrival order) + ``drain``,
        so the one-shot and stepping paths share one code path — the
        same structure :class:`~repro.serve.engine.ServingRuntime` has.
        """
        self.begin()
        for job in sorted(jobs, key=lambda j: j.arrival_seconds):
            self.inject(job)
        return self.drain()
