"""The simulation executor: programs priced through the serving stack.

Where :class:`~repro.api.backends.LocalBackend` computes real
ciphertexts, :class:`SimulatedBackend` answers the capacity-planning
question: *what latency would this program see on the paper's hardware,
at this request rate, on this many boards?* It lowers each graph node to
a :class:`~repro.system.workloads.Job` carrying the operation's real
polynomial-transfer footprint, replays ``requests`` copies of the
stream through a fresh :class:`~repro.serve.engine.ServingRuntime` or
:class:`~repro.cluster.cluster.FpgaCluster`, and reassembles per-request
futures whose telemetry reports simulated p50/p95/p99 latency.

Every price is the target's :class:`~repro.system.server.CostModel`:
each lowered op is one job, charged its compiled coprocessor program
plus its transfers, and queued like any other job (intra-request
dependency chains are not serialised); request latency is the span from
arrival to the completion of the request's last op.

A backend remembers the INPUT operands its simulated server already
holds across runs, as the paper's server keeps operands in the board's
DDR: the last 64 INPUT handles it ingested, FIFO, held weakly so the
set never keeps an expression graph alive. A run prices a resident
input's upload at zero transfer; :attr:`SimulatedRun.cache_hits` /
``cache_misses`` and :attr:`~repro.api.program.LoweredOp.cached_inputs`
are the record of it.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..obs import Span, TraceReport, cluster_timeline, runtime_timeline
from ..params import ParameterSet
from ..serve.engine import ServingRuntime
from ..serve.telemetry import LatencySummary
from ..system.server import CostModel
from ..system.workloads import Job, JobKind, tenant_name
from .program import HEProgram, LoweredOp

#: Lowered job kinds that spend a keyswitch (digit-decomposed key
#: multiply-accumulate) on the coprocessor — the ops the optimiser
#: pass stack exists to eliminate.
_KEYSWITCH_JOB_KINDS = frozenset(
    {JobKind.MULT, JobKind.ROTATE, JobKind.RELIN}
)

#: INPUT operands a simulated server keeps resident across runs.
RESIDENT_LIMIT = 64


@dataclass
class LoweredProgram:
    """A program priced against one concrete cost model.

    :meth:`SimulatedBackend.lower` produces this: the (optionally
    optimised) program's job stream plus what a capacity planner wants
    to know about it before any request arrives. Every price is the
    cost model's: :meth:`independent_seconds` is what the serving
    runtime charges one unbatched request, :meth:`critical_path_seconds`
    the longest compute chain over the
    :attr:`~repro.api.program.LoweredOp.deps` edges.
    """

    program: HEProgram
    ops: list[LoweredOp]
    cost: CostModel
    #: The optimiser's report when :attr:`SimulatedBackend.optimize`
    #: rewrote the program before lowering; ``None`` for raw lowering.
    optimization: object | None = None

    def keyswitch_ops(self) -> int:
        """Lowered ops that pay a keyswitch on the coprocessor."""
        return sum(op.kind in _KEYSWITCH_JOB_KINDS for op in self.ops)

    def independent_seconds(self) -> float:
        """Coprocessor seconds of one request served without batching:
        every op's job priced as the runtime prices it."""
        return sum(self.cost.job_seconds_of(_job(op)) for op in self.ops)

    def critical_path_seconds(self) -> float:
        """Longest compute chain through the dependency edges.

        The floor on request latency however many coprocessors the
        server has.
        """
        finish: list[float] = []
        for op in self.ops:
            ready = max((finish[d] for d in op.deps), default=0.0)
            finish.append(ready + self.cost.compute_seconds(op.kind))
        return max(finish, default=0.0)


def _job(op: LoweredOp, index: int = 0, **fields) -> Job:
    """The serving-runtime job one lowered op runs as."""
    return Job(index=index, kind=op.kind, polys_in=op.polys_in,
               polys_out=op.polys_out, **fields)


@dataclass
class ProgramFuture:
    """Future-style handle for one simulated program execution."""

    request: int
    tenant: str
    arrival_seconds: float
    num_ops: int
    completed_ops: int = 0
    rejected_ops: int = 0
    finish_seconds: float = field(default=0.0)
    #: This request's simulated-clock span (arrival to last-op
    #: completion, one child per lowered job), attached when the
    #: owning :meth:`SimulatedRun.trace` is built.
    trace: Span | None = None

    @property
    def done(self) -> bool:
        """All ops accounted for (completed or rejected)."""
        return self.completed_ops + self.rejected_ops >= self.num_ops

    @property
    def succeeded(self) -> bool:
        return self.done and self.rejected_ops == 0

    @property
    def latency_seconds(self) -> float:
        """Arrival-to-last-op-completion span of the whole request."""
        if not self.succeeded:
            raise RuntimeError(
                f"request {self.request} did not complete "
                f"({self.rejected_ops} of {self.num_ops} ops rejected)"
            )
        return self.finish_seconds - self.arrival_seconds

    def result(self) -> float:
        """Future idiom: the latency, or an error for failed requests."""
        return self.latency_seconds


@dataclass
class SimulatedRun:
    """Everything one :meth:`SimulatedBackend.run` produced."""

    program: HEProgram
    futures: list[ProgramFuture]
    #: The underlying :class:`RuntimeReport` or :class:`ClusterReport`.
    report: object
    #: INPUT operands served from the server's cross-request resident
    #: cache this run (each priced as zero upload transfer).
    cache_hits: int = 0
    #: INPUT operands the server had to ingest fresh this run.
    cache_misses: int = 0
    #: The priced lowering this run executed (optimised when the
    #: backend's ``optimize`` knob is on).
    lowered: LoweredProgram | None = None

    @property
    def critical_path_seconds(self) -> float:
        """Intra-request compute critical path of the executed program."""
        return (self.lowered.critical_path_seconds()
                if self.lowered is not None else 0.0)

    @property
    def failure_report(self):
        """The cluster's fault ledger, or ``None`` for fault-free runs
        (and for single-board runtime targets, which run no fault plan)."""
        return getattr(self.report, "failure", None)

    @property
    def completed(self) -> list[ProgramFuture]:
        return [f for f in self.futures if f.succeeded]

    @property
    def rejected(self) -> list[ProgramFuture]:
        return [f for f in self.futures if f.done and not f.succeeded]

    def latency_summary(self) -> LatencySummary:
        """Per-*request* p50/p95/p99 across completed executions."""
        return LatencySummary.of(
            [f.latency_seconds for f in self.completed]
        )

    def requests_per_second(self) -> float:
        """Completed program executions over the busy window."""
        done = self.completed
        if not done:
            return 0.0
        first = min(f.arrival_seconds for f in done)
        last = max(f.finish_seconds for f in done)
        span = last - first
        return len(done) / span if span > 0 else 0.0

    # -- observability handles ---------------------------------------------------------

    def trace(self) -> TraceReport:
        """Simulated-clock span tree of this run.

        The priced twin of :attr:`ProgramResult.trace
        <repro.api.backends.ProgramResult>`: one "request" span per
        program execution (arrival to last-op completion) containing
        one "op" span per lowered job with its simulated service
        interval, coprocessor and tenant. All timestamps are simulated
        seconds (``clock="sim"``).
        """
        results = getattr(self.report, "results", [])
        end = max((r.finish_seconds for r in results), default=0.0)
        root = Span(name="simulated.run", kind="program", clock="sim",
                    start=0.0, end=end,
                    attrs={"requests": len(self.futures),
                           "num_ops": self.program.num_ops})
        by_request: dict[int, list] = {}
        for result in results:
            by_request.setdefault(result.job.request, []).append(result)
        for future in self.futures:
            jobs = by_request.get(future.request, [])
            req = Span(
                name=f"request#{future.request}", kind="request",
                clock="sim", start=future.arrival_seconds,
                end=max((r.finish_seconds for r in jobs),
                        default=future.arrival_seconds),
                attrs={"tenant": future.tenant,
                       "rejected_ops": future.rejected_ops},
            )
            for result in jobs:
                req.children.append(Span(
                    name=result.job.kind.name.lower(), kind="op",
                    clock="sim", start=result.start_seconds,
                    end=result.finish_seconds,
                    attrs={"op": result.job.kind.name,
                           "coprocessor": result.coprocessor,
                           "tenant": result.job.tenant},
                ))
            future.trace = req
            root.children.append(req)
        return TraceReport(root)

    def timeline(self) -> list[dict]:
        """This run's event heap as Chrome trace events.

        Per-coprocessor lanes (one trace *process* per shard for
        cluster runs), one slice per job, and queue-depth counter
        tracks — load the JSON in Perfetto to see the DMA trains.
        """
        if hasattr(self.report, "shard_reports"):
            return cluster_timeline(self.report)
        return runtime_timeline(self.report)


class SimulatedBackend:
    """Execute programs against the serving runtime or the cluster.

    Construct with one of the factories::

        SimulatedBackend.over_runtime(params)            # one board
        SimulatedBackend.over_cluster(params, shards=8)  # a rack

    then ``run(program, requests=1000, rate_per_second=500)``. Each call
    builds a fresh single-use target from the stored factory, so one
    backend can run many programs / load points.
    """

    def __init__(self, params: ParameterSet,
                 target_factory: Callable[[], object], *,
                 description: str = "",
                 cost: CostModel | None = None,
                 optimize: bool = False) -> None:
        self.params = params
        self.target_factory = target_factory
        self.description = description
        #: Cost model :meth:`lower` prices programs with. The
        #: single-board factory's runtime charges with this very
        #: object; ``over_cluster``'s target is built by
        #: ``FpgaCluster.homogeneous``, which makes a fresh
        #: ``CostModel`` for the same parameters and default hardware
        #: on every run — equal prices, from a different object.
        self.cost = cost if cost is not None else CostModel(params)
        #: Run every program through the optimiser pass stack before
        #: lowering (``repro.optim``); the resulting
        #: :class:`LoweredProgram` carries the optimiser's report.
        self.optimize = optimize
        # The INPUT nodes the simulated server holds, by id(node) in
        # ingest order. Each is held through a weak reference whose
        # callback drops the entry when the node is collected, so a
        # recycled id never aliases a dead entry.
        self._resident: dict[int, weakref.ref] = {}

    # -- constructors ------------------------------------------------------------------

    @classmethod
    def over_runtime(cls, params: ParameterSet, *,
                     scheduler_factory: Callable[[], object] | None = None,
                     optimize: bool = False,
                     ) -> SimulatedBackend:
        """One Arm+FPGA board (the paper's Fig. 11 server)."""
        cost = CostModel(params)

        def factory() -> ServingRuntime:
            scheduler = scheduler_factory() if scheduler_factory else None
            return ServingRuntime(cost, scheduler=scheduler)

        return cls(params, factory, description="single board",
                   cost=cost, optimize=optimize)

    @classmethod
    def over_cluster(cls, params: ParameterSet, num_shards: int, *,
                     router_factory: Callable[[], object] | None = None,
                     scheduler_factory: Callable[[], object] | None = None,
                     optimize: bool = False,
                     fault_plan=None, retry=None,
                     replicas: int | None = None,
                     ) -> SimulatedBackend:
        """A multi-FPGA shard cluster behind a placement router.

        ``fault_plan`` / ``retry`` / ``replicas`` thread straight
        through to :meth:`FpgaCluster.homogeneous`, so a client program
        can run against a chaos scenario (board kills, retries,
        replica failover) and read the outcome from
        :attr:`SimulatedRun.failure_report`.
        """
        from ..cluster.cluster import FpgaCluster

        def factory() -> FpgaCluster:
            router = router_factory() if router_factory else None
            return FpgaCluster.homogeneous(
                params, num_shards, router=router,
                scheduler_factory=scheduler_factory,
                fault_plan=fault_plan, retry=retry, replicas=replicas,
            )

        return cls(params, factory,
                   description=f"{num_shards}-shard cluster",
                   cost=CostModel(params), optimize=optimize)

    # -- execution ---------------------------------------------------------------------

    def lower(self, program: HEProgram,
              resident_inputs: Sequence[object] = ()) -> LoweredProgram:
        """Price one program against this backend's cost model.

        With :attr:`optimize` on, the program first runs through the
        optimiser pass stack and the returned
        :class:`LoweredProgram` prices the *optimised* job stream.
        """
        optimization = None
        if self.optimize:
            from ..optim import optimize_program

            program, optimization = optimize_program(program)
        ops = program.lower(resident_inputs=resident_inputs)
        return LoweredProgram(program=program, ops=ops, cost=self.cost,
                              optimization=optimization)

    def lower_jobs(self, lowered: LoweredProgram, *,
                   requests: int, rate_per_second: float | None,
                   num_tenants: int, seed: int
                   ) -> tuple[list[Job], list[ProgramFuture]]:
        """The job stream for `requests` executions of one lowered
        program: every op of a request is offered at the request's
        arrival instant, tagged with its request index."""
        ops = lowered.ops
        if requests < 1:
            raise ValueError("need at least one request")
        if num_tenants < 1:
            raise ValueError("need at least one tenant")
        rng = np.random.default_rng(seed)
        if rate_per_second is None:
            arrivals = np.zeros(requests)
        else:
            if rate_per_second <= 0:
                raise ValueError("request rate must be positive")
            arrivals = np.cumsum(
                rng.exponential(1.0 / rate_per_second, size=requests)
            )
        jobs: list[Job] = []
        futures: list[ProgramFuture] = []
        index = 0
        for r in range(requests):
            tenant = tenant_name(r % num_tenants)
            at = float(arrivals[r])
            futures.append(ProgramFuture(
                request=r, tenant=tenant, arrival_seconds=at,
                num_ops=len(ops),
            ))
            for op in ops:
                jobs.append(_job(op, index, arrival_seconds=at,
                                 tenant=tenant, request=r))
                index += 1
        return jobs, futures

    def run(self, program: HEProgram, *, requests: int = 1,
            rate_per_second: float | None = None, num_tenants: int = 1,
            seed: int = 0) -> SimulatedRun:
        """Simulate `requests` executions and resolve their futures.

        ``rate_per_second`` draws Poisson request arrivals; ``None``
        offers every request at t=0 (the saturated ceiling). Requests
        round-robin over ``num_tenants`` synthetic tenants so
        tenant-affinity routers spread program traffic across boards.

        INPUT operands this backend has seen in a previous :meth:`run`
        are still resident in the simulated server's DDR: their upload
        bursts are priced at zero transfer (surfaced as
        :attr:`SimulatedRun.cache_hits`), exactly like the paper's
        server skipping the upload DMA for operands it already holds.
        """
        resident = [node for node in program.inputs if self._holds(node)]
        lowered = self.lower(program, resident_inputs=resident)
        for node in program.inputs:
            self._ingest(node)
        jobs, futures = self.lower_jobs(
            lowered, requests=requests, rate_per_second=rate_per_second,
            num_tenants=num_tenants, seed=seed,
        )
        target = self.target_factory()
        report = target.run(jobs)
        by_request = {future.request: future for future in futures}
        for result in report.results:
            future = by_request.get(result.job.request)
            if future is None:      # pragma: no cover - foreign job
                continue
            future.completed_ops += 1
            future.finish_seconds = max(future.finish_seconds,
                                        result.finish_seconds)
        for rejection in report.rejected:
            future = by_request.get(rejection.job.request)
            if future is None:      # pragma: no cover - foreign job
                continue
            future.rejected_ops += 1
        return SimulatedRun(program=lowered.program, futures=futures,
                            report=report,
                            cache_hits=len(resident),
                            cache_misses=len(program.inputs)
                            - len(resident),
                            lowered=lowered)

    def _holds(self, node: object) -> bool:
        ref = self._resident.get(id(node))
        return ref is not None and ref() is node

    def _ingest(self, node: object) -> None:
        """Make ``node`` resident; FIFO eviction at the bound."""
        if self._holds(node):
            return
        resident = self._resident
        if len(resident) >= RESIDENT_LIMIT:
            del resident[next(iter(resident))]
        key = id(node)
        resident[key] = weakref.ref(
            node, lambda _ref: resident.pop(key, None))
