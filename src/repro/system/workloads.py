"""Workload generators for the throughput experiments.

The paper's server executes streams of homomorphic operations arriving
from network clients (Fig. 11). These generators produce deterministic
job streams for the scheduler simulations: pure Mult streams for the
400-Mult/s headline, mixed Add/Mult streams shaped like the smart-grid
forecasting application of [4] (many additions per multiplication),
and open-loop arrival processes — Poisson and multi-tenant
superpositions — for the serving-runtime experiments.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

DEFAULT_TENANT = "default"


class JobKind(Enum):
    MULT = "mult"
    ADD = "add"
    ROTATE = "rotate"
    MUL_PLAIN = "mul_plain"
    #: Tensor + scale without the relinearisation keyswitch (the
    #: optimiser's lazy-relin placement defers the fold).
    MULT_RAW = "mult_raw"
    #: The deferred relinearisation keyswitch on its own.
    RELIN = "relin"


@dataclass(frozen=True)
class Job:
    """One homomorphic operation request from a client.

    ``polys_in``/``polys_out`` are the polynomial bursts the job moves
    each way; the default is Table I's shape (two operand ciphertexts
    in, one result out = 4/2 bursts). The HE-program lowering in
    :mod:`repro.api` sets the operation's real footprint per graph
    node (a rotation moves one ciphertext, not two). ``request`` tags
    every job lowered from the same client program execution so
    request-level latency can be reassembled from per-op completions.
    """

    index: int
    kind: JobKind
    arrival_seconds: float = 0.0
    tenant: str = DEFAULT_TENANT
    polys_in: int = 4
    polys_out: int = 2
    request: int | None = None
    #: Original arrival instant of a retried job — latency (and SLA
    #: accounting) is always measured from the client's first submission,
    #: not the retry's re-injection time. ``None`` for first attempts.
    first_arrival_seconds: float | None = None


def poisson_stream(rate_per_second: float, duration_seconds: float,
                   kind: JobKind = JobKind.MULT,
                   seed: int = 0,
                   tenant: str = DEFAULT_TENANT) -> list[Job]:
    """Jobs with exponential inter-arrival times (an open-loop client).

    Lets the scheduler experiments study latency under load rather than
    just saturated throughput: below the service rate the queue stays
    short; above it, latency grows with the backlog.
    """
    if rate_per_second <= 0 or duration_seconds <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []
    now = 0.0
    index = 0
    while True:
        now += rng.exponential(1.0 / rate_per_second)
        if now >= duration_seconds:
            break
        jobs.append(Job(index=index, kind=kind, arrival_seconds=now,
                        tenant=tenant))
        index += 1
    return jobs


def merge_streams(*streams: list[Job]) -> list[Job]:
    """Interleave job streams by arrival time and re-index contiguously.

    The schedulers rely on the merged invariant: arrival-sorted, with
    ``index`` running 0..n-1 across the combined stream.
    """
    merged = sorted((job for stream in streams for job in stream),
                    key=lambda job: job.arrival_seconds)
    return [replace(j, index=i) for i, j in enumerate(merged)]


def multi_tenant_stream(rates_per_second: dict[str, float],
                        duration_seconds: float,
                        seed: int = 0) -> list[Job]:
    """Superpose independent per-tenant Poisson streams of Mults.

    Each tenant gets its own arrival process; the merged stream is
    sorted by arrival time and re-indexed, so schedulers see one
    interleaved queue with per-job tenant tags.
    """
    if not rates_per_second:
        raise ValueError("need at least one tenant")
    return merge_streams(*(
        poisson_stream(rate, duration_seconds, seed=seed + offset,
                       tenant=tenant)
        for offset, (tenant, rate) in enumerate(
            sorted(rates_per_second.items()))
    ))


def zipf_tenant_rates(num_tenants: int, total_rate_per_second: float,
                      skew: float = 1.1) -> dict[str, float]:
    """Zipf-popularity tenant rates summing to ``total_rate_per_second``.

    Request traffic across a large tenant population is famously
    heavy-tailed: a few tenants dominate, most trickle. Tenant ``i``
    (zero-based) gets weight ``(i + 1) ** -skew``, normalised so the
    cluster-wide offered load is exactly the requested total. ``skew=0``
    degenerates to a uniform population.
    """
    if num_tenants < 1:
        raise ValueError("need at least one tenant")
    if total_rate_per_second <= 0:
        raise ValueError("total rate must be positive")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    weights = [(i + 1) ** -skew for i in range(num_tenants)]
    scale = total_rate_per_second / sum(weights)
    return {tenant_name(i): w * scale for i, w in enumerate(weights)}


def tenant_name(index: int) -> str:
    """The canonical name of synthetic tenant `index` (``t0042``)."""
    return f"t{index:04d}"


def cluster_trace(num_tenants: int, total_rate_per_second: float,
                  duration_seconds: float, *, skew: float = 1.1,
                  seed: int = 0) -> list[Job]:
    """An open-loop cluster-scale trace: many tenants, Zipf popularity.

    Superposes one Poisson stream of Mults per tenant (rates from
    :func:`zipf_tenant_rates`). This is the workload shape the
    multi-FPGA shard layer routes: enough distinct tenants that
    consistent-hash placement spreads load, with the skew stressing the
    balance of any tenant-sticky policy.
    """
    rates = zipf_tenant_rates(num_tenants, total_rate_per_second, skew)
    return multi_tenant_stream(rates, duration_seconds, seed=seed)


def saturated_tenant_jobs(num_tenants: int,
                          jobs_per_tenant: int) -> list[Job]:
    """A saturating multi-tenant Mult backlog: everything available at
    t=0.

    Tenants are interleaved round-robin so any prefix of the stream
    spans the whole population — the shape used to measure the
    saturated throughput ceiling of a cluster under tenant-affinity
    routing, where per-tenant placement determines the balance.
    """
    if num_tenants < 1 or jobs_per_tenant < 1:
        raise ValueError("need at least one tenant and one job each")
    jobs = []
    index = 0
    for _ in range(jobs_per_tenant):
        for tenant in range(num_tenants):
            jobs.append(Job(index=index, kind=JobKind.MULT,
                            tenant=tenant_name(tenant)))
            index += 1
    return jobs


# -- closed-loop clients ---------------------------------------------------------------


@dataclass
class ClosedLoopResult:
    """Outcome of one closed-loop drive: the target's report + client stats.

    ``report`` is whatever the target's ``drain()`` returned (a
    :class:`~repro.serve.engine.RuntimeReport` for a runtime, a
    :class:`~repro.cluster.report.ClusterReport` for a cluster).
    """

    report: object
    submitted: int
    completed: int
    rejected: int
    jobs_per_client: dict[int, int]


class ClosedLoopClients:
    """A population of think-time clients driving a steppable target.

    Open-loop generators (:func:`poisson_stream` and friends) offer load
    regardless of how the server keeps up — above capacity the queue
    grows without bound. Real client populations are *closed-loop*: each
    client submits one request, waits for its response, thinks for an
    exponential think time, and only then submits again, so the offered
    load self-regulates at ``num_clients / (response + think)`` — the
    interactive-system law. This driver implements that model against
    anything exposing the stepping protocol shared by
    :class:`~repro.serve.engine.ServingRuntime` and
    :class:`~repro.cluster.cluster.FpgaCluster`: ``begin``, ``inject``,
    ``advance_to``, ``drain``, ``next_event_seconds``, and the live
    ``completion_feeds()`` / ``rejection_feeds()`` lists.

    The driver is duck-typed on purpose — it lives below both consumers
    in the layering, so `serve` and `cluster` (and their CLI commands)
    share one client model.
    """

    def __init__(self, num_clients: int, think_seconds_mean: float, *,
                 num_tenants: int = 1, seed: int = 0) -> None:
        if num_clients < 1:
            raise ValueError("need at least one client")
        if think_seconds_mean < 0:
            raise ValueError("think time cannot be negative")
        if num_tenants < 1:
            raise ValueError("need at least one tenant")
        self.num_clients = num_clients
        self.think_seconds_mean = think_seconds_mean
        self.num_tenants = num_tenants
        self.seed = seed

    def _think(self, rng: np.random.Generator) -> float:
        if self.think_seconds_mean == 0:
            return 0.0
        return float(rng.exponential(self.think_seconds_mean))

    def drive(self, target, duration_seconds: float) -> ClosedLoopResult:
        """Run the client population against ``target`` until no client
        will submit again before ``duration_seconds``.

        Clients whose next ready time falls past the horizon retire;
        the target is then drained so every in-flight job completes.
        """
        if duration_seconds <= 0:
            raise ValueError("duration must be positive")
        rng = np.random.default_rng(self.seed)
        target.begin()
        # Stagger the first submissions with one think draw each so the
        # population does not arrive as a thundering herd at t=0.
        ready: list[tuple[float, int]] = []
        for client in range(self.num_clients):
            heapq.heappush(ready, (self._think(rng), client))
        outstanding: dict[int, int] = {}   # job index -> client
        jobs_per_client: dict[int, int] = {}
        completion_cursors = [0] * len(target.completion_feeds())
        rejection_cursors = [0] * len(target.rejection_feeds())
        next_index = 0

        def scan_feedback() -> None:
            """Wake clients whose jobs finished (or were rejected)."""
            for i, feed in enumerate(target.completion_feeds()):
                while completion_cursors[i] < len(feed):
                    result = feed[completion_cursors[i]]
                    completion_cursors[i] += 1
                    client = outstanding.pop(result.job.index, None)
                    if client is None:
                        continue
                    wake = result.finish_seconds + self._think(rng)
                    if wake < duration_seconds:
                        heapq.heappush(ready, (wake, client))
            for i, feed in enumerate(target.rejection_feeds()):
                while rejection_cursors[i] < len(feed):
                    rejection = feed[rejection_cursors[i]]
                    rejection_cursors[i] += 1
                    client = outstanding.pop(rejection.job.index, None)
                    if client is None:
                        continue
                    # Rejected clients back off one think time and retry.
                    wake = rejection.time_seconds + self._think(rng)
                    if wake < duration_seconds:
                        heapq.heappush(ready, (wake, client))

        while ready or outstanding:
            due = target.next_event_seconds()
            if ready and (due is None or ready[0][0] <= due):
                at, client = heapq.heappop(ready)
                target.advance_to(at, inclusive=False)
                tenant = tenant_name(client % self.num_tenants)
                target.inject(Job(index=next_index, kind=JobKind.MULT,
                                  arrival_seconds=at, tenant=tenant,
                                  request=client))
                outstanding[next_index] = client
                jobs_per_client[client] = jobs_per_client.get(client, 0) + 1
                next_index += 1
                # A cluster-edge rejection (no board up) lands
                # synchronously at inject time; scan now so the shed
                # client's retry wake is scheduled before the loop can
                # run out of events.
                scan_feedback()
            elif due is not None:
                target.advance_to(due)
                scan_feedback()
            else:      # pragma: no cover - no events and nothing ready
                break
        report = target.drain()
        completed = sum(len(feed) for feed in target.completion_feeds())
        rejected = sum(len(feed) for feed in target.rejection_feeds())
        return ClosedLoopResult(report=report, submitted=next_index,
                                completed=completed, rejected=rejected,
                                jobs_per_client=jobs_per_client)
