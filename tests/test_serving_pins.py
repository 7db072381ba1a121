"""Exact pins of the served numbers.

Five fixed runs — the seeded 8-board chaos run of ``python -m repro
cluster --shards 8 --faults 2019 --replicas 2``, a round-robin
4-board run through a crash, a recovery and per-tenant queue caps, a
replicated 4-board run whose faults and retries fall due exactly at
request arrival instants, closed-loop clients stepping a replicated
6-board cluster through a seeded fault plan, and the weighted-fair
board of ``python -m repro serve`` — reduced through the report API
and compared bit for bit. A change to the engine, the schedulers, the
cluster loop or any reduction that moves a printed latency, throughput
or utilization figure fails here, not only when an availability gate
trips.
"""

import hashlib
from collections import Counter

import pytest

from repro.cluster import FpgaCluster, RoundRobinRouter, TenantAffinityRouter
from repro.faults import FaultEvent, FaultKind, FaultPlan, RetryPolicy
from repro.hw.config import HardwareConfig
from repro.params import hpca19
from repro.serve import (
    BatchPolicy,
    LatencySummary,
    ServingRuntime,
    Tenant,
    TenantSet,
    WeightedFairScheduler,
)
from repro.system.server import CostModel
from repro.system.workloads import (
    ClosedLoopClients,
    Job,
    JobKind,
    cluster_trace,
    merge_streams,
    multi_tenant_stream,
    poisson_stream,
    tenant_name,
)
from scaffolding import tenant_cluster

PARAMS = hpca19()


@pytest.fixture(scope="module")
def chaos():
    """The CLI's chaos run: 192 Zipf tenants at 60 % of 8 boards for
    1 s, fault seed 2019 (2 crashes, 8 transient failures, 2 DMA
    stalls), R = 2 replication, tenant-affinity routing."""
    shards = 8
    capacity = shards * FpgaCluster.homogeneous(
        PARAMS, 1).capacity_mults_per_second()
    trace = cluster_trace(192, 0.6 * capacity, 1.0, seed=0)
    plan = FaultPlan.seeded(2019, shards, 1.0, crashes=2)
    return FpgaCluster.homogeneous(
        PARAMS, shards, router=TenantAffinityRouter(), fault_plan=plan,
        retry=RetryPolicy(seed=0), replicas=2).run(trace)


@pytest.fixture(scope="module")
def router_arm():
    """Routing without replicas: 32 Zipf tenants at 90 % of 4
    round-robin boards for 0.5 s; shard2 is down from 0.1 s to 0.25 s
    (health masking, spilled jobs retried) and the four hottest tenants
    may queue only two jobs per board (admission-driven fallback onto
    a sibling)."""
    shards = 4
    capacity = shards * FpgaCluster.homogeneous(
        PARAMS, 1).capacity_mults_per_second()
    trace = cluster_trace(32, 0.9 * capacity, 0.5, seed=3)
    tenants = TenantSet.of(*(Tenant(tenant_name(i), max_queue_depth=2)
                             for i in range(4)))
    plan = FaultPlan(events=(
        FaultEvent(0.1, FaultKind.SHARD_CRASH, 2),
        FaultEvent(0.25, FaultKind.SHARD_RECOVER, 2)))
    return tenant_cluster(
        PARAMS, shards, tenants, router=RoundRobinRouter(),
        fault_plan=plan, retry=RetryPolicy(seed=0)).run(trace)


@pytest.fixture(scope="module")
def same_instant():
    """Faults and retries due at request arrival instants: 16 requests
    of 64 Mults, one every 62.5 ms over four tenants, on 4 boards with
    R = 2 replication. shard3 is the primary of half the requests
    (tenants t0002 and t0003). A transient failure there at 70.3125 ms
    backs off by exactly 179.6875 ms (no jitter), so its retry falls
    due with the 250 ms request — both bound for shard3, which crashes
    at that instant and recovers at the 500 ms request. Every instant
    is a dyadic fraction, so each tie is exact: a fault or retry
    applied after the arrivals it ties with moves these pins."""
    burst = 0.0625
    jobs = [Job(index=64 * r + i, kind=JobKind.MULT,
                arrival_seconds=r * burst, tenant=tenant_name((r + 2) % 4),
                request=r)
            for r in range(16) for i in range(64)]
    plan = FaultPlan(events=(
        FaultEvent(0.0703125, FaultKind.JOB_FAIL, 3),
        FaultEvent(0.25, FaultKind.SHARD_CRASH, 3),
        FaultEvent(0.5, FaultKind.SHARD_RECOVER, 3)))
    retry = RetryPolicy(base_backoff_seconds=0.1796875, jitter=0.0, seed=0)
    return FpgaCluster.homogeneous(
        PARAMS, 4, fault_plan=plan, retry=retry, replicas=2).run(jobs)


@pytest.fixture(scope="module")
def closed_loop():
    """96 closed-loop clients (10 ms think, 24 tenants) drive 6 boards
    with R = 2 replication and tenant-affinity routing for 0.3 s,
    through 2 crashes (one recovered), 6 transient failures and 2 DMA
    stalls: the stepping protocol — exclusive advance, inject,
    next-event advance — over faults and retries."""
    plan = FaultPlan(events=(
        FaultEvent(0.014035794302882314, FaultKind.DMA_STALL, 5, factor=4.0),
        FaultEvent(0.03442203028428696, FaultKind.DMA_RESUME, 5),
        FaultEvent(0.037810824311788484, FaultKind.DMA_STALL, 2, factor=4.0),
        FaultEvent(0.06117382718847656, FaultKind.DMA_RESUME, 2),
        FaultEvent(0.07511648961458425, FaultKind.SHARD_CRASH, 3),
        FaultEvent(0.10134731794860229, FaultKind.JOB_FAIL, 0),
        FaultEvent(0.10165077397128848, FaultKind.JOB_FAIL, 4),
        FaultEvent(0.12136910816585515, FaultKind.SHARD_CRASH, 5),
        FaultEvent(0.1233585026038613, FaultKind.SHARD_RECOVER, 3),
        FaultEvent(0.1782544023510915, FaultKind.JOB_FAIL, 2),
        FaultEvent(0.18654192028338193, FaultKind.JOB_FAIL, 5),
        FaultEvent(0.2583264841234207, FaultKind.JOB_FAIL, 4),
        FaultEvent(0.2927033801797088, FaultKind.JOB_FAIL, 3)))
    cluster = FpgaCluster.homogeneous(
        PARAMS, 6, router=TenantAffinityRouter(), fault_plan=plan,
        retry=RetryPolicy(seed=4), replicas=2)
    return ClosedLoopClients(96, 0.01, num_tenants=24, seed=5).drive(
        cluster, 0.3)


@pytest.fixture(scope="module")
def wfq():
    """The CLI's serve workload on the weighted-fair board."""
    cost = CostModel(PARAMS, HardwareConfig())
    capacity = cost.mult_throughput_per_second()
    tenants = TenantSet.of(
        Tenant("gold", weight=3.0, sla_seconds=0.5),
        Tenant("silver", weight=1.0),
        Tenant("free", weight=0.5, max_queue_depth=16),
    )
    mults = multi_tenant_stream(
        {"gold": 0.8 * capacity, "free": 0.4 * capacity},
        duration_seconds=2.0, seed=7,
    )
    adds = poisson_stream(0.5 * capacity, 2.0, kind=JobKind.ADD,
                          seed=11, tenant="silver")
    return ServingRuntime(
        cost, scheduler=WeightedFairScheduler(), tenants=tenants,
        batching=BatchPolicy(max_jobs=4)).run(merge_streams(mults, adds))


class TestChaosRunPins:
    def test_latency_summary(self, chaos):
        assert chaos.latency_summary() == LatencySummary(
            count=1929, mean=0.07864489333148747, p50=0.02135096887817567,
            p95=0.3045686125766076, p99=0.33353905505883663,
            max=0.3684486718311808)

    def test_per_tenant_latency_summaries(self, chaos):
        tenants = sorted({r.job.tenant for r in chaos.results})
        summaries = {t: chaos.latency_summary(t) for t in tenants}
        assert len(summaries) == 168
        assert summaries["t0000"] == LatencySummary(
            count=382, mean=0.12127373568865452, p50=0.1270848049882522,
            p95=0.2374776334183419, p99=0.24160258343147836,
            max=0.3684486718311808)
        assert summaries["t0002"] == LatencySummary(
            count=130, mean=0.006049295181834393,
            p50=0.004820278528875399, p95=0.010006685798631941,
            p99=0.011956752145927207, max=0.012886290209549456)
        digest = hashlib.sha256(
            repr(sorted(summaries.items())).encode()).hexdigest()
        assert digest == ("a18d335ab74f37db26e731626f138e40"
                          "e92c60e0a2345aaba74e65c77de59114")

    def test_throughput_utilization_and_balance(self, chaos):
        assert chaos.throughput_per_second() == 1447.638376305786
        assert chaos.utilization_by_shard() == [
            0.9178325119496277, 0.16821043986731465, 0.11259440198897294,
            0.4467524585723306, 0.221070311431247, 0.4055591809631406,
            0.9915826488879753, 0.4935989337750945]
        assert chaos.imbalance() == 1.871581048196576

    def test_availability_and_sla(self, chaos):
        assert (chaos.completed, len(chaos.rejected)) == (1929, 0)
        assert chaos.availability == 1.0
        assert chaos.sla_violations == 0


class TestRouterArmPins:
    def test_latency_summary(self, router_arm):
        assert router_arm.latency_summary() == LatencySummary(
            count=750, mean=0.013574600309105216, p50=0.010432337414344878,
            p95=0.028877007390310547, p99=0.03325351812474767,
            max=0.03629915812731571)

    def test_placement(self, router_arm):
        assert router_arm.reroutes == 28
        assert [len(shard.results) for shard in router_arm.shard_reports] \
            == [203, 204, 140, 203]
        failure = router_arm.failure
        assert (failure.crashes, failure.recoveries, failure.jobs_spilled,
                failure.jobs_retried, failure.jobs_relocated,
                failure.jobs_lost) == (1, 1, 2, 2, 2, 0)

    def test_rejection_reasons(self, router_arm):
        assert [Counter(r.reason for r in shard.rejected)
                for shard in router_arm.shard_reports] == [
            {"queue-depth": 7}, {"queue-depth": 3}, {}, {"queue-depth": 6}]
        assert router_arm.overflow_rejected == []


class TestSameInstantFaultPins:
    def test_latency_summary(self, same_instant):
        assert same_instant.latency_summary() == LatencySummary(
            count=1024, mean=0.15604501344597638, p50=0.13496779880851037,
            p95=0.32298827568206545, p99=0.7180578799270503,
            max=0.742159272571427)

    def test_failure_report(self, same_instant):
        failure = same_instant.failure
        assert (failure.crashes, failure.recoveries,
                failure.transient_failures, failure.jobs_spilled,
                failure.jobs_retried, failure.jobs_relocated,
                failure.jobs_lost, failure.rehydrations) == (
            1, 1, 1, 25, 26, 26, 0, 2)
        assert failure.failovers_by_tenant == {"t0002": 65, "t0003": 89}
        assert failure.downtime_by_shard == {"shard3": 0.25}

    def test_placement(self, same_instant):
        assert same_instant.reroutes == 0
        assert [len(shard.results)
                for shard in same_instant.shard_reports] \
            == [410, 256, 0, 358]
        assert all(not shard.rejected
                   for shard in same_instant.shard_reports)
        assert same_instant.overflow_rejected == []


class TestClosedLoopChaosPins:
    def test_latency_summary(self, closed_loop):
        assert closed_loop.report.latency_summary() == LatencySummary(
            count=663, mean=0.03834549029009294, p50=0.027836625591665123,
            p95=0.08137757996944354, p99=0.10377794782591492,
            max=0.15550058124139293)

    def test_submitted_completed_rejected(self, closed_loop):
        assert (closed_loop.submitted, closed_loop.completed,
                closed_loop.rejected) == (663, 663, 0)

    def test_failure_report(self, closed_loop):
        failure = closed_loop.report.failure
        assert (failure.crashes, failure.recoveries,
                failure.transient_failures, failure.dma_stalls,
                failure.jobs_spilled, failure.jobs_retried,
                failure.jobs_relocated, failure.jobs_lost,
                failure.rehydrations, failure.rebalanced_tenants) == (
            2, 1, 4, 2, 47, 51, 47, 0, 14, 6)
        assert failure.failovers_by_tenant == {
            "t0002": 8, "t0003": 4, "t0005": 7, "t0006": 6, "t0009": 5,
            "t0010": 12, "t0013": 12, "t0014": 15, "t0015": 4,
            "t0016": 14, "t0018": 11}
        assert failure.downtime_by_shard == {
            "shard3": 0.04824201298927705, "shard5": 0.25943890924231117}


class TestWeightedFairBoardPins:
    def test_per_tenant_latency_summaries(self, wfq):
        assert wfq.latency_summary("free") == LatencySummary(
            count=138, mean=0.2318724173196173, p50=0.2693319285181981,
            p95=0.2990694959078529, p99=0.30115062380890084,
            max=0.30220986777558656)
        assert wfq.latency_summary("gold") == LatencySummary(
            count=683, mean=0.03985174539452925, p50=0.039536883170584014,
            p95=0.05980666335738873, p99=0.06792095611151407,
            max=0.07611490255515696)
        assert wfq.latency_summary("silver") == LatencySummary(
            count=423, mean=0.01288970986736503, p50=0.012918211020119141,
            p95=0.020049500301989792, p99=0.0245201369795521,
            max=0.027236790756439255)

    def test_utilization_and_sla(self, wfq):
        assert wfq.utilization() == [0.998757280526542, 0.997408054026294]
        assert wfq.throughput_per_second() == 605.5736211555787
        assert wfq.sla_violations == 0
