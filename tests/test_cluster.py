"""Tests for the multi-FPGA shard layer (repro.cluster), the stepping
API it drives, cluster reductions over the shard records, and the
empty-report division edges."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterReport,
    FpgaCluster,
    LeastOutstandingWorkRouter,
    PowerOfTwoChoicesRouter,
    RoundRobinRouter,
    Router,
    TenantAffinityRouter,
    default_routers,
)
from repro.cluster.routing import rendezvous_order
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.hw.config import HardwareConfig
from repro.obs import cluster_timeline
from repro.params import hpca19
from repro.serve import (
    JobResult,
    LatencySummary,
    RuntimeReport,
    ServingRuntime,
    Tenant,
    TenantSet,
)
from repro.system.server import CostModel
from repro.system.workloads import (
    DEFAULT_TENANT,
    Job,
    JobKind,
    cluster_trace,
    multi_tenant_stream,
    poisson_stream,
    saturated_tenant_jobs,
    tenant_name,
    zipf_tenant_rates,
)
from scaffolding import mult_stream

PARAMS = hpca19()


@pytest.fixture(scope="module")
def cost():
    return CostModel(PARAMS, HardwareConfig())


def shard_record(samples, coprocessors=1, busy=1.0, sla_violations=0,
                 queue_depth_trace=()):
    """A hand-built board record: one completion per (tenant, latency)
    sample, each arriving at t=0 so its latency is its finish time."""
    results = [JobResult(job=Job(index=i, kind=JobKind.MULT, tenant=tenant),
                         coprocessor=0, start_seconds=0.0,
                         finish_seconds=latency)
               for i, (tenant, latency) in enumerate(samples)]
    return RuntimeReport(busy_seconds=[busy] + [0.0] * (coprocessors - 1),
                         results=results, sla_violations=sla_violations,
                         queue_depth_trace=list(queue_depth_trace))


def cluster_of(*records):
    return ClusterReport(shard_names=[f"s{i}" for i in range(len(records))],
                         shard_reports=list(records))


def shared_reductions(report):
    """Every number the shared reductions give, for exact comparison."""
    tenants = sorted({r.job.tenant for r in report.results})
    return {
        "first_arrival": report.first_arrival_seconds,
        "last_finish": report.last_finish_seconds,
        "makespan": report.makespan_seconds,
        "throughput": report.throughput_per_second(),
        "mean_latency": report.mean_latency_seconds,
        "offered": report.offered,
        "rejection_fraction": report.rejection_fraction,
        "sla_violations": report.sla_violations,
        "latency": report.latency_summary(),
        "tenants": {t: report.latency_summary(t) for t in tenants},
    }


def check_cluster_conservation(report, offered_jobs):
    """Every offered job lands in exactly one shard report or rejection."""
    seen = [r.job.index for shard in report.shard_reports
            for r in shard.results]
    seen += [r.job.index for r in report.rejected]
    assert sorted(seen) == sorted(j.index for j in offered_jobs)


class TestSingleShardExactness:
    """Acceptance: a 1-shard cluster reproduces the PR 1 runtime."""

    @pytest.mark.parametrize("jobs", [
        mult_stream(60),
        poisson_stream(500.0, 0.5, seed=9),
        poisson_stream(900.0, 0.4, seed=2),
    ], ids=["saturated", "underload", "overload"])
    def test_reproduces_direct_runtime_exactly(self, cost, jobs):
        direct = ServingRuntime(cost).run(jobs)
        cluster = FpgaCluster.homogeneous(PARAMS, 1)
        report = cluster.run(jobs)
        assert report.num_shards == 1
        shard = report.shard_reports[0]
        assert [r.finish_seconds for r in shard.results] == \
            [r.finish_seconds for r in direct.results]
        assert [r.coprocessor for r in shard.results] == \
            [r.coprocessor for r in direct.results]
        assert shared_reductions(report) == shared_reductions(direct)
        assert report.utilization_by_shard() == [direct.mean_utilization()]
        assert shard.utilization() == direct.utilization()
        assert shard.busy_seconds == direct.busy_seconds
        assert shard.queue_depth_trace == direct.queue_depth_trace

    def test_every_router_degenerates_on_one_shard(self, cost):
        jobs = poisson_stream(400.0, 0.3, seed=4)
        direct = ServingRuntime(cost).run(jobs)
        for router in (RoundRobinRouter(), LeastOutstandingWorkRouter(),
                       TenantAffinityRouter(),
                       PowerOfTwoChoicesRouter(seed=3)):
            cluster = FpgaCluster.homogeneous(PARAMS, 1, router=router)
            report = cluster.run(jobs)
            assert report.makespan_seconds == direct.makespan_seconds


class TestScalingAcceptance:
    def test_eight_shards_scale_near_linearly_under_affinity(self):
        """Acceptance: >= 7x one shard, saturated, tenant-affinity, and
        Mult/s rising at every step of the 1 -> 2 -> 4 -> 8 sweep."""
        jobs = saturated_tenant_jobs(2048, 1)
        single = FpgaCluster.homogeneous(PARAMS, 1).run(mult_stream(256))
        scaled = {shards: FpgaCluster.homogeneous(
                      PARAMS, shards, router=TenantAffinityRouter()
                  ).run(jobs) for shards in (2, 4, 8)}
        eight = scaled[8]
        check_cluster_conservation(eight, jobs)
        scale = (eight.throughput_per_second()
                 / single.throughput_per_second())
        assert scale >= 7.0, scale
        rates = [single.throughput_per_second()] + [
            report.throughput_per_second() for report in scaled.values()]
        assert rates == sorted(rates)
        # Every board took part.
        assert all(shard.results for shard in eight.shard_reports)

    def test_two_shards_double_throughput_least_work(self):
        jobs = mult_stream(240)
        one = FpgaCluster.homogeneous(PARAMS, 1).run(jobs)
        two = FpgaCluster.homogeneous(
            PARAMS, 2, router=LeastOutstandingWorkRouter()).run(jobs)
        assert two.throughput_per_second() == \
            pytest.approx(2 * one.throughput_per_second(), rel=0.02)

    def test_cluster_capacity_sums_shards(self):
        one = FpgaCluster.homogeneous(PARAMS, 1)
        four = FpgaCluster.homogeneous(PARAMS, 4)
        assert four.capacity_mults_per_second() == \
            pytest.approx(4 * one.capacity_mults_per_second())


class TestRouting:
    def test_round_robin_spreads_evenly(self):
        cluster = FpgaCluster.homogeneous(PARAMS, 4,
                                          router=RoundRobinRouter())
        report = cluster.run(mult_stream(40))
        counts = [len(shard.results) for shard in report.shard_reports]
        assert counts == [10, 10, 10, 10]

    def test_affinity_keeps_tenant_on_one_shard(self):
        jobs = cluster_trace(24, 900.0, 1.0, seed=6)
        cluster = FpgaCluster.homogeneous(PARAMS, 4,
                                          router=TenantAffinityRouter())
        report = cluster.run(jobs)
        check_cluster_conservation(report, jobs)
        homes = {}
        for index, shard in enumerate(report.shard_reports):
            for result in shard.results:
                homes.setdefault(result.job.tenant, set()).add(index)
        assert all(len(shards) == 1 for shards in homes.values())

    def test_affinity_is_consistent_under_scale_out(self):
        """Adding a shard relocates only ~1/N of the tenant population."""
        tenants = [tenant_name(i) for i in range(400)]

        def placement(num_shards):
            cluster = FpgaCluster.homogeneous(PARAMS, num_shards)
            names = tuple(shard.name for shard in cluster.shards)
            return {t: rendezvous_order(t, names)[0] for t in tenants}

        four, five = placement(4), placement(5)
        moved = sum(1 for t in tenants if four[t] != five[t])
        # Rendezvous hashing moves ~1/5 of tenants; far below a rehash.
        assert moved / len(tenants) < 0.35
        # Tenants that stay keep their exact shard index.
        for t in tenants:
            if four[t] != five[t]:
                assert five[t] == 4 or four[t] != five[t]

    def test_least_work_prefers_idle_shard(self):
        class FirstThenLeast(Router):
            """Jam shard 0, then defer to least-outstanding-work."""
            def __init__(self):
                self._sent = 0
                self._low = LeastOutstandingWorkRouter()

            def choose(self, job, shards):
                self._sent += 1
                if self._sent <= 4:
                    return 0
                return self._low.choose(job, shards)

        cluster = FpgaCluster.homogeneous(PARAMS, 2,
                                          router=FirstThenLeast())
        report = cluster.run(mult_stream(5))
        # The fifth job must land on the idle shard 1.
        assert report.shard_reports[1].results

    def test_power_of_two_choices_deterministic(self):
        jobs = poisson_stream(1200.0, 0.4, seed=8)
        runs = []
        for _ in range(2):
            cluster = FpgaCluster.homogeneous(
                PARAMS, 4, router=PowerOfTwoChoicesRouter(seed=5))
            report = cluster.run(jobs)
            runs.append([len(s.results) for s in report.shard_reports])
        assert runs[0] == runs[1]

    def test_bounded_affinity_caps_hot_shard_blowup(self):
        """A Zipf-hot tenant swamps pure affinity; bounded load spills."""
        trace = cluster_trace(64, 0.8 * 4 * 415.0, 1.0, skew=1.1, seed=5)
        pure = FpgaCluster.homogeneous(
            PARAMS, 4, router=TenantAffinityRouter()).run(trace)
        bounded = FpgaCluster.homogeneous(
            PARAMS, 4,
            router=TenantAffinityRouter(bounded_load_factor=1.25),
        ).run(trace)
        assert bounded.latency_summary().p99 < pure.latency_summary().p99
        assert bounded.imbalance() < pure.imbalance()

    def test_bounded_affinity_keeps_the_single_board_tail(self):
        """Four boards on a Zipf(1.1) trace at rho = 0.8 per board:
        bounded-load affinity holds p99 within 10 % of one board at the
        same per-board load, and the imbalance orders pure affinity >
        bounded affinity >= round robin."""
        capacity = FpgaCluster.homogeneous(
            PARAMS, 1).capacity_mults_per_second()
        single = FpgaCluster.homogeneous(PARAMS, 1).run(
            cluster_trace(192, 0.8 * capacity, 1.0, skew=1.1, seed=5))
        trace = cluster_trace(192, 0.8 * 4 * capacity, 1.0, skew=1.1,
                              seed=5)
        runs = {router.name: FpgaCluster.homogeneous(
                    PARAMS, 4, router=router).run(trace)
                for router in (RoundRobinRouter(), TenantAffinityRouter(),
                               TenantAffinityRouter(
                                   bounded_load_factor=1.25))}
        p99 = {name: run.latency_summary().p99
               for name, run in runs.items()}
        imbalance = {name: run.imbalance() for name, run in runs.items()}
        assert p99["affinity-bl"] <= 1.10 * single.latency_summary().p99
        assert p99["affinity"] > p99["affinity-bl"]
        assert imbalance["affinity"] > imbalance["affinity-bl"] >= \
            imbalance["rr"] - 1e-9

    def test_bad_router_index_raises(self):
        class Broken(Router):
            def choose(self, job, shards):
                return len(shards)

        cluster = FpgaCluster.homogeneous(PARAMS, 2, router=Broken())
        with pytest.raises(ValueError):
            cluster.run(mult_stream(1))

    def test_affinity_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            TenantAffinityRouter(bounded_load_factor=0.5)

    def test_affinity_follows_the_live_boards_under_masking(self):
        """A masked view of the same size but other boards is a new
        view: shard1 goes down and comes back, then shard0 goes down,
        and every tenant's later job lands on its rendezvous choice
        among the boards still live."""
        tenants = [tenant_name(i) for i in range(60)]
        jobs = [Job(index=i, kind=JobKind.MULT, tenant=tenant,
                    arrival_seconds=at)
                for i, (at, tenant) in enumerate(
                    [(0.02, t) for t in tenants]
                    + [(0.6, t) for t in tenants])]
        plan = FaultPlan(events=(
            FaultEvent(0.01, FaultKind.SHARD_CRASH, 1),
            FaultEvent(0.3, FaultKind.SHARD_RECOVER, 1),
            FaultEvent(0.5, FaultKind.SHARD_CRASH, 0)))
        cluster = FpgaCluster.homogeneous(
            PARAMS, 3, router=TenantAffinityRouter(), fault_plan=plan)
        report = cluster.run(jobs)
        check_cluster_conservation(report, jobs)
        landed = {r.job.tenant: index
                  for index, shard in enumerate(report.shard_reports)
                  for r in shard.results if r.job.arrival_seconds == 0.6}
        live = cluster.shards[1:]
        expected = {t: 1 + TenantAffinityRouter().choose(
                        Job(index=0, kind=JobKind.MULT, tenant=t), live)
                    for t in tenants}
        assert landed == expected


class TestBackpressure:
    def test_overflow_reroutes_to_sibling(self):
        """One tenant at twice a board's Mult/s, pinned by affinity and
        capped at four queued jobs per board: once its home board
        refuses, siblings take the spill and nothing is rejected."""
        from repro.serve import Tenant, TenantSet

        jobs = [Job(index=i, kind=JobKind.MULT, tenant="hot",
                    arrival_seconds=i * 1.2e-3) for i in range(200)]
        tenants = TenantSet.of(Tenant("hot", max_queue_depth=4))
        cluster = FpgaCluster.homogeneous(
            PARAMS, 4, router=TenantAffinityRouter(), tenants=tenants)
        report = cluster.run(jobs)
        check_cluster_conservation(report, jobs)
        assert report.reroutes > 0
        assert report.rejection_fraction == 0.0
        assert sum(bool(shard.results)
                   for shard in report.shard_reports) > 1

    def test_tenant_admission_rejections_stay_in_shard_reports(self):
        from repro.serve import Tenant, TenantSet

        tenants = TenantSet.of(Tenant("capped", max_queue_depth=2))
        jobs = [Job(index=i, kind=JobKind.MULT, tenant="capped")
                for i in range(40)]
        cluster = FpgaCluster.homogeneous(
            PARAMS, 2, router=TenantAffinityRouter(), tenants=tenants)
        report = cluster.run(jobs)
        check_cluster_conservation(report, jobs)
        shard_rejections = [r for shard in report.shard_reports
                            for r in shard.rejected]
        assert shard_rejections
        assert all(r.reason == "queue-depth" for r in shard_rejections)
        assert not report.overflow_rejected

    def test_single_use(self):
        cluster = FpgaCluster.homogeneous(PARAMS, 2)
        cluster.run(mult_stream(2))
        with pytest.raises(RuntimeError):
            cluster.run(mult_stream(2))


class TestHeterogeneousCluster:
    def test_slow_boards_draw_less_under_least_work(self):
        fast = HardwareConfig()
        slow = replace(fast, butterfly_cores_per_rpau=1)
        cluster = FpgaCluster.heterogeneous(
            PARAMS, [fast, slow], router=LeastOutstandingWorkRouter())
        report = cluster.run(mult_stream(120))
        check_cluster_conservation(report, mult_stream(120))
        done_fast = len(report.shard_reports[0].results)
        done_slow = len(report.shard_reports[1].results)
        assert done_fast > done_slow
        # Both boards finish near-simultaneously: balanced in *time*.
        assert report.imbalance() < 0.1

    def test_heterogeneous_capacity_mixes_configs(self):
        fast = HardwareConfig()
        slow = replace(fast, butterfly_cores_per_rpau=1)
        mixed = FpgaCluster.heterogeneous(PARAMS, [fast, slow])
        twins = FpgaCluster.heterogeneous(PARAMS, [fast, fast])
        assert mixed.capacity_mults_per_second() < \
            twins.capacity_mults_per_second()

    def test_hetero_cli_prints_one_line_per_router(self, capsys):
        """``cluster --hetero``: the one caller outside tests that builds
        a mixed-config cluster."""
        from repro.cli import main

        assert main(["cluster", "--shards", "2", "--hetero",
                     "--duration", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "heterogeneous (alternating 2/1 butterfly cores) x2" in out
        table = out.split("imbal\n", 1)[1].split("\n\n", 1)[0]
        assert [line.split()[0] for line in table.splitlines()] == [
            router.name for router in default_routers()]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FpgaCluster.heterogeneous(PARAMS, [])
        with pytest.raises(ValueError):
            FpgaCluster.homogeneous(PARAMS, 0)
        with pytest.raises(ValueError):
            FpgaCluster([])


class TestEmptyAndIdleEdges:
    """The division-edge satellite: empty shards must aggregate."""

    def test_empty_cluster_run(self):
        report = FpgaCluster.homogeneous(PARAMS, 3).run([])
        assert report.completed == 0
        assert report.offered == 0
        assert report.rejection_fraction == 0.0
        assert report.makespan_seconds == 0.0
        assert report.throughput_per_second() == 0.0
        assert report.mean_latency_seconds == 0.0
        assert report.utilization_by_shard() == [0.0, 0.0, 0.0]
        assert report.imbalance() == 0.0
        assert report.latency_summary().count == 0
        assert report.sla_violations == 0

    def test_idle_shards_do_not_crash_aggregation(self):
        """One tenant, four shards: three boards never see a job."""
        jobs = [Job(index=i, kind=JobKind.MULT, tenant="solo")
                for i in range(12)]
        cluster = FpgaCluster.homogeneous(PARAMS, 4,
                                          router=TenantAffinityRouter())
        report = cluster.run(jobs)
        check_cluster_conservation(report, jobs)
        busy = [bool(shard.results) for shard in report.shard_reports]
        assert sum(busy) == 1
        assert report.completed == 12
        assert report.throughput_per_second() > 0
        assert report.imbalance() > 0
        summary = report.latency_summary()
        assert summary.count == 12
        for shard in report.shard_reports:
            if not shard.results:
                assert shard.mean_utilization() == 0.0
                assert shard.latency_summary().count == 0
                assert shard.rejection_fraction == 0.0

    def test_runtime_report_empty_guards(self, cost):
        report = ServingRuntime(cost).run([])
        assert report.rejection_fraction == 0.0
        assert report.mean_utilization() == 0.0
        assert report.utilization() == [0.0, 0.0]
        assert report.latency_summary().p99 == 0.0

    def test_cluster_report_validation(self):
        with pytest.raises(ValueError):
            ClusterReport(shard_names=["a"], shard_reports=[])


class TestTelemetryMerging:
    """Satellite: a cluster's numbers are its concatenated shard records'."""

    @settings(max_examples=40, deadline=None)
    @given(
        shards=st.lists(
            st.lists(st.floats(0.0, 10.0, allow_nan=False,
                               allow_infinity=False),
                     min_size=0, max_size=40),
            min_size=1, max_size=5,
        ),
        q=st.sampled_from([50, 95, 99]),
    )
    def test_merged_percentiles_equal_concatenated(self, shards, q):
        report = cluster_of(*(shard_record([("t", lat) for lat in series])
                              for series in shards))
        concatenated = [lat for series in shards for lat in series]
        summary = report.latency_summary()
        assert summary == LatencySummary.of(concatenated)
        assert summary.count == len(concatenated)
        assert report.latency_summary("t") == summary
        # Each digest quantile is numpy's linear percentile.
        direct = (float(np.percentile(concatenated, q)) if concatenated
                  else 0.0)
        assert getattr(summary, f"p{q}") == direct

    @settings(max_examples=20, deadline=None)
    @given(violations=st.lists(st.integers(0, 9), min_size=1,
                               max_size=6))
    def test_merged_counters_sum(self, violations):
        report = cluster_of(*(shard_record([("x", 0.1)] * count,
                                           sla_violations=count)
                              for count in violations))
        assert report.sla_violations == sum(violations)
        assert report.completed == sum(violations)
        assert len(report.utilization_by_shard()) == len(violations)

    def test_merged_of_nothing_is_empty(self):
        report = cluster_of()
        assert report.latency_summary().count == 0
        assert report.makespan_seconds == 0.0
        assert report.throughput_per_second() == 0.0
        assert report.utilization_by_shard() == []
        assert report.imbalance() == 0.0
        assert report.availability == 1.0

    def test_merged_with_zero_sample_parts(self):
        """Idle shards contribute capacity but no samples."""
        report = cluster_of(shard_record([], coprocessors=2, busy=0.0),
                            shard_record([("t", 0.5)], coprocessors=2,
                                         sla_violations=1),
                            shard_record([], busy=0.0))
        summary = report.latency_summary()
        assert summary.count == 1
        assert summary.p50 == 0.5
        assert report.sla_violations == 1
        assert report.utilization_by_shard() == [0.0, 0.5, 0.0]


class TestRejectionOnlyAggregation:
    """Shards that only ever rejected must aggregate cleanly."""

    def test_all_rejected_cluster_aggregates(self):
        # A tenant admitted to no queue: every job is refused at its
        # board, no shard ever produces a sample.
        jobs = [Job(index=i, kind=JobKind.MULT,
                    arrival_seconds=0.001 * (i + 1))
                for i in range(10)]
        tenants = TenantSet.of(Tenant(DEFAULT_TENANT, max_queue_depth=0))
        report = FpgaCluster.homogeneous(PARAMS, 2, tenants=tenants).run(jobs)
        check_cluster_conservation(report, jobs)
        assert report.completed == 0
        assert len(report.rejected) == 10
        assert all(r.reason == "queue-depth" for r in report.rejected)
        assert report.availability == 0.0
        assert report.latency_summary().count == 0
        assert report.throughput_per_second() == 0.0
        for shard in report.shard_reports:
            assert shard.latency_summary().p99 == 0.0
            assert shard.mean_utilization() == 0.0

    def test_availability_edge_values(self):
        empty = FpgaCluster.homogeneous(PARAMS, 2).run([])
        assert empty.availability == 1.0  # nothing offered, nothing lost
        served = FpgaCluster.homogeneous(PARAMS, 2).run(
            [Job(index=0, kind=JobKind.MULT)])
        assert served.availability == 1.0
        assert served.failure is None

    def test_merged_queue_depth_trace_sorted(self):
        """The cluster's queue depth is each shard's own track."""
        report = cluster_of(
            shard_record([], queue_depth_trace=[(2.0, 3), (4.0, 1)]),
            shard_record([], queue_depth_trace=[(1.0, 2), (3.0, 5)]))
        tracks = {}
        for event in cluster_timeline(report):
            if event["ph"] == "C":
                tracks.setdefault(event["pid"], []).append(
                    (event["ts"] / 1e6, event["args"]["depth"]))
        assert tracks == {0: [(2.0, 3), (4.0, 1)], 1: [(1.0, 2), (3.0, 5)]}
        assert max(d for track in tracks.values() for _, d in track) == 5

    def test_cluster_summary_matches_shard_concatenation(self, cost):
        """End-to-end: cluster latency summary == concatenated shards."""
        jobs = cluster_trace(16, 1200.0, 0.6, seed=11)
        cluster = FpgaCluster.homogeneous(PARAMS, 3,
                                          router=RoundRobinRouter())
        report = cluster.run(jobs)
        concatenated = [r.latency_seconds for shard in report.shard_reports
                        for r in shard.results]
        assert report.latency_summary() == \
            LatencySummary.of(concatenated)


class TestSteppingApi:
    def test_run_equals_begin_inject_drain(self, cost):
        jobs = poisson_stream(700.0, 0.4, seed=21)
        oneshot = ServingRuntime(cost).run(jobs)
        stepped_runtime = ServingRuntime(cost)
        stepped_runtime.begin()
        for job in jobs:
            stepped_runtime.advance_to(job.arrival_seconds,
                                       inclusive=False)
            stepped_runtime.inject(job)
        stepped = stepped_runtime.drain()
        assert [r.finish_seconds for r in stepped.results] == \
            [r.finish_seconds for r in oneshot.results]

    def test_inject_requires_begin(self, cost):
        runtime = ServingRuntime(cost)
        with pytest.raises(RuntimeError):
            runtime.inject(Job(index=0, kind=JobKind.MULT))
        with pytest.raises(RuntimeError):
            runtime.advance_to(1.0)
        with pytest.raises(RuntimeError):
            runtime.drain()

    def test_inject_behind_clock_raises(self, cost):
        runtime = ServingRuntime(cost)
        runtime.begin()
        runtime.inject(Job(index=0, kind=JobKind.MULT,
                           arrival_seconds=0.5))
        runtime.advance_to(1.0)
        with pytest.raises(ValueError):
            runtime.inject(Job(index=1, kind=JobKind.MULT,
                               arrival_seconds=0.2))

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_arrival_raises_on_a_board(self, cost, time):
        runtime = ServingRuntime(cost)
        runtime.begin()
        runtime.inject(Job(index=0, kind=JobKind.MULT, arrival_seconds=0.1))
        with pytest.raises(ValueError, match="finite"):
            runtime.inject(Job(index=1, kind=JobKind.MULT,
                               arrival_seconds=time))

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_arrival_raises_on_a_cluster(self, time):
        cluster = FpgaCluster.homogeneous(PARAMS, 2)
        cluster.begin()
        cluster.inject(Job(index=0, kind=JobKind.MULT, arrival_seconds=0.1))
        with pytest.raises(ValueError, match="finite"):
            cluster.inject(Job(index=1, kind=JobKind.MULT,
                               arrival_seconds=time))
        # Refused before the clock moved: the first job is still queued.
        assert cluster.next_event_seconds() == 0.1

    def test_outstanding_tracks_pending_and_drains_to_zero(self, cost):
        runtime = ServingRuntime(cost)
        runtime.begin()
        assert runtime.outstanding_seconds() == 0.0
        for i in range(6):
            runtime.inject(Job(index=i, kind=JobKind.MULT))
        # Injected but unprocessed arrivals already register as load.
        assert runtime.outstanding_jobs() == 6
        assert runtime.outstanding_seconds() == pytest.approx(
            6 * cost.job_seconds(JobKind.MULT))
        assert runtime.drain_estimate_seconds() == pytest.approx(
            3 * cost.job_seconds(JobKind.MULT))
        report = runtime.drain()
        assert len(report.results) == 6
        assert runtime.outstanding_seconds() == pytest.approx(0.0)
        assert runtime.outstanding_jobs() == 0

    def test_exclusive_advance_still_moves_the_clock(self, cost):
        """Load signals must be measured at the deadline, not at the
        last processed event — a nearly-finished batch is nearly-zero
        outstanding work (the router reads this between arrivals)."""
        runtime = ServingRuntime(cost)
        runtime.begin()
        runtime.inject(Job(index=0, kind=JobKind.MULT))
        service = cost.job_seconds(JobKind.MULT)
        runtime.advance_to(0.9 * service, inclusive=False)
        assert runtime.now == pytest.approx(0.9 * service)
        assert runtime.outstanding_seconds() == \
            pytest.approx(0.1 * service)
        # Equal-time arrivals still inject after an exclusive advance.
        runtime.inject(Job(index=1, kind=JobKind.MULT,
                           arrival_seconds=0.9 * service))
        report = runtime.drain()
        assert len(report.results) == 2

    def test_advance_exclusive_defers_deadline_events(self, cost):
        runtime = ServingRuntime(cost)
        runtime.begin()
        runtime.inject(Job(index=0, kind=JobKind.MULT,
                           arrival_seconds=1.0))
        runtime.advance_to(1.0, inclusive=False)
        assert runtime.outstanding_jobs() == 1  # still pending
        assert not runtime._report.results
        runtime.advance_to(1.0)
        assert runtime.outstanding_jobs() == 1  # now queued/in flight
        report = runtime.drain()
        assert report.results[0].start_seconds == pytest.approx(1.0)


class TestClusterWorkloads:
    @pytest.mark.parametrize("generate", [
        lambda: cluster_trace(8, 2000.0, 0.5, seed=1),
        lambda: saturated_tenant_jobs(3, 4),
        lambda: multi_tenant_stream({"a": 400.0, "b": 200.0}, 0.5, seed=2),
    ], ids=["cluster_trace", "saturated_tenant_jobs", "multi_tenant_stream"])
    def test_generators_offer_mults_only(self, generate):
        """The paper's served operation: every generated job is a Mult."""
        jobs = generate()
        assert jobs and {j.kind for j in jobs} == {JobKind.MULT}

    def test_zipf_rates_sum_and_skew(self):
        rates = zipf_tenant_rates(50, 1000.0, skew=1.2)
        assert sum(rates.values()) == pytest.approx(1000.0)
        ordered = [rates[tenant_name(i)] for i in range(50)]
        assert ordered == sorted(ordered, reverse=True)
        uniform = zipf_tenant_rates(10, 100.0, skew=0.0)
        assert all(rate == pytest.approx(10.0)
                   for rate in uniform.values())

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            zipf_tenant_rates(0, 100.0)
        with pytest.raises(ValueError):
            zipf_tenant_rates(5, -1.0)
        with pytest.raises(ValueError):
            zipf_tenant_rates(5, 100.0, skew=-0.1)

    def test_cluster_trace_sorted_and_tagged(self):
        jobs = cluster_trace(12, 600.0, 0.5, seed=3)
        times = [j.arrival_seconds for j in jobs]
        assert times == sorted(times)
        assert [j.index for j in jobs] == list(range(len(jobs)))
        assert len({j.tenant for j in jobs}) > 1

    def test_saturated_tenant_jobs_interleaved(self):
        jobs = saturated_tenant_jobs(3, 2)
        assert [j.tenant for j in jobs] == [
            "t0000", "t0001", "t0002", "t0000", "t0001", "t0002"]
        assert all(j.arrival_seconds == 0.0 for j in jobs)
        with pytest.raises(ValueError):
            saturated_tenant_jobs(0, 1)


class TestClosedLoopCluster:
    """The think-time client model drives the whole cluster too."""

    def test_single_shard_matches_runtime(self, cost):
        """Closed loop on a 1-shard cluster == closed loop on the bare
        runtime: same protocol, same clock, same completions."""
        from repro.system.workloads import ClosedLoopClients

        def drive(target):
            clients = ClosedLoopClients(8, 0.02, seed=11)
            return clients.drive(target, duration_seconds=0.5)

        on_runtime = drive(ServingRuntime(cost))
        on_cluster = drive(FpgaCluster.homogeneous(PARAMS, 1))
        assert on_cluster.submitted == on_runtime.submitted
        assert on_cluster.completed == on_runtime.completed
        assert on_cluster.report.makespan_seconds == pytest.approx(
            on_runtime.report.makespan_seconds)

    def test_population_spreads_over_shards(self):
        from repro.system.workloads import ClosedLoopClients

        cluster = FpgaCluster.homogeneous(
            PARAMS, 4, router=TenantAffinityRouter())
        clients = ClosedLoopClients(64, 0.01, num_tenants=32, seed=3)
        result = clients.drive(cluster, duration_seconds=0.5)
        report = result.report
        assert result.completed == result.submitted > 0
        busy = sum(1 for rep in report.shard_reports if rep.results)
        assert busy == 4
        # Self-regulation: a closed population cannot overrun capacity.
        assert report.throughput_per_second() <= \
            cluster.capacity_mults_per_second() * 1.01

    def test_more_boards_serve_more_closed_loop_clients(self):
        from repro.system.workloads import ClosedLoopClients

        done = {}
        for shards in (1, 4):
            cluster = FpgaCluster.homogeneous(
                PARAMS, shards, router=TenantAffinityRouter())
            clients = ClosedLoopClients(256, 0.005, num_tenants=64,
                                        seed=7)
            done[shards] = clients.drive(cluster, 0.5).completed
        assert done[4] > 2 * done[1]
