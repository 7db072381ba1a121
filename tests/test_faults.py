"""Fault injection across the serving stack (repro.faults + cluster).

The contract under test is ISSUE 9's: failure is deterministic, loud,
and survivable. Concretely:

* a :class:`FaultPlan` is a pure function of its seed — two clusters
  replaying one plan produce *equal* :class:`FailureReport`s
  (property-tested over seeds);
* a board crash spills every queued and in-flight job back to the
  cluster edge, and with retries + R=2 replication **no accepted job
  is lost** — every offered job still lands in exactly one result or
  rejection (conservation);
* DMA stalls multiply service times, retried jobs measure latency from their
  first arrival, and routers never place new work on a down board;
* tenant failover to a replica pays a priced key-rehydration penalty
  and the fault ledger (plus the obs counters) records all of it.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    FpgaCluster,
    LeastOutstandingWorkRouter,
    ReplicatedPlacement,
    RoundRobinRouter,
    TenantAffinityRouter,
)
from repro.cluster.routing import rendezvous_order
from repro.faults import FailureReport, FaultEvent, FaultKind, FaultPlan, \
    RetryPolicy
from repro.obs import Tracer, runtime_timeline
from repro.params import hpca19, mini
from repro.serve import ServingRuntime, Tenant, TenantSet
from repro.system.server import CostModel
from repro.system.workloads import Job, JobKind, cluster_trace, \
    zipf_tenant_rates
from scaffolding import mult_stream
from test_cluster import check_cluster_conservation

PARAMS = mini()
COST = CostModel(PARAMS)


def _jobs(count: int, spacing: float = 0.0, **kwargs) -> list[Job]:
    return [Job(index=i, kind=JobKind.MULT, arrival_seconds=i * spacing,
                **kwargs) for i in range(count)]


class TestFaultPlan:
    def test_seeded_plan_is_deterministic(self):
        a = FaultPlan.seeded(7, 8, 1.0, crashes=2, transient_failures=5,
                             dma_stalls=3)
        b = FaultPlan.seeded(7, 8, 1.0, crashes=2, transient_failures=5,
                             dma_stalls=3)
        assert a == b and a.events == b.events

    def test_different_seeds_differ(self):
        a = FaultPlan.seeded(1, 8, 1.0, crashes=2, transient_failures=4)
        b = FaultPlan.seeded(2, 8, 1.0, crashes=2, transient_failures=4)
        assert a != b

    def test_events_are_time_sorted(self):
        plan = FaultPlan.seeded(3, 6, 2.0, crashes=2,
                                transient_failures=10, dma_stalls=4)
        times = [e.time_seconds for e in plan]
        assert times == sorted(times)

    def test_refuses_to_kill_every_board(self):
        with pytest.raises(ValueError, match="at least one board"):
            FaultPlan.seeded(0, 4, 1.0, crashes=4)

    def test_rejects_unsorted_events(self):
        events = (FaultEvent(0.5, FaultKind.SHARD_CRASH, 0),
                  FaultEvent(0.1, FaultKind.SHARD_RECOVER, 0))
        with pytest.raises(ValueError, match="time-sorted"):
            FaultPlan(events=events)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="predate"):
            FaultEvent(-1.0, FaultKind.SHARD_CRASH, 0)
        with pytest.raises(ValueError, match="speed the board up"):
            FaultEvent(0.0, FaultKind.DMA_STALL, 0, factor=0.5)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_event_rejects_non_finite_time(self, time):
        with pytest.raises(ValueError, match="finite"):
            FaultEvent(time, FaultKind.SHARD_CRASH, 0)

    def test_board_kill_requires_recovery_after_crash(self):
        with pytest.raises(ValueError, match="follow the crash"):
            FaultPlan.board_kill(0, 0.5, recover_at=0.2)
        plan = FaultPlan.board_kill(1, 0.5, recover_at=0.9)
        assert [e.kind for e in plan] == [FaultKind.SHARD_CRASH,
                                         FaultKind.SHARD_RECOVER]
        assert FaultPlan.none().events == ()


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(base_backoff_seconds=0.01, jitter=0.0)
        assert policy.backoff_seconds(1) == pytest.approx(0.01)
        assert policy.backoff_seconds(3) == pytest.approx(0.04)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_backoff_seconds=0.01, jitter=0.25,
                             seed=5)
        draws = {policy.backoff_seconds(2, token=t) for t in range(8)}
        assert len(draws) > 1  # distinct tokens fan out
        for delay in draws:
            assert 0.015 <= delay <= 0.025
        assert policy.backoff_seconds(2, token=3) == \
            policy.backoff_seconds(2, token=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_seconds=-0.01)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_seconds(0)


class TestEngineFailureSemantics:
    def test_service_scale_slows_completions(self):
        nominal = ServingRuntime(COST).run(mult_stream(8))
        stalled = ServingRuntime(COST)
        stalled.service_scale = 4.0
        slow = stalled.run(mult_stream(8))
        assert slow.makespan_seconds == \
            pytest.approx(4.0 * nominal.makespan_seconds)

    def test_service_scale_validation(self):
        runtime = ServingRuntime(COST)
        with pytest.raises(ValueError):
            runtime.service_scale = 0.5

    def test_spill_returns_all_outstanding_work(self):
        runtime = ServingRuntime(COST)
        runtime.begin()
        for job in _jobs(12):
            runtime.inject(job)
        # Process the arrivals and first dispatches, then crash.
        step = COST.job_seconds(JobKind.MULT) / 2
        runtime.advance_to(step)
        spilled = runtime.spill()
        assert sorted(j.index for j in spilled) + \
            [r.job.index for r in runtime.drain().results] == \
            sorted(range(12))
        assert runtime.outstanding_jobs() == 0

    def test_spilled_runtime_accepts_new_work(self):
        runtime = ServingRuntime(COST)
        runtime.begin()
        for job in _jobs(4):
            runtime.inject(job)
        runtime.spill()
        late = Job(index=99, kind=JobKind.MULT,
                   arrival_seconds=runtime.now)
        runtime.inject(late)
        report = runtime.drain()
        assert [r.job.index for r in report.results] == [99]

    def test_fail_one_pops_next_queued_job(self):
        runtime = ServingRuntime(COST)
        runtime.begin()
        for job in _jobs(6):
            runtime.inject(job)
        runtime.advance_to(0.0)
        before = runtime.outstanding_jobs()
        failed = runtime.fail_one()
        assert failed is not None
        assert runtime.outstanding_jobs() == before - 1
        assert runtime.fail_one() is not None  # still more queued

    def test_retry_latency_measured_from_first_arrival(self):
        """One latency definition: the record, its reductions, the SLA
        count and the timeline all measure from the first submission."""
        job = Job(index=0, kind=JobKind.MULT, arrival_seconds=0.5,
                  first_arrival_seconds=0.1)
        # Missed only when measured from 0.1, not from the re-injection.
        tenants = TenantSet.of(Tenant(job.tenant, sla_seconds=0.2))
        runtime = ServingRuntime(COST, tenants=tenants)
        runtime.begin()
        runtime.advance_to(0.5, inclusive=False)
        runtime.inject(job)
        report = runtime.drain()
        (result,) = report.results
        expected = result.finish_seconds - 0.1
        assert result.latency_seconds == expected
        assert report.mean_latency_seconds == expected
        assert report.latency_summary().max == expected
        assert report.sla_violations == 1
        (event,) = [e for e in runtime_timeline(report) if e["ph"] == "X"]
        assert event["args"]["latency_seconds"] == expected


class TestShardLifecycle:
    """A shard is a runtime: crash/recover live on ServingRuntime, the
    health mask on the cluster that routes to it."""

    def test_crash_spills_and_refuses_work(self):
        cluster = FpgaCluster.homogeneous(PARAMS, 2,
                                          router=RoundRobinRouter())
        cluster.begin()
        board = cluster.shards[0]
        for job in _jobs(5):
            board.inject(job)
        spilled = board.crash(0.0)
        assert len(spilled) == 5
        assert not board.up and board.down_since == 0.0
        assert board.crash(0.0) == []  # idempotent
        # The router sees only live boards: the job lands on shard1.
        cluster.inject(Job(index=9, kind=JobKind.MULT))
        report = cluster.drain()
        assert report.shard_reports[0].results == []
        assert [r.job.index for r in report.shard_reports[1].results] \
            == [9]

    def test_recover_returns_to_service(self):
        cluster = FpgaCluster.homogeneous(PARAMS, 2,
                                          router=RoundRobinRouter())
        cluster.begin()
        board = cluster.shards[1]
        board.service_scale = 3.0  # a DMA stall, then the board dies
        board.crash(0.0)
        cluster.inject(Job(index=0, kind=JobKind.MULT))  # masked: shard0
        board.recover()
        assert board.service_scale == 1.0
        assert board.down_since is None
        for index in (1, 2):
            cluster.inject(Job(index=index, kind=JobKind.MULT))
        revived = cluster.drain().shard_reports[1].results
        assert [r.job.index for r in revived] == [1]
        assert revived[0].finish_seconds - revived[0].start_seconds == \
            pytest.approx(board.cost.job_seconds(JobKind.MULT))


class TestReplicatedPlacement:
    def test_replica_set_matches_rendezvous_order(self):
        names = [f"shard{i}" for i in range(8)]
        placement = ReplicatedPlacement(names, replicas=3)
        router = TenantAffinityRouter()

        class _FakeShard:
            def __init__(self, name):
                self.name = name

        shards = [_FakeShard(n) for n in names]
        for tenant in ("t0", "t1", "hot"):
            order = rendezvous_order(tenant, tuple(names))
            assert placement.preference(tenant) == order
            assert placement.replica_set(tenant) == order[:3]
            assert placement.primary(tenant) == order[0]
            assert router.choose(Job(index=0, kind=JobKind.MULT,
                                     tenant=tenant), shards) == order[0]

    def test_warmth_seeds_evicts_and_rehydrates(self):
        placement = ReplicatedPlacement(["a", "b", "c", "d"], replicas=2)
        first, second = placement.replica_set("t")
        assert placement.is_warm("t", first)
        assert placement.is_warm("t", second)
        placement.evict_shard(first)
        assert not placement.is_warm("t", first)
        assert placement.is_warm("t", second)
        placement.warm("t", first)
        assert placement.is_warm("t", first)

    def test_primary_tenants_tracks_seen_population(self):
        placement = ReplicatedPlacement(["a", "b", "c"], replicas=1)
        tenants = [f"t{i}" for i in range(20)]
        for tenant in tenants:
            placement.is_warm(tenant, 0)  # first sight
        by_primary = [placement.primary_tenants(i) for i in range(3)]
        assert sorted(t for group in by_primary for t in group) == \
            sorted(tenants)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicatedPlacement(["a", "b"], replicas=3)
        with pytest.raises(ValueError):
            ReplicatedPlacement(["a", "b"], replicas=0)


def _chaos_run(plan, *, shards=4, replicas=2, router=None, retry=None,
               duration=0.06, rate=5000.0, tenants=8, seed=3):
    jobs = cluster_trace(tenants, rate, duration, seed=seed)
    cluster = FpgaCluster.homogeneous(
        PARAMS, shards, router=router or TenantAffinityRouter(),
        fault_plan=plan, retry=retry, replicas=replicas)
    return cluster.run(jobs), jobs


class TestClusterFaults:
    def test_board_kill_loses_nothing(self):
        # Aim a 3x-oversubscribed tenant burst at shard1's primary
        # tenant so the board is guaranteed busy when the kill lands.
        names = [f"shard{i}" for i in range(4)]
        placement = ReplicatedPlacement(names, replicas=2)
        tenant = next(t for t in (f"hot{i}" for i in range(64))
                      if placement.primary(t) == 1)
        jobs = [Job(index=i, kind=JobKind.MULT,
                    arrival_seconds=i * 0.0002, tenant=tenant)
                for i in range(120)]
        plan = FaultPlan.board_kill(1, 0.012, recover_at=0.03)
        cluster = FpgaCluster.homogeneous(
            PARAMS, 4, router=TenantAffinityRouter(),
            fault_plan=plan, replicas=2)
        report = cluster.run(jobs)
        check_cluster_conservation(report, jobs)
        failure = report.failure
        assert failure is not None
        assert failure.crashes == 1 and failure.recoveries == 1
        assert failure.jobs_lost == 0
        assert failure.jobs_retried >= failure.jobs_spilled > 0
        assert report.availability == 1.0
        assert failure.downtime_by_shard["shard1"] == \
            pytest.approx(0.018)

    def test_drain_raises_when_the_retry_path_drops_a_job(self,
                                                          monkeypatch):
        """Conservation is checked on every cluster drain: a spilled job
        that is neither retried nor counted as lost fails the run."""
        monkeypatch.setattr(FpgaCluster, "_schedule_retry",
                            lambda self, job, origin, now: None)
        plan = FaultPlan.board_kill(1, 0.02, recover_at=0.04)
        # Oversubscribed, so the killed board has queued work to spill.
        with pytest.raises(RuntimeError,
                           match="cluster broke job conservation"):
            _chaos_run(plan, rate=20_000.0)

    def test_head_board_kill_at_paper_scale(self):
        """The chaos scenario on the paper's parameter set: 8 boards at
        60 % of capacity with R = 2, the Zipf head's primary killed at
        40 % of a 1 s trace and back at 80 %. Nothing is lost, the fleet
        stays >= 99 % available, and p99 pays under 3x a fault-free
        twin of the same trace."""
        params, shards, tenants = hpca19(), 8, 128
        rate = 0.6 * FpgaCluster.homogeneous(
            params, shards).capacity_mults_per_second()
        jobs = cluster_trace(tenants, rate, 1.0, skew=1.1, seed=2019)
        rates = zipf_tenant_rates(tenants, rate, 1.1)
        victim = ReplicatedPlacement(
            [f"shard{i}" for i in range(shards)], 2,
        ).primary(max(rates, key=rates.get))

        def run(plan):
            return FpgaCluster.homogeneous(
                params, shards, router=TenantAffinityRouter(),
                fault_plan=plan, retry=RetryPolicy(seed=2019),
                replicas=2).run(jobs)

        clean = run(None)
        chaos = run(FaultPlan.board_kill(victim, 0.4, recover_at=0.8))
        check_cluster_conservation(chaos, jobs)
        failure = chaos.failure
        assert failure.jobs_lost == 0
        assert failure.crashes == 1 and failure.recoveries == 1
        assert chaos.availability >= 0.99
        assert chaos.latency_summary().p99 < \
            3.0 * clean.latency_summary().p99

    def test_no_new_work_lands_on_a_down_board(self):
        plan = FaultPlan.board_kill(0, 0.02)  # never recovers
        report, jobs = _chaos_run(plan, router=RoundRobinRouter(),
                                  replicas=None)
        check_cluster_conservation(report, jobs)
        dead = report.shard_reports[0]
        # Every result on the dead board started before the kill —
        # the health mask kept all later arrivals off it.
        assert all(r.start_seconds < 0.02 for r in dead.results)
        assert report.failure.downtime_by_shard["shard0"] > 0.0

    def test_unrecovered_kill_with_replication_still_serves(self):
        # Kill the hot tenant's primary *and* its warm replica: traffic
        # must fail over to a cold third board, paying key rehydration.
        names = [f"shard{i}" for i in range(4)]
        placement = ReplicatedPlacement(names, replicas=2)
        tenant = "t42"
        primary, replica = placement.preference(tenant)[:2]
        events = (
            FaultEvent(0.010, FaultKind.SHARD_CRASH, primary),
            FaultEvent(0.011, FaultKind.SHARD_CRASH, replica),
        )
        jobs = [Job(index=i, kind=JobKind.MULT,
                    arrival_seconds=i * 0.0004, tenant=tenant)
                for i in range(100)]
        cluster = FpgaCluster.homogeneous(
            PARAMS, 4, router=TenantAffinityRouter(),
            fault_plan=FaultPlan(events=events), replicas=2)
        report = cluster.run(jobs)
        check_cluster_conservation(report, jobs)
        assert report.failure.jobs_lost == 0
        assert report.availability == 1.0
        assert report.failure.failovers > 0
        assert report.failure.rehydrations > 0
        assert report.failure.failovers_by_tenant == \
            {tenant: report.failure.failovers}

    def test_retry_budget_exhaustion_is_counted_loss(self):
        names = [f"shard{i}" for i in range(4)]
        placement = ReplicatedPlacement(names, replicas=2)
        tenant = next(t for t in (f"hot{i}" for i in range(64))
                      if placement.primary(t) == 1)
        jobs = [Job(index=i, kind=JobKind.MULT,
                    arrival_seconds=i * 0.0002, tenant=tenant)
                for i in range(120)]
        plan = FaultPlan.board_kill(1, 0.012)
        retry = RetryPolicy(max_attempts=1)  # no second chances
        cluster = FpgaCluster.homogeneous(
            PARAMS, 4, router=TenantAffinityRouter(),
            fault_plan=plan, retry=retry, replicas=2)
        report = cluster.run(jobs)
        check_cluster_conservation(report, jobs)
        failure = report.failure
        assert failure.jobs_lost == failure.jobs_spilled > 0
        assert failure.jobs_retried == 0
        lost = [r for r in report.rejected if r.reason == "retry-budget"]
        assert len(lost) == failure.jobs_lost
        # Against the default budget on the same plan nothing is lost,
        # and what the exhausted run completed plus what it counted as
        # lost is exactly what that run completed.
        healthy = FpgaCluster.homogeneous(
            PARAMS, 4, router=TenantAffinityRouter(),
            fault_plan=plan, replicas=2).run(jobs)
        assert healthy.failure.jobs_lost == 0

        def completed(run):
            return [r.job.index for shard in run.shard_reports
                    for r in shard.results]

        assert sorted(completed(report) + [r.job.index for r in lost]) \
            == sorted(completed(healthy))

    def test_retried_job_moves_its_arrival(self):
        """A retry moves the arrival and remembers the first one."""
        names = [f"shard{i}" for i in range(4)]
        placement = ReplicatedPlacement(names, replicas=2)
        tenant = next(t for t in (f"hot{i}" for i in range(64))
                      if placement.primary(t) == 1)
        jobs = [Job(index=i, kind=JobKind.MULT, arrival_seconds=i * 0.0002,
                    tenant=tenant)
                for i in range(120)]
        plan = FaultPlan.board_kill(1, 0.012, recover_at=0.03)
        report = FpgaCluster.homogeneous(
            PARAMS, 4, router=TenantAffinityRouter(), fault_plan=plan,
            replicas=2).run(jobs)
        check_cluster_conservation(report, jobs)
        retried = [r.job for shard in report.shard_reports
                   for r in shard.results
                   if r.job.first_arrival_seconds is not None]
        assert len(retried) == report.failure.jobs_retried > 0
        assert all(job.arrival_seconds > job.first_arrival_seconds
                   for job in retried)

    def test_transient_job_failures_retry_in_place(self):
        events = tuple(FaultEvent(t, FaultKind.JOB_FAIL, 0)
                       for t in (0.005, 0.01, 0.015))
        plan = FaultPlan(events=events)
        report, jobs = _chaos_run(plan, shards=1, replicas=None,
                                  router=RoundRobinRouter(), rate=4000.0)
        check_cluster_conservation(report, jobs)
        assert report.failure.transient_failures > 0
        assert report.failure.jobs_lost == 0

    def test_dma_stall_inflates_latency_until_resume(self):
        stall = FaultPlan(events=(
            FaultEvent(0.0, FaultKind.DMA_STALL, 0, factor=8.0),))
        slow, jobs = _chaos_run(stall, shards=1, replicas=None,
                                rate=1500.0)
        clear, _ = _chaos_run(FaultPlan.none(), shards=1, replicas=None,
                              rate=1500.0)
        assert slow.failure.dma_stalls == 1
        assert slow.latency_summary().p99 > 2.0 * \
            clear.latency_summary().p99
        check_cluster_conservation(slow, jobs)

    def test_fault_counters_and_spans_emitted(self):
        plan = FaultPlan.board_kill(1, 0.02, recover_at=0.04)
        tracer = Tracer()
        with tracer.activate():
            report, _ = _chaos_run(plan)
        spans = [s for s in tracer.finish().walk() if s.kind == "fault"]
        names = [s.name for s in spans]
        # The spans are the timeline of the FailureReport's events.
        assert names.count("fault.shard_crash") == report.failure.crashes == 1
        assert names.count("fault.shard_recover") == \
            report.failure.recoveries == 1
        down = [s for s in spans if s.name == "shard.down"]
        assert down and down[0].attrs["shard"] == "shard1"
        assert down[0].end - down[0].start == pytest.approx(0.02)

    def test_fault_free_cluster_has_no_failure_report(self):
        cluster = FpgaCluster.homogeneous(PARAMS, 2)
        report = cluster.run(mult_stream(16))
        assert report.failure is None

    def test_replicas_validated_against_fleet_size(self):
        with pytest.raises(ValueError, match="replication factor"):
            FpgaCluster.homogeneous(PARAMS, 2, replicas=3)

    def test_plan_validated_against_fleet_size(self):
        plan = FaultPlan.board_kill(5, 0.1)
        with pytest.raises(ValueError, match="names shard 5"):
            FpgaCluster.homogeneous(PARAMS, 2, fault_plan=plan)

    def test_closed_loop_driver_steps_over_faults(self):
        from repro.system.workloads import ClosedLoopClients

        plan = FaultPlan.board_kill(0, 0.01, recover_at=0.03)
        cluster = FpgaCluster.homogeneous(
            PARAMS, 2, router=LeastOutstandingWorkRouter(),
            fault_plan=plan, replicas=2)
        result = ClosedLoopClients(8, 0.002, num_tenants=4,
                                   seed=1).drive(cluster, 0.05)
        assert result.report.failure.crashes == 1
        assert result.report.failure.jobs_lost == 0
        assert result.report.completed > 0


class TestDeterminism:
    """Two runs of one seeded plan produce identical FailureReports."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_seeded_chaos_is_reproducible(self, seed):
        def run():
            plan = FaultPlan.seeded(seed, 4, 0.04, crashes=1,
                                    transient_failures=3, dma_stalls=1)
            jobs = cluster_trace(6, 2500.0, 0.04, seed=seed)
            cluster = FpgaCluster.homogeneous(
                PARAMS, 4, router=TenantAffinityRouter(),
                fault_plan=plan, replicas=2,
                retry=RetryPolicy(seed=seed))
            return cluster.run(jobs)

        first, second = run(), run()
        assert isinstance(first.failure, FailureReport)
        assert first.failure == second.failure
        assert [r.finish_seconds for r in first.results] == \
            [r.finish_seconds for r in second.results]


class TestSimulatedBackendFaults:
    def test_program_survives_board_kill(self):
        from repro.api import Session, SimulatedBackend, sum_slots

        session = Session(mini(t=65537), seed=61)
        a = session.encrypt([1, 2, 3, 4])
        b = session.encrypt([5, 6, 7, 8])
        program = session.compile(sum_slots(a * b), name="dot")
        plan = FaultPlan.board_kill(1, 0.001, recover_at=0.004)
        backend = SimulatedBackend.over_cluster(
            session.params, 3, router_factory=TenantAffinityRouter,
            fault_plan=plan, replicas=2)
        run = backend.run(program, requests=40, rate_per_second=2000.0,
                          num_tenants=8, seed=2)
        assert run.failure_report is not None
        assert run.failure_report.crashes == 1
        assert run.failure_report.jobs_lost == 0
        assert all(f.succeeded for f in run.futures)

    def test_runtime_backend_has_no_failure_report(self):
        from repro.api import Session, SimulatedBackend, sum_slots

        session = Session(mini(t=65537), seed=62)
        a = session.encrypt([1, 2, 3, 4])
        program = session.compile(sum_slots(a * a), name="sq")
        backend = SimulatedBackend.over_runtime(session.params)
        assert backend.run(program, requests=2).failure_report is None


class TestChaosCli:
    def test_cluster_faults_flag_prints_failure_table(self, capsys):
        from repro.cli import main

        assert main(["cluster", "--shards", "2", "--faults", "5",
                     "--replicas", "2", "--duration", "0.05",
                     "--tenants", "12"]) == 0
        out = capsys.readouterr().out
        assert "Failure report (plan seed: 5)" in out
        assert "jobs lost" in out
        assert "availability" in out
