"""Tests for the discrete-event serving runtime (repro.serve) and the
CostModel refactor, plus the workload-generator edge cases."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.config import HardwareConfig
from repro.params import hpca19, mini
from repro.serve import (
    BatchPolicy,
    DmaBatcher,
    EventHeap,
    EventKind,
    FifoScheduler,
    LatencySummary,
    ServingRuntime,
    ShortestJobFirstScheduler,
    Tenant,
    TenantSet,
    WeightedFairScheduler,
    WorkStealingScheduler,
)
from repro.serve.schedulers import QueueEntry
from repro.system.server import CostModel
from repro.system.workloads import (
    Job,
    JobKind,
    multi_tenant_stream,
    poisson_stream,
    tenant_name,
)
from scaffolding import mult_stream, toy

CONFIG = HardwareConfig()


@pytest.fixture(scope="module")
def cost():
    return CostModel(hpca19(), CONFIG)


def list_schedule(cost, jobs):
    """The earliest-free list scheduler the paper's Fig. 11 server runs:
    arrival order, one job at a time on the coprocessor that frees
    first. Returns each job's finish time, in arrival order."""
    free_at = [0.0] * cost.config.num_coprocessors
    finishes = []
    for job in jobs:
        coproc = min(range(len(free_at)), key=free_at.__getitem__)
        start = max(free_at[coproc], job.arrival_seconds)
        free_at[coproc] = start + cost.job_seconds(job.kind)
        finishes.append(free_at[coproc])
    return finishes


def make_scheduler(name):
    return {
        "fifo": FifoScheduler,
        "sjf": ShortestJobFirstScheduler,
        "wfq": WeightedFairScheduler,
        "steal": WorkStealingScheduler,
    }[name]()


ALL_POLICIES = ["fifo", "sjf", "wfq", "steal"]


def check_invariants(report, offered_jobs):
    """The scheduler invariants every policy must uphold."""
    # Conservation: every offered job either completed or was rejected,
    # exactly once.
    done = [r.job.index for r in report.results]
    rejected = [r.job.index for r in report.rejected]
    assert sorted(done + rejected) == sorted(j.index for j in offered_jobs)
    # Causality: no job starts (or finishes) before it arrives.
    for result in report.results:
        assert result.start_seconds >= result.job.arrival_seconds - 1e-12
        assert result.finish_seconds > result.start_seconds
    # Exclusivity: one batch at a time per coprocessor.
    per_coproc = {}
    for result in report.results:
        per_coproc.setdefault(result.coprocessor, set()).add(
            (result.start_seconds, result.finish_seconds)
        )
    for intervals in per_coproc.values():
        ordered = sorted(intervals)
        for (_s0, f0), (s1, _f1) in zip(ordered, ordered[1:], strict=False):
            assert s1 >= f0 - 1e-12


class TestCostModel:
    def test_cycle_model_built_once(self):
        """One price list, owned by the coprocessor and shared."""
        cost = CostModel(hpca19(), CONFIG)
        model = cost.reference.instruction_cycle_model()
        cost.compute_seconds(JobKind.MULT)
        cost.compute_seconds(JobKind.ADD)
        assert cost.instruction_cycle_model() is model

    def test_compute_costs_cached(self):
        """Each kind is compiled and summed once; re-pricing is a
        dictionary lookup."""
        cost = CostModel(hpca19(), CONFIG)
        compiled = []
        original = cost.program

        def counting(kind):
            compiled.append(kind)
            return original(kind)

        cost.program = counting
        for kind in (JobKind.MULT, JobKind.ADD, JobKind.MULT, JobKind.ADD):
            assert cost.compute_seconds(kind) == cost.compute_seconds(kind)
        assert compiled == [JobKind.MULT, JobKind.ADD]

    @pytest.mark.parametrize("make_params", [toy, mini, hpca19],
                             ids=["toy", "mini", "hpca19"])
    def test_job_price_memo_is_exact(self, make_params):
        """The per-shape price memo keys every field the price reads:
        once every shape is cached, each still prices as its closed
        form — one burst plus one Arm setup per polynomial each way,
        around the kind's compute — cold-replica rehydration shape
        (4 + 2 k_q bursts in) included."""
        params = make_params()
        cost = CostModel(params, CONFIG)
        per_poly = (cost.dma.transfer_seconds(params.poly_bytes)
                    + cost.dma.arm_setup_seconds)
        shapes = [(kind, polys_in, polys_out) for kind in JobKind
                  for polys_in in (0, 1, 2, 4, 4 + 2 * params.k_q)
                  for polys_out in (0, 1, 2)]

        def job(kind, polys_in, polys_out):
            return Job(index=0, kind=kind, polys_in=polys_in,
                       polys_out=polys_out)

        for shape in shapes:
            cost.job_seconds_of(job(*shape))
        for kind, polys_in, polys_out in reversed(shapes):
            assert cost.job_seconds_of(job(kind, polys_in, polys_out)) == (
                polys_in * per_poly + cost.compute_seconds(kind)
                + polys_out * per_poly)


class TestRuntimeReportWindow:
    def test_makespan_measured_from_first_arrival(self, cost):
        """A late first arrival must not dilute throughput (satellite)."""
        offset = 5.0
        early = ServingRuntime(cost).run(mult_stream(40))
        late_jobs = [Job(index=i, kind=JobKind.MULT,
                         arrival_seconds=offset) for i in range(40)]
        late = ServingRuntime(cost).run(late_jobs)
        assert late.first_arrival_seconds == pytest.approx(offset)
        assert late.makespan_seconds == pytest.approx(early.makespan_seconds)
        assert late.throughput_per_second() == \
            pytest.approx(early.throughput_per_second())

    def test_empty_report(self, cost):
        report = ServingRuntime(cost).run([])
        assert report.makespan_seconds == 0.0
        assert report.throughput_per_second() == 0.0


class TestEventHeap:
    def test_orders_by_time_then_insertion(self):
        heap = EventHeap()
        heap.push(2.0, EventKind.ARRIVAL, "late")
        heap.push(1.0, EventKind.ARRIVAL, "a")
        heap.push(1.0, EventKind.DISPATCH, "b")
        assert [heap.pop().payload for _ in range(3)] == ["a", "b", "late"]

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            EventHeap().push(-1.0, EventKind.ARRIVAL)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_rejects_non_finite_time(self, time):
        with pytest.raises(ValueError, match="finite"):
            EventHeap().push(time, EventKind.ARRIVAL)

    def test_faults_and_retries_rank_before_board_events(self):
        heap = EventHeap()
        heap.push(1.0, EventKind.ARRIVAL, "arrival")
        heap.push(1.0, EventKind.RETRY, "retry")
        heap.push(1.0, EventKind.COMPLETION, "completion")
        heap.push(1.0, EventKind.FAULT, "fault")
        heap.push(0.5, EventKind.DISPATCH, "early")
        assert [heap.pop().payload for _ in range(5)] == [
            "early", "retry", "fault", "arrival", "completion"]

    def test_exclusive_advance_applies_faults_and_retries_at_deadline(self):
        heap = EventHeap()
        owner = _Recorder()
        heap.push(1.0, EventKind.ARRIVAL, "arrival", owner)
        heap.push(1.0, EventKind.FAULT, "fault", owner)
        heap.push(0.5, EventKind.COMPLETION, "completion", owner)
        heap.push(1.0, EventKind.RETRY, "retry", owner)
        heap.advance(1.0, inclusive=False)
        assert owner.seen == ["completion", "fault", "retry"]
        assert [heap.pop().payload for _ in range(len(heap))] \
            == ["arrival"]

    def test_take_returns_one_owners_events_in_processing_order(self):
        heap = EventHeap()
        mine, other = _Recorder(), _Recorder()
        heap.push(2.0, EventKind.COMPLETION, "m-late", mine)
        heap.push(1.0, EventKind.ARRIVAL, "o-arrival", other)
        heap.push(1.0, EventKind.DISPATCH, "m-dispatch", mine)
        heap.push(1.0, EventKind.ARRIVAL, "m-arrival", mine)
        heap.push(1.0, EventKind.RETRY, "o-retry", other)
        heap.push(0.5, EventKind.COMPLETION, "o-early", other)
        assert [e.payload for e in heap.take(mine)] == [
            "m-dispatch", "m-arrival", "m-late"]
        heap.advance()
        assert other.seen == ["o-early", "o-retry", "o-arrival"]
        assert mine.seen == []

    def test_clock_reads_the_deadline_after_an_advance(self):
        heap = EventHeap()
        owner = _Recorder()
        heap.push(0.25, EventKind.ARRIVAL, "a", owner)
        heap.push(3.0, EventKind.ARRIVAL, "b", owner)
        heap.advance(1.5, inclusive=False)
        assert heap.now == 1.5
        heap.advance(1.0)
        assert heap.now == 1.5
        heap.advance()
        assert heap.now == 3.0
        assert owner.seen == ["a", "b"]


class _Recorder:
    """An event owner that records the payloads it is handed."""

    def __init__(self) -> None:
        self.seen: list = []

    def handle(self, event) -> None:
        self.seen.append(event.payload)


class TestEngineMatchesStaticLoop:
    def test_saturated_throughput_within_one_percent(self, cost):
        """Acceptance: engine matches the analytic 400 Mult/s headline."""
        report = ServingRuntime(cost).run(mult_stream(200))
        analytic = cost.mult_throughput_per_second()
        assert abs(report.throughput_per_second() - analytic) / analytic \
            < 0.01

    @pytest.mark.parametrize("jobs", [
        mult_stream(50),
        poisson_stream(300.0, 0.5, seed=5),
        poisson_stream(600.0, 0.3, seed=9),
    ], ids=["saturated", "underload", "overload"])
    def test_fifo_engine_reproduces_legacy_serve(self, cost, jobs):
        """FIFO with no batching is the earliest-free list schedule."""
        legacy_finishes = sorted(list_schedule(cost, jobs))
        event = ServingRuntime(cost).run(jobs)
        event_finishes = sorted(r.finish_seconds for r in event.results)
        assert event_finishes == pytest.approx(legacy_finishes)
        assert event.makespan_seconds == pytest.approx(
            legacy_finishes[-1] - min(j.arrival_seconds for j in jobs))

    def test_both_coprocessors_used(self, cost):
        report = ServingRuntime(cost).run(mult_stream(40))
        assert {r.coprocessor for r in report.results} == {0, 1}

    def test_runtime_is_single_use(self, cost):
        runtime = ServingRuntime(cost)
        runtime.run(mult_stream(4))
        with pytest.raises(RuntimeError):
            runtime.run(mult_stream(4))


class TestOneDispatchPerInstant:
    def test_burst_dispatches_once_per_instant(self, cost):
        """Eight tied arrivals, then pairs of tied completions: one
        DISPATCH pass serves each instant."""
        runtime = ServingRuntime(cost)
        instants = []
        dispatch = runtime._on_dispatch

        def counting(now):
            instants.append(now)
            dispatch(now)

        runtime._on_dispatch = counting
        report = runtime.run([Job(index=i, kind=JobKind.MULT,
                                  arrival_seconds=0.5) for i in range(8)])
        assert len(report.results) == 8
        assert instants[0] == 0.5
        assert len(instants) == 5
        assert set(Counter(instants).values()) == {1}

    def test_crash_clears_a_pending_dispatch(self, cost):
        """A crash drops the pending DISPATCH with the rest of the heap;
        a job injected at the crash instant after recovery must still
        get its own and be served."""
        runtime = ServingRuntime(cost)
        runtime.begin()
        runtime.inject(Job(index=0, kind=JobKind.MULT, arrival_seconds=1.0))
        runtime.handle(runtime._heap.pop())
        assert runtime.next_event_seconds() == 1.0   # the DISPATCH
        assert [job.index for job in runtime.crash(1.0)] == [0]
        runtime.recover()
        runtime.inject(Job(index=1, kind=JobKind.MULT, arrival_seconds=1.0))
        report = runtime.drain()
        assert [(r.job.index, r.start_seconds) for r in report.results] \
            == [(1, 1.0)]


class TestSchedulerInvariants:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_invariants_on_mixed_poisson(self, cost, policy):
        jobs = sorted(
            poisson_stream(400.0, 0.4, seed=3)
            + poisson_stream(500.0, 0.4, kind=JobKind.ADD, seed=4,
                             tenant="adds"),
            key=lambda j: j.arrival_seconds,
        )
        jobs = [Job(index=i, kind=j.kind,
                    arrival_seconds=j.arrival_seconds, tenant=j.tenant)
                for i, j in enumerate(jobs)]
        report = ServingRuntime(cost,
                                scheduler=make_scheduler(policy)).run(jobs)
        check_invariants(report, jobs)
        assert len(report.rejected) == 0

    @settings(max_examples=15, deadline=None)
    @given(
        policy=st.sampled_from(ALL_POLICIES),
        kinds=st.lists(st.sampled_from([JobKind.MULT, JobKind.ADD]),
                       min_size=1, max_size=30),
        gaps=st.lists(st.floats(0.0, 0.02), min_size=1, max_size=30),
        batch=st.integers(1, 4),
    )
    def test_invariants_property(self, cost, policy, kinds, gaps, batch):
        now, jobs = 0.0, []
        for i, kind in enumerate(kinds):
            now += gaps[i % len(gaps)]
            jobs.append(Job(index=i, kind=kind, arrival_seconds=now,
                            tenant=f"t{i % 3}"))
        report = ServingRuntime(cost, scheduler=make_scheduler(policy),
                                batching=BatchPolicy(max_jobs=batch)).run(jobs)
        check_invariants(report, jobs)

    def test_drain_raises_when_a_completion_is_lost(self, cost,
                                                    monkeypatch):
        """Conservation is checked on every drain, not only by tests:
        a completion that never reaches the report fails the run."""
        record = ServingRuntime._on_completion

        def drop_first(runtime, done, now):
            record(runtime, done, now)
            if not dropped:
                dropped.append(runtime._report.results.pop())

        dropped = []
        monkeypatch.setattr(ServingRuntime, "_on_completion", drop_first)
        with pytest.raises(RuntimeError, match=(
                r"runtime broke job conservation: 6 arrived but 5 "
                r"completed \+ 0 rejected \+ 0 handed back = 5")):
            ServingRuntime(cost).run(mult_stream(6))


class TestPolicies:
    def test_sjf_runs_adds_before_mults(self, cost):
        jobs = [Job(index=i, kind=JobKind.MULT) for i in range(6)] + \
               [Job(index=6 + i, kind=JobKind.ADD) for i in range(6)]
        report = ServingRuntime(cost, scheduler=ShortestJobFirstScheduler()).run(jobs)
        by_start = sorted(report.results, key=lambda r: r.start_seconds)
        first_kinds = [r.job.kind for r in by_start[:6]]
        assert all(k is JobKind.ADD for k in first_kinds)

    def test_wfq_respects_weights(self, cost):
        """A weight-4 tenant's jobs wait far less than a weight-1 peer's."""
        jobs = []
        for i in range(60):
            jobs.append(Job(index=2 * i, kind=JobKind.MULT,
                            tenant="heavy"))
            jobs.append(Job(index=2 * i + 1, kind=JobKind.MULT,
                            tenant="light"))
        tenants = TenantSet.of(Tenant("heavy", weight=4.0),
                               Tenant("light", weight=1.0))
        report = ServingRuntime(cost, scheduler=WeightedFairScheduler(),
                                tenants=tenants).run(jobs)
        heavy = report.latency_summary("heavy")
        light = report.latency_summary("light")
        assert heavy.count == light.count == 60
        assert heavy.mean < 0.5 * light.mean

    def test_wfq_weights_come_from_the_tenant_set(self):
        scheduler = WeightedFairScheduler()
        ServingRuntime(CostModel(hpca19(), CONFIG), scheduler=scheduler,
                       tenants=TenantSet.of(Tenant("a", weight=3.0)))
        assert scheduler.weight_of("a") == 3.0
        assert scheduler.weight_of("unknown") == 1.0

    def test_work_stealing_keeps_both_busy(self, cost):
        report = ServingRuntime(
            cost, scheduler=WorkStealingScheduler()).run(mult_stream(80))
        fifo = ServingRuntime(cost).run(mult_stream(80))
        assert report.makespan_seconds == \
            pytest.approx(fifo.makespan_seconds, rel=0.05)
        util = report.utilization()
        assert all(u > 0.9 for u in util)

    def test_work_stealing_rebalances_cost_skew(self, cost):
        """Round-robin spray puts all Mults on one queue; stealing must
        keep the other coprocessor from idling."""
        jobs = []
        for i in range(40):
            kind = JobKind.MULT if i % 2 == 0 else JobKind.ADD
            jobs.append(Job(index=i, kind=kind))
        report = ServingRuntime(cost, scheduler=WorkStealingScheduler()).run(jobs)
        util = report.utilization()
        assert all(u > 0.8 for u in util)

    def test_work_stealing_queues_sized_by_bind(self):
        def entry(i):
            return QueueEntry(Job(index=i, kind=JobKind.MULT), 1.0, i)

        with pytest.raises(RuntimeError, match="bind"):
            WorkStealingScheduler().enqueue(entry(0))
        scheduler = WorkStealingScheduler()
        scheduler.bind(3)
        for i in range(3):
            scheduler.enqueue(entry(i))
        # The round-robin spray gives each coprocessor its own entry.
        assert [scheduler.next_entry(c, 0.0).job.index
                for c in range(3)] == [0, 1, 2]
        assert len(scheduler) == 0


class TestBatching:
    def test_batch_amortizes_arm_setup(self, cost):
        batcher = DmaBatcher(cost, BatchPolicy(max_jobs=8))
        k = 8
        singles = k * cost.job_seconds(JobKind.MULT)
        entries = [
            QueueEntry(job=Job(index=i, kind=JobKind.MULT),
                       cost_seconds=0.0, seq=i) for i in range(k)
        ]
        batched = batcher.service_seconds(entries)
        # Singles pay one Arm setup per polynomial (6 per Mult); the
        # train pays one per direction.
        assert singles - batched == \
            pytest.approx((6 * k - 2) * cost.dma.arm_setup_seconds)

    def test_single_job_batch_matches_table1_cost(self, cost):
        batcher = DmaBatcher(cost)
        entry = QueueEntry(job=Job(index=0, kind=JobKind.MULT),
                           cost_seconds=0.0, seq=0)
        assert batcher.service_seconds([entry]) == \
            pytest.approx(cost.job_seconds(JobKind.MULT))

    def test_batched_runtime_beats_unbatched_on_backlog(self, cost):
        # 128 jobs = 16 full trains of 8, 8 per coprocessor: the
        # comparison measures setup amortisation, not packing remainder.
        jobs = mult_stream(128)
        plain = ServingRuntime(cost).run(jobs)
        batched = ServingRuntime(cost, batching=BatchPolicy(max_jobs=8)).run(jobs)
        assert batched.makespan_seconds < plain.makespan_seconds
        trains = Counter((r.coprocessor, r.start_seconds)
                         for r in batched.results)
        assert len(batched.results) / len(trains) > 1.5

    def test_batching_moves_the_add_knee(self, cost):
        """Add is transfer-bound (26 us of compute on ~540 us of DMA), so
        descriptor trains buy capacity: an Add stream offered at 1.08x
        the unbatched service rate diverges alone and keeps up in
        trains of up to 8."""
        capacity = (cost.config.num_coprocessors
                    / cost.job_seconds(JobKind.ADD))
        jobs = poisson_stream(1.08 * capacity, 1.0, kind=JobKind.ADD,
                              seed=23)
        plain = ServingRuntime(cost).run(jobs)
        batched = ServingRuntime(cost, batching=BatchPolicy(max_jobs=8)).run(jobs)
        assert batched.latency_summary().p99 < plain.latency_summary().p99
        assert batched.throughput_per_second() > \
            plain.throughput_per_second()

    def test_batching_ceiling_above_analytic_throughput(self, cost):
        """Always-full trains of 8 on every coprocessor beat the
        unbatched saturated Mult/s."""
        batcher = DmaBatcher(cost, BatchPolicy(max_jobs=8))
        train = [QueueEntry(job=Job(index=i, kind=JobKind.MULT),
                            cost_seconds=0.0, seq=i) for i in range(8)]
        ceiling = (cost.config.num_coprocessors * len(train)
                   / batcher.service_seconds(train))
        assert ceiling > cost.mult_throughput_per_second()

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_jobs=0)

    def test_batching_never_serializes_free_coprocessors(self, cost):
        """Two simultaneous jobs on two free coprocessors must run in
        parallel even with an aggressive batch policy."""
        report = ServingRuntime(
            cost, batching=BatchPolicy(max_jobs=4)).run(mult_stream(2))
        assert {r.coprocessor for r in report.results} == {0, 1}
        assert report.makespan_seconds == \
            pytest.approx(cost.job_seconds(JobKind.MULT))


class TestTenantsAndAdmission:
    def test_queue_depth_cap_rejects(self, cost):
        tenants = TenantSet.of(Tenant("capped", max_queue_depth=4))
        jobs = [Job(index=i, kind=JobKind.MULT, tenant="capped")
                for i in range(30)]
        report = ServingRuntime(cost, tenants=tenants).run(jobs)
        assert report.rejected
        assert all(r.reason == "queue-depth" for r in report.rejected)
        check_invariants(report, jobs)

    def test_deadline_admission_rejects_dead_on_arrival(self, cost):
        tenants = TenantSet.of(Tenant("tight", sla_seconds=0.02))
        jobs = [Job(index=i, kind=JobKind.MULT, tenant="tight")
                for i in range(40)]
        report = ServingRuntime(cost, tenants=tenants).run(jobs)
        reasons = {r.reason for r in report.rejected}
        assert reasons == {"deadline"}
        # Admitted jobs were all completable within the deadline model's
        # optimistic estimate, so violations stay rare.
        assert len(report.results) + len(report.rejected) == 40

    def test_sla_violations_counted(self, cost):
        tenants = TenantSet.of(Tenant("strict", sla_seconds=1e-6))
        jobs = [Job(index=0, kind=JobKind.ADD, tenant="strict")]
        report = ServingRuntime(cost, tenants=tenants).run(jobs)
        if report.results:
            assert report.sla_violations == len(report.results)

    def test_unknown_tenant_gets_defaults(self):
        tenants = TenantSet()
        t = tenants.get("anyone")
        assert t.weight == 1.0
        assert t.sla_seconds is None and t.max_queue_depth is None

    def test_tenant_validation(self):
        with pytest.raises(ValueError):
            Tenant("bad", weight=0.0)
        with pytest.raises(ValueError):
            Tenant("bad", sla_seconds=-1.0)


class TestTelemetry:
    def test_percentiles(self):
        summary = LatencySummary.of([float(i) for i in range(1, 101)])
        assert summary.p50 == pytest.approx(50.5)
        assert summary.p95 == pytest.approx(95.05)
        assert summary.p99 == pytest.approx(99.01)
        assert summary.mean == pytest.approx(50.5)
        assert summary.max == 100.0

    def test_latency_summary_of_empty(self):
        summary = LatencySummary.of([])
        assert summary.count == 0 and summary.p99 == 0.0

    def test_utilization_saturated(self, cost):
        report = ServingRuntime(cost).run(mult_stream(60))
        util = report.utilization()
        assert len(util) == CONFIG.num_coprocessors
        assert all(0.95 <= u <= 1.0 for u in util)

    def test_queue_depth_trace_and_mean(self, cost):
        report = ServingRuntime(cost).run(mult_stream(30))
        trace = report.queue_depth_trace
        times = [t for t, _ in trace]
        deepest = max(d for _, d in trace)
        assert times == sorted(times)
        assert deepest >= 1
        # Time-weighted mean depth over the sampled span.
        area = sum(d0 * (t1 - t0)
                   for (t0, d0), (t1, _) in zip(trace, trace[1:]))
        assert 0.0 < area / (times[-1] - times[0]) <= deepest


class TestPoissonStreamEdges:
    def test_rate_just_above_zero_yields_no_jobs_in_window(self):
        # Mean inter-arrival 1e6 s >> 1 s duration: empty with near
        # certainty for any seed, and must not loop forever.
        assert poisson_stream(1e-6, 1.0, seed=0) == []

    def test_duration_shorter_than_first_gap(self):
        # With rate 1 job/s a 1 ms window almost surely sees nothing.
        jobs = poisson_stream(1.0, 1e-3, seed=42)
        assert jobs == []

    def test_determinism_across_calls(self):
        a = poisson_stream(200.0, 0.5, seed=7)
        b = poisson_stream(200.0, 0.5, seed=7)
        assert [(j.index, j.arrival_seconds) for j in a] == \
            [(j.index, j.arrival_seconds) for j in b]

    def test_seeds_differ(self):
        a = poisson_stream(200.0, 0.5, seed=1)
        b = poisson_stream(200.0, 0.5, seed=2)
        assert [j.arrival_seconds for j in a] != \
            [j.arrival_seconds for j in b]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            poisson_stream(0.0, 1.0)
        with pytest.raises(ValueError):
            poisson_stream(1.0, 0.0)

    @settings(max_examples=20, deadline=None)
    @given(rate=st.floats(10.0, 1000.0), seed=st.integers(0, 100))
    def test_arrivals_sorted_and_in_window(self, rate, seed):
        jobs = poisson_stream(rate, 0.25, seed=seed)
        times = [j.arrival_seconds for j in jobs]
        assert times == sorted(times)
        assert all(0.0 < t < 0.25 for t in times)
        assert [j.index for j in jobs] == list(range(len(jobs)))


class TestMultiTenantStream:
    def test_multi_tenant_stream_tags_and_order(self):
        jobs = multi_tenant_stream({"a": 100.0, "b": 50.0}, 1.0, seed=0)
        assert {j.tenant for j in jobs} == {"a", "b"}
        times = [j.arrival_seconds for j in jobs]
        assert times == sorted(times)
        assert [j.index for j in jobs] == list(range(len(jobs)))
        counts = {t: sum(j.tenant == t for j in jobs) for t in "ab"}
        assert counts["a"] > counts["b"]

    def test_multi_tenant_stream_needs_tenants(self):
        with pytest.raises(ValueError):
            multi_tenant_stream({}, 1.0)


class TestLatencyUnderLoad:
    def test_latency_diverges_past_service_rate(self, cost):
        """The queueing signature, for every policy: p99 stays within a
        few service times below rho = 1 and explodes once rho > 1."""
        capacity = cost.mult_throughput_per_second()
        streams = {rho: poisson_stream(rho * capacity, 1.0, seed=13)
                   for rho in (0.5, 1.4)}
        for policy in ALL_POLICIES:
            p99 = {rho: ServingRuntime(cost, scheduler=make_scheduler(policy))
                   .run(jobs).latency_summary().p99
                   for rho, jobs in streams.items()}
            assert p99[0.5] < 10 * cost.job_seconds(JobKind.MULT), policy
            assert p99[1.4] > 10 * p99[0.5], policy


class TestClosedLoopClients:
    """The think-time client model (ROADMAP PR 1 follow-up)."""

    def test_population_self_regulates(self, cost):
        from repro.system.workloads import ClosedLoopClients

        throughput = {}
        for clients in (2, 64):
            runtime = ServingRuntime(cost)
            result = ClosedLoopClients(clients, 0.05, seed=5).drive(
                runtime, duration_seconds=1.0)
            report = result.report
            # Closed loop: every submitted job completes (no rejection
            # path configured), and nothing is lost.
            assert len(report.results) == result.submitted
            assert result.completed == result.submitted
            assert result.rejected == 0
            throughput[clients] = report.throughput_per_second()
        # More clients -> more throughput, capped by board capacity.
        assert throughput[64] > 2 * throughput[2]
        assert throughput[64] <= cost.mult_throughput_per_second() * 1.01

    def test_clients_submit_mults(self, cost):
        from repro.system.workloads import ClosedLoopClients

        result = ClosedLoopClients(3, 0.01, num_tenants=2, seed=4).drive(
            ServingRuntime(cost), duration_seconds=0.1)
        jobs = [r.job for r in result.report.results]
        assert jobs and {j.kind for j in jobs} == {JobKind.MULT}
        assert {j.tenant for j in jobs} == {tenant_name(0), tenant_name(1)}

    def test_small_population_tracks_interactive_law(self, cost):
        """N clients with think Z and service S complete roughly
        duration * N / (Z + S) jobs while the server is unsaturated."""
        from repro.system.workloads import ClosedLoopClients

        think = 0.05
        clients = 4
        runtime = ServingRuntime(cost)
        result = ClosedLoopClients(clients, think, seed=7).drive(
            runtime, duration_seconds=2.0)
        service = cost.job_seconds(JobKind.MULT)
        expected = 2.0 * clients / (think + service)
        assert 0.5 * expected < result.completed < 1.5 * expected

    def test_at_most_one_outstanding_job_per_client(self, cost):
        from repro.system.workloads import ClosedLoopClients

        runtime = ServingRuntime(cost)
        result = ClosedLoopClients(3, 0.0, seed=1).drive(
            runtime, duration_seconds=0.2)
        # Zero think time: a client's next arrival is its previous
        # completion; per-client arrivals must be >= one service apart.
        per_client: dict[int, list] = {}
        for r in result.report.results:
            per_client.setdefault(r.job.request, []).append(r)
        assert set(per_client) == {0, 1, 2}
        service = cost.job_seconds(JobKind.MULT)
        for results in per_client.values():
            times = sorted(r.job.arrival_seconds for r in results)
            gaps = [b - a for a, b in zip(times, times[1:], strict=False)]
            assert all(gap >= service * 0.999 for gap in gaps)

    def test_validation(self):
        from repro.system.workloads import ClosedLoopClients

        with pytest.raises(ValueError):
            ClosedLoopClients(0, 0.1)
        with pytest.raises(ValueError):
            ClosedLoopClients(1, -0.1)
        with pytest.raises(ValueError):
            ClosedLoopClients(1, 0.1, num_tenants=0)
        with pytest.raises(ValueError):
            ClosedLoopClients(1, 0.1).drive(None, 0.0)


class TestServeCli:
    def test_serve_prints_every_policy_and_closed_loop_row(self, capsys):
        from repro.cli import main
        from repro.serve import default_schedulers

        assert main(["serve"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        policies = [scheduler.name for scheduler in default_schedulers()]
        policy_rows = [row for row in rows if row and row[0] in policies]
        assert [row[0] for row in policy_rows] == policies
        assert all(len(row) == 8 for row in policy_rows)
        header = rows.index(["clients", "done", "tput/s", "p50", "ms", "p99",
                             "ms", "util"])
        closed = rows[header + 1:header + 5]
        assert [int(row[0]) for row in closed] == [4, 16, 64, 256]
        assert all(int(row[1]) > 0 for row in closed)
