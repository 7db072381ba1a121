"""Chaos bench: kill a board mid-run and measure what the tail pays.

The fault-tolerance headline for the cluster extension: an 8-board
fleet at ~60% of saturated capacity, tenant keys replicated to R=2
boards, takes a board kill at 40% of the run (recovering at 80%) and
must come out the other side with

* **zero accepted-job loss** — every offered job appears in exactly
  one result or reasoned rejection, and the retry path re-lands every
  spilled job (``FailureReport.jobs_lost == 0``);
* **availability >= 99%** over the whole window; and
* **p99 latency inflated by less than 3x** against a fault-free twin
  of the same trace on the same fleet.

Set ``REPRO_BENCH_FAST=1`` (the CI fault-smoke job does) for a short
trace; the result file records which mode produced it.
"""

import os

from conftest import save_result

from repro.cluster import FpgaCluster, ReplicatedPlacement, \
    TenantAffinityRouter
from repro.faults import FaultPlan, RetryPolicy
from repro.system.workloads import cluster_trace, zipf_tenant_rates

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
MODE = "fast" if FAST else "full"
SHARDS = 8
REPLICAS = 2
DURATION_SECONDS = 0.25 if FAST else 1.0
LOAD_FRACTION = 0.6
TENANTS = 64 if FAST else 128
SEED = 2019


def _cluster(paper_params, plan):
    return FpgaCluster.homogeneous(
        paper_params, SHARDS, router=TenantAffinityRouter(),
        fault_plan=plan, retry=RetryPolicy(seed=SEED), replicas=REPLICAS)


def _check_conservation(report, jobs):
    offered = {job.index for job in jobs}
    landed = sorted([r.job.index for shard in report.shard_reports
                     for r in shard.results]
                    + [r.job.index for shard in report.shard_reports
                       for r in shard.rejected]
                    + [r.job.index for r in report.rejected])
    assert landed == sorted(offered), "a job was lost or duplicated"


def test_board_kill_chaos(benchmark, paper_params):
    """Mid-run board kill: zero loss, >=99% availability, <3x p99."""
    rate = LOAD_FRACTION * FpgaCluster.homogeneous(
        paper_params, SHARDS).capacity_mults_per_second()
    jobs = cluster_trace(TENANTS, rate, DURATION_SECONDS, skew=1.1,
                         seed=SEED)
    # Kill the board the Zipf head pins to — the worst-case victim:
    # its queue is the deepest in the fleet when the crash lands.
    rates = zipf_tenant_rates(TENANTS, rate, 1.1)
    placement = ReplicatedPlacement(
        [f"shard{i}" for i in range(SHARDS)], REPLICAS)
    victim = placement.primary(max(rates, key=rates.get))
    plan = FaultPlan.board_kill(
        victim, 0.4 * DURATION_SECONDS,
        recover_at=0.8 * DURATION_SECONDS)

    def run():
        clean = _cluster(paper_params, None).run(jobs)
        chaos = _cluster(paper_params, plan).run(jobs)
        return clean, chaos

    clean, chaos = benchmark.pedantic(run, rounds=1, iterations=1)
    _check_conservation(chaos, jobs)
    failure = chaos.failure
    p99_clean = clean.latency_summary().p99
    p99_chaos = chaos.latency_summary().p99
    inflation = p99_chaos / p99_clean if p99_clean else float("inf")

    lines = [
        f"EXTENSION — FAULT TOLERANCE: MID-RUN BOARD KILL ({MODE} mode)",
        f"{SHARDS} boards, R={REPLICAS} replication, "
        f"{LOAD_FRACTION:.0%} of capacity ({rate:.0f} jobs/s, "
        f"{len(jobs)} jobs over {DURATION_SECONDS:.2f}s), kill board "
        f"{victim} (the Zipf head's primary) at 40%, recover at 80%",
        "",
        f"{'':>24}{'fault-free':>12}{'board kill':>12}",
        f"{'completed':>24}{clean.completed:>12}{chaos.completed:>12}",
        f"{'availability':>24}{clean.availability:>12.4f}"
        f"{chaos.availability:>12.4f}",
        f"{'p99 latency (ms)':>24}{1e3 * p99_clean:>12.3f}"
        f"{1e3 * p99_chaos:>12.3f}",
        f"(p99 inflation {inflation:.2f}x; spilled "
        f"{failure.jobs_spilled}, retried {failure.jobs_retried}, "
        f"relocated {failure.jobs_relocated}, failovers "
        f"{failure.failovers}, rehydrations {failure.rehydrations}, "
        f"lost {failure.jobs_lost})",
        "",
        failure.render(),
    ]
    save_result("BENCH_fault_tolerance", "\n".join(lines))

    # Acceptance gates: no accepted job may vanish, the fleet stays
    # >=99% available through the outage, and the tail pays under 3x.
    assert failure.jobs_lost == 0
    assert failure.crashes == 1 and failure.recoveries == 1
    assert chaos.availability >= 0.99
    assert inflation < 3.0
