"""Command-line interface: regenerate the paper's experiments.

Usage (installed as ``python -m repro``):

    python -m repro list                 # available experiments
    python -m repro table1               # Table I rows
    python -m repro table2               # Table II instruction timings
    python -m repro table3               # Table III DMA comparison
    python -m repro table4               # Table IV resources
    python -m repro table5               # Table V scaling
    python -m repro fig3                 # Fig. 3 access pattern
    python -m repro headline             # 400 Mult/s + 13x speedup
    python -m repro noise                # analytic depth budget
    python -m repro serve                # multi-tenant serving runtime
    python -m repro cluster --shards 8   # multi-FPGA shard layer
    python -m repro program              # HE program on both executors
    python -m repro trace lookup         # Perfetto timelines + metrics
    python -m repro trace matmul         # encrypted matmul, optimised
    python -m repro all                  # everything above

``program`` and ``trace`` run captured graphs through the
:mod:`repro.optim` pass stack and print its report; pass
``--no-optimize`` for raw lowering.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .fv.noise_model import NoiseModel
from .hw.config import ARM_CLOCK_HZ, HardwareConfig
from .hw.isa import Opcode
from .hw.resources import ResourceEstimator
from .hw.scaling import scaling_table
from .hw.trace import render_fig3
from .parallel import EXECUTOR_MODES, use_executor
from .params import hpca19
from .system.related_work import PAPER_RECORD, paper_rows
from .system.server import CostModel
from .system.workloads import JobKind


def _print_header(title: str) -> None:
    print()
    print(title)
    print("=" * len(title))


def cmd_table1(args: argparse.Namespace) -> None:
    _print_header("Table I — high-level operations (one coprocessor)")
    config = HardwareConfig()
    cost = CostModel(hpca19(), config)

    def ms(arm_cycles: float) -> float:
        return arm_cycles / ARM_CLOCK_HZ * 1e3

    print(f"{'operation':<24}{'ours (ms)':>12}{'paper (ms)':>12}")
    for row in paper_rows("Table I"):
        print(f"{row.label:<24}{ms(row.model()):>12.3f}{ms(row.paper):>12.3f}")
    # Every job kind the simulator prices: its compiled program's census
    # and the sum of its instructions' cycles (key streaming included).
    print()
    paper_ms = {JobKind.MULT: ms(PAPER_RECORD["Table I", "Mult in HW"].paper),
                JobKind.ADD: ms(PAPER_RECORD["Table I", "Add in HW"].paper)}
    censuses = {kind: cost.program(kind).opcode_histogram()
                for kind in JobKind}
    columns = [op for op in Opcode
               if any(op in census for census in censuses.values())]
    print(f"{'job kind':<10}"
          + "".join(f"{op.name:>{len(op.name) + 1}}" for op in columns)
          + f"{'FPGA cycles':>13}{'ours (ms)':>11}{'paper (ms)':>12}")
    for kind, census in censuses.items():
        seconds = cost.compute_seconds(kind)
        paper = f"{paper_ms[kind]:.3f}" if kind in paper_ms else "-"
        print(f"{kind.value:<10}"
              + "".join(f"{census.get(op, 0):>{len(op.name) + 1}}"
                        for op in columns)
              + f"{round(seconds * config.fpga_clock_hz):>13,}"
              f"{seconds * 1e3:>11.3f}{paper:>12}")


def cmd_table2(args: argparse.Namespace) -> None:
    _print_header("Table II — individual instructions (Arm cycles/call)")
    print(f"{'instruction':<22}{'ours':>10}{'paper':>10}{'delta':>8}")
    for row in paper_rows("Table II"):
        print(f"{row.label:<22}{row.model():>10,}{row.paper:>10,}"
              f"{row.error() * 100:>+7.1f}%")


def cmd_table3(args: argparse.Namespace) -> None:
    _print_header("Table III — data transfer techniques (Arm cycles)")
    print(f"{'technique':<28}{'ours':>10}{'paper':>10}")
    for row in paper_rows("Table III"):
        print(f"{row.label:<28}{row.model():>10,}{row.paper:>10,}")


def cmd_table4(args: argparse.Namespace) -> None:
    _print_header("Table IV — resource utilisation (ZCU102)")
    print(f"{'':<22}{'LUT':>10}{'FF':>10}{'BRAM36':>8}{'DSP':>6}")
    for design in ("two coprocs", "one coproc"):
        rows = [row for row in paper_rows("Table IV")
                if row.label.startswith(design)]
        for who, values in (("ours", [row.model() for row in rows]),
                            ("paper", [row.paper for row in rows])):
            print(f"{f'{design} ({who})':<22}"
                  + "".join(f"{value:>{width},}" for value, width
                            in zip(values, (10, 10, 8, 6), strict=True)))


def cmd_table5(args: argparse.Namespace) -> None:
    _print_header("Table V — scaling estimates (single coprocessor)")
    params = hpca19()
    config = HardwareConfig()
    cost = CostModel(params, config)
    base = ResourceEstimator(params, config).single_coprocessor()
    comm = cost.transfer_in_seconds() + cost.transfer_out_seconds()
    for point in scaling_table(base, cost.compute_seconds(JobKind.MULT),
                               comm):
        print(point.row())


def cmd_fig3(args: argparse.Namespace) -> None:
    _print_header("Fig. 3 — two-core NTT memory access pattern")
    print(render_fig3())


def cmd_headline(args: argparse.Namespace) -> None:
    _print_header("Headline — throughput, speedup, power")
    mults = PAPER_RECORD["headline", "Mult/s with two coprocessors"]
    baseline = PAPER_RECORD["Sec. VI-E", "FV-NFLlib Mult on the i5 (ms)"]
    speedup = PAPER_RECORD["headline", "speedup over FV-NFLlib on the i5"]
    power = PAPER_RECORD["headline", "peak power (W)"]
    add = PAPER_RECORD["Table I text", "Add in SW over Add in HW"]
    print(f"Mult/s with two coprocessors: {mults.model():6.0f}  "
          f"(paper: {mults.paper})")
    print(f"software baseline:            {baseline.model():6.1f} ms/Mult "
          f"(paper: {baseline.paper:g})")
    print(f"speedup:                      {speedup.model():6.1f}x "
          f"(paper: >{speedup.paper}x)")
    print(f"peak power:                   {power.model():6.1f} W  "
          f"(paper: {power.paper} W)")
    print(f"add speedup over Arm SW:      {add.model():6.0f}x "
          f"(paper: {add.paper}x)")


def cmd_noise(args: argparse.Namespace) -> None:
    _print_header("Analytic noise budget (paper Sec. II-A/III-A)")
    print(NoiseModel(hpca19()).report())


def cmd_serve(args: argparse.Namespace) -> None:
    _print_header("Serving runtime — multi-tenant discrete-event simulation")
    from .serve import (
        BatchPolicy,
        ServingRuntime,
        Tenant,
        TenantSet,
        WeightedFairScheduler,
        default_schedulers,
    )
    from .system.workloads import (
        merge_streams,
        multi_tenant_stream,
        poisson_stream,
    )

    params = hpca19()
    cost = CostModel(params, HardwareConfig())
    capacity = cost.mult_throughput_per_second()
    tenants = TenantSet.of(
        Tenant("gold", weight=3.0, sla_seconds=0.5),
        Tenant("silver", weight=1.0),
        Tenant("free", weight=0.5, max_queue_depth=16),
    )
    # Mults from gold/free at ~1.2x the service rate, plus a stream of
    # cheap Adds from silver — mixed costs separate the policies.
    mults = multi_tenant_stream(
        {"gold": 0.8 * capacity, "free": 0.4 * capacity},
        duration_seconds=2.0, seed=7,
    )
    adds = poisson_stream(0.5 * capacity, 2.0, kind=JobKind.ADD,
                          seed=11, tenant="silver")
    workload = merge_streams(mults, adds)
    print(f"capacity {capacity:.0f} Mult/s; offered over 2 s: "
          f"{len(mults)} Mults + {len(adds)} Adds from 3 tenants\n")
    print(f"{'policy':<8}{'done':>6}{'rej':>6}{'tput/s':>9}"
          f"{'p50 ms':>9}{'p99 ms':>9}{'util':>7}{'SLA miss':>10}")
    wfq_report = None
    for scheduler in default_schedulers():
        runtime = ServingRuntime(cost, scheduler=scheduler, tenants=tenants,
                                 batching=BatchPolicy(max_jobs=4))
        report = runtime.run(workload)
        if isinstance(scheduler, WeightedFairScheduler):
            wfq_report = report
        latency = report.latency_summary()
        util = sum(report.utilization()) / len(report.utilization())
        print(f"{scheduler.name:<8}{len(report.results):>6}"
              f"{len(report.rejected):>6}"
              f"{report.throughput_per_second():>9.0f}"
              f"{latency.p50 * 1e3:>9.2f}{latency.p99 * 1e3:>9.2f}"
              f"{util:>7.0%}{report.sla_violations:>10}")
    print("\nper-tenant p99 under WFQ (weights 3/1/0.5):")
    for name in sorted(tenants.tenants):
        print("  " + wfq_report.latency_summary(name).row(name))

    # -- closed-loop clients: offered load self-regulates --------------
    from .system.workloads import ClosedLoopClients

    think = 0.05
    print(f"\nclosed-loop clients (think time {think * 1e3:.0f} ms, "
          f"1 s window) — the interactive-system law:")
    print(f"{'clients':>8}{'done':>7}{'tput/s':>9}{'p50 ms':>9}"
          f"{'p99 ms':>9}{'util':>7}")
    for clients in (4, 16, 64, 256):
        runtime = ServingRuntime(cost)
        result = ClosedLoopClients(clients, think, seed=3).drive(
            runtime, duration_seconds=1.0)
        report = result.report
        latency = report.latency_summary()
        print(f"{clients:>8}{len(report.results):>7}"
              f"{report.throughput_per_second():>9.0f}"
              f"{latency.p50 * 1e3:>9.2f}{latency.p99 * 1e3:>9.2f}"
              f"{report.mean_utilization():>7.0%}")


def cmd_cluster(args: argparse.Namespace) -> None:
    _print_header("Multi-FPGA cluster — sharded serving simulation")
    from dataclasses import replace

    from .cluster import FpgaCluster, TenantAffinityRouter, default_routers
    from .system.workloads import cluster_trace, saturated_tenant_jobs

    params = hpca19()
    shards = args.shards
    seed = args.seed
    single_capacity = FpgaCluster.homogeneous(
        params, 1).capacity_mults_per_second()

    # -- chaos mode: seeded fault plan + replicated tenants ------------
    if args.faults is not None:
        from .faults import FaultPlan, RetryPolicy

        replicas = 2 if args.replicas is None else args.replicas
        capacity = shards * single_capacity
        trace = cluster_trace(args.tenants, 0.6 * capacity,
                              args.duration, seed=seed)
        plan = FaultPlan.seeded(args.faults, shards, args.duration,
                                crashes=min(2, shards - 1) if shards > 1
                                else 0)
        cluster = FpgaCluster.homogeneous(
            params, shards, router=TenantAffinityRouter(),
            fault_plan=plan, retry=RetryPolicy(seed=seed),
            replicas=replicas)
        report = cluster.run(trace)
        latency = report.latency_summary()
        print(f"chaos run: {shards} boards, R={replicas} replication, "
              f"fault seed {args.faults}, {len(trace)} jobs at 60% "
              f"capacity over {args.duration:.1f} s")
        print(f"  completed {report.completed}, "
              f"rejected {len(report.rejected)}, "
              f"availability {report.availability * 100:.2f}%, "
              f"p99 {latency.p99 * 1e3:.2f} ms\n")
        print(report.failure.render())
        return

    # -- saturated throughput scaling under tenant-affinity routing --
    print(f"one board: {single_capacity:.0f} Mult/s "
          f"({HardwareConfig().num_coprocessors} coprocessors)\n")
    print("saturated scaling, tenant-affinity (rendezvous) routing:")
    print(f"{'shards':>7}{'tenants':>9}{'Mult/s':>9}{'scale':>8}"
          f"{'imbalance':>11}")
    counts = []
    n = 1
    while n < shards:
        counts.append(n)
        n *= 2
    counts.append(shards)  # always measure the requested size
    baseline = None
    for n in counts:
        jobs = saturated_tenant_jobs(256 * shards)
        cluster = FpgaCluster.homogeneous(
            params, n, router=TenantAffinityRouter())
        report = cluster.run(jobs)
        tput = report.throughput_per_second()
        if baseline is None:
            baseline = tput
        print(f"{n:>7}{256 * shards:>9}{tput:>9.0f}"
              f"{tput / baseline:>7.2f}x{report.imbalance():>11.3f}")

    # -- routing policies on a skewed open-loop trace --
    if args.hetero:
        fast = HardwareConfig()
        slow = replace(fast, butterfly_cores_per_rpau=1)
        configs = [fast if i % 2 == 0 else slow for i in range(shards)]

        def build(router):
            return FpgaCluster.heterogeneous(params, configs,
                                             router=router)

        capacity = build(None).capacity_mults_per_second()
        flavour = "heterogeneous (alternating 2/1 butterfly cores)"
    else:
        def build(router):
            return FpgaCluster.homogeneous(params, shards, router=router)

        capacity = shards * single_capacity
        flavour = "homogeneous"
    trace = cluster_trace(args.tenants, 0.8 * capacity, args.duration,
                          seed=seed)
    print(f"\nrouting policies, {flavour} x{shards}, Zipf(1.1) trace of "
          f"{len(trace)} jobs at 80% capacity over {args.duration:.1f} s:")
    print(f"{'router':<12}{'done':>7}{'rej':>6}{'reroute':>8}"
          f"{'tput/s':>8}{'p50 ms':>9}{'p99 ms':>9}{'imbal':>8}")
    for router in default_routers(seed=seed):
        report = build(router).run(trace)
        latency = report.latency_summary()
        print(f"{router.name:<12}{report.completed:>7}"
              f"{len(report.rejected):>6}{report.reroutes:>8}"
              f"{report.throughput_per_second():>8.0f}"
              f"{latency.p50 * 1e3:>9.2f}{latency.p99 * 1e3:>9.2f}"
              f"{report.imbalance():>8.3f}")
    print("\n(pure affinity keeps every tenant's DMA trains on one board "
          "but a hot tenant\n can swamp its shard; bounded-load affinity "
          "spills just enough to cap p99.)")

    # -- closed-loop clients against the whole cluster -----------------
    from .system.workloads import ClosedLoopClients

    think = 0.05
    clients = 64 * shards
    cluster = build(TenantAffinityRouter())
    result = ClosedLoopClients(clients, think, num_tenants=32 * shards,
                               seed=seed).drive(cluster, 0.5)
    report = result.report
    latency = report.latency_summary()
    print(f"\nclosed-loop: {clients} clients "
          f"(think {think * 1e3:.0f} ms) on affinity routing: "
          f"{report.completed} done, "
          f"{report.throughput_per_second():.0f} jobs/s, "
          f"p99 {latency.p99 * 1e3:.2f} ms, "
          f"imbalance {report.imbalance():.3f}")


def cmd_program(args: argparse.Namespace) -> None:
    _print_header("HE programs — one graph, two executors")
    from .api import LocalBackend, Session, SimulatedBackend
    from .apps.lookup import EncryptedLookupTable
    from .cluster.routing import TenantAffinityRouter
    from .params import mini

    params = mini(t=257)
    session = Session(params, seed=13)
    table = [13, 42, 7, 99, 1, 64, 250, 8, 77, 31, 5, 190, 2, 120, 55, 86]
    server = EncryptedLookupTable(session, table)
    index = 6
    program = server.lookup_program(server.encrypt_index(index))
    static = program.static_noise_bits()["out"]
    print(f"program {program.name!r}: {program.num_ops} ops, "
          f"depth {program.depth}, static worst-case budget "
          f"{static:.1f} bits")

    # Executor 1: the functional FV evaluator (real ciphertexts).
    local = LocalBackend(session)
    result = local.run(program)
    value = int(result.decrypt("out")[0])
    status = "OK" if value == table[index] else "WRONG"
    print(f"LocalBackend: lookup(index={index}) -> {value} "
          f"(expected {table[index]}, {status}; measured budget "
          f"{result.noise_budget_bits('out'):.1f} bits)")
    counts = local.last_transform_counts
    print(f"row transforms: {counts['forward_rows']} forward, "
          f"{counts['inverse_rows']} inverse")

    # Executor 2: the same program object through the simulated cluster.
    shards = args.shards
    backend = SimulatedBackend.over_cluster(
        params, shards, router_factory=TenantAffinityRouter)
    lowered = backend.lower(program)
    per_request = lowered.independent_seconds()
    capacity = shards * backend.cost.config.num_coprocessors / per_request
    print(f"\nSimulatedBackend: {shards} boards, "
          f"~{capacity:.0f} requests/s ceiling "
          f"({len(lowered.ops)} jobs per request, "
          f"{per_request * 1e3:.2f} ms service each)")
    print(f"{'rate/s':>8}{'done':>7}{'req/s':>8}{'p50 ms':>9}"
          f"{'p95 ms':>9}{'p99 ms':>9}")
    for rho in (0.3, 0.6, 0.9):
        run = backend.run(program, requests=args.requests,
                          rate_per_second=rho * capacity,
                          num_tenants=16 * shards, seed=args.seed)
        latency = run.latency_summary()
        print(f"{rho * capacity:>8.0f}{len(run.completed):>7}"
              f"{run.requests_per_second():>8.0f}"
              f"{latency.p50 * 1e3:>9.2f}{latency.p95 * 1e3:>9.2f}"
              f"{latency.p99 * 1e3:>9.2f}")
    print("\n(same HEProgram object both times: the facade decides "
          "whether a graph\n becomes ciphertext math or a priced job "
          "stream on the shard cluster.)")

    if not args.optimize:
        return
    from .optim import optimize_program

    _, lookup_report = optimize_program(program)
    print()
    print(lookup_report.render())

    # -- the optimiser's motivating workload: encrypted matmul ---------
    _print_header("Encrypted matmul — the optimiser pass stack")
    from .apps.matmul import EncryptedMatmul

    bparams = mini(t=65537)         # t = 1 mod 2n: slot batching
    msession = Session(bparams, seed=29)
    matmul = EncryptedMatmul(msession, block_slots=4)
    a = [[1, 2, 3, 4, 5, 6, 7, 8], [2, 0, 1, 3, 5, 2, 4, 1]]
    b = [[1, 2], [0, 1], [3, 1], [1, 0],
         [2, 2], [1, 1], [0, 3], [2, 1]]
    mprogram = matmul.matmul_program(matmul.encrypt_rows(a),
                                     matmul.encrypt_cols(b))
    optimized, report = optimize_program(mprogram)
    print(f"2x8 @ 8x2, blocks of {matmul.block_slots} slots: "
          f"{mprogram.num_ops} ops, depth {mprogram.depth}")
    print()
    print(report.render())
    mresult = LocalBackend(msession).run(optimized)
    reference = EncryptedMatmul.reference(a, b, bparams.t)
    got = [
        [matmul.decrypt_entry(mresult.handle(f"c{i}_{j}"))
         for j in range(len(reference[0]))]
        for i in range(len(reference))
    ]
    status = "OK" if got == reference else f"WRONG (expected {reference})"
    print(f"LocalBackend (optimised program): C = {got} ({status})")
    raw = SimulatedBackend.over_runtime(bparams).lower(mprogram)
    opt = SimulatedBackend.over_runtime(bparams,
                                        optimize=True).lower(mprogram)
    saved = 1 - opt.keyswitch_ops() / raw.keyswitch_ops()
    print(f"SimulatedBackend: keyswitch ops {raw.keyswitch_ops()} -> "
          f"{opt.keyswitch_ops()} ({saved:.0%} saved), request service "
          f"{raw.independent_seconds() * 1e3:.2f} -> "
          f"{opt.independent_seconds() * 1e3:.2f} ms, critical path "
          f"{opt.critical_path_seconds() * 1e3:.2f} ms")


def cmd_trace(args: argparse.Namespace) -> None:
    _print_header("Observability — request traces, timelines, registry")
    from pathlib import Path

    from .api import LocalBackend, Session, SimulatedBackend
    from .obs import (
        render_prometheus,
        scoped_metrics,
        spans_to_chrome,
        write_chrome_trace,
    )
    from .params import mini

    app = args.app or "lookup"
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Matmul packs values element-wise into slots, so it needs a
    # batching plaintext modulus (t = 1 mod 2n).
    params = mini(t=65537) if app == "matmul" else mini(t=257)
    session = Session(params, seed=13)
    if app == "lookup":
        from .apps.lookup import EncryptedLookupTable

        table = [13, 42, 7, 99, 1, 64, 250, 8,
                 77, 31, 5, 190, 2, 120, 55, 86]
        server = EncryptedLookupTable(session, table)
        program = server.lookup_program(server.encrypt_index(6))
    elif app == "matmul":
        from .apps.matmul import EncryptedMatmul

        matmul = EncryptedMatmul(session, block_slots=4)
        a = [[1, 2, 3, 4, 5, 6, 7, 8], [2, 0, 1, 3, 5, 2, 4, 1]]
        b = [[1, 2], [0, 1], [3, 1], [1, 0],
             [2, 2], [1, 1], [0, 3], [2, 1]]
        program = matmul.matmul_program(matmul.encrypt_rows(a),
                                        matmul.encrypt_cols(b))
    else:  # a Mult-heavy balanced product tree
        leaves = [session.encrypt([i + 1, i + 2, i + 3, i + 4])
                  for i in range(4)]
        t0 = leaves[0] * leaves[1]
        t1 = leaves[2] * leaves[3]
        program = session.compile(t0 * t1 + t0, name="mult-tree")
    print(f"app {app!r}: {program.num_ops} ops, depth {program.depth}")
    if args.optimize:
        from .optim import optimize_program

        program, opt_report = optimize_program(program)
        print()
        print(opt_report.render())

    # The scoped registry isolates this command's counters, so the
    # exposition below shows exactly what these two runs recorded.
    with scoped_metrics() as registry:
        backend = LocalBackend(session)
        trace = backend.run(program).trace
        functional = write_chrome_trace(
            out_dir / f"{app}_functional.json",
            spans_to_chrome(trace.root,
                            process_name=f"{app} (functional)"),
        )
        simulated = SimulatedBackend.over_runtime(params)
        run = simulated.run(program, requests=args.requests, seed=args.seed)
        priced = write_chrome_trace(out_dir / f"{app}_simulated.json",
                                    run.timeline())

    print("\nper-op rollup (functional path, wall clock):")
    print(f"{'op':<12}{'count':>6}{'ms':>9}{'t-rows':>8}{'t-calls':>8}"
          f"{'bytes':>12}")
    for op, row in sorted(trace.rollup().items()):
        print(f"{op:<12}{row['count']:>6.0f}{row['seconds'] * 1e3:>9.2f}"
              f"{row['transform_rows']:>8.0f}"
              f"{row['transform_calls']:>8.0f}"
              f"{row['bytes_moved']:>12,.0f}")
    path = trace.critical_path()
    print(f"critical path: {len(path)} of {len(trace.op_spans())} ops, "
          f"{trace.critical_path_seconds() * 1e3:.2f} ms of "
          f"{trace.total_seconds * 1e3:.2f} ms wall")
    totals = trace.transform_totals()
    run_diff = {k: v for k, v in backend.last_transform_counts.items()
                if v}
    check = "OK" if totals == run_diff else f"MISMATCH vs {run_diff}"
    print(f"transform totals from op spans: {totals} ({check})")

    latency = run.latency_summary()
    print(f"\nsimulated path: {len(run.completed)} requests, "
          f"p50 {latency.p50 * 1e3:.2f} ms, "
          f"p99 {latency.p99 * 1e3:.2f} ms "
          f"(simulated clock, {len(run.trace().op_spans())} op spans)")
    print(f"\nChrome trace JSON (load in Perfetto / chrome://tracing):")
    print(f"  functional: {functional}")
    print(f"  simulated:  {priced}")
    print("\nPrometheus exposition of the run's metrics registry:")
    print(render_prometheus(registry).rstrip())


def cmd_security(args: argparse.Namespace) -> None:
    _print_header("Security placement (paper Sec. III-A, ref. [26])")
    from .params import mini, table5_large
    from .security import assess

    for params in (hpca19(), table5_large(), mini()):
        print(assess(params).report())
        print()


def cmd_verify(args: argparse.Namespace) -> None:
    _print_header("Hardware-vs-software equivalence campaign")
    from .hw.verification import run_configuration_matrix

    results = run_configuration_matrix()
    for result in results:
        print(result.report())
        print()
    if not all(result.passed for result in results):
        raise SystemExit(1)
    print("all configurations bit-exact.")


def cmd_sweep(args: argparse.Namespace) -> None:
    _print_header("Design-space sweeps (paper Sec. VII)")
    from .hw.sweeps import (
        sweep_butterfly_cores,
        sweep_conversion_cores,
        sweep_coprocessor_count,
    )

    params = hpca19()
    for title, points in (
        ("coprocessor instances", sweep_coprocessor_count(params)),
        ("conversion cores", sweep_conversion_cores(params)),
        ("butterfly cores", sweep_butterfly_cores(params)),
    ):
        print(f"-- {title} --")
        for point in points:
            print(point.row())
        print()


# Every command takes the parsed argparse namespace (most ignore it;
# `cluster` reads its --shards/--tenants/... group).
COMMANDS = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "table4": cmd_table4,
    "table5": cmd_table5,
    "fig3": cmd_fig3,
    "headline": cmd_headline,
    "noise": cmd_noise,
    "serve": cmd_serve,
    "cluster": cmd_cluster,
    "program": cmd_program,
    "trace": cmd_trace,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "security": cmd_security,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the HPCA'19 FV-accelerator experiments.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS) + ["all", "list"],
        help="which experiment to regenerate",
    )
    parser.add_argument(
        "app", nargs="?", choices=["lookup", "mult", "matmul"],
        help="application to trace (`trace` command only; "
             "default lookup)",
    )
    parser.add_argument(
        "--optimize", action=argparse.BooleanOptionalAction,
        default=True,
        help="run HE programs through the optimiser pass stack and "
             "print its report (`program`/`trace` commands; "
             "--no-optimize lowers the raw graph)",
    )
    parser.add_argument(
        "--out", default="traces",
        help="directory for exported Chrome trace JSON (default traces/)",
    )
    cluster_group = parser.add_argument_group(
        "cluster options",
        "used by `python -m repro cluster` and `python -m repro program`")
    cluster_group.add_argument("--shards", type=_positive_int, default=4,
                               help="number of FPGA boards (default 4)")
    cluster_group.add_argument("--requests", type=_positive_int,
                               default=200,
                               help="program executions per load point "
                                    "(default 200)")
    cluster_group.add_argument("--tenants", type=_positive_int,
                               default=192,
                               help="tenant population of the open-loop "
                                    "trace (default 192)")
    cluster_group.add_argument("--duration", type=float, default=1.0,
                               help="trace duration in simulated seconds")
    cluster_group.add_argument("--hetero", action="store_true",
                               help="alternate 2- and 1-butterfly-core "
                                    "boards")
    cluster_group.add_argument("--seed", type=int, default=0)
    cluster_group.add_argument("--faults", type=int, default=None,
                               metavar="SEED",
                               help="run the chaos scenario: a seeded "
                                    "fault plan (board kills, transient "
                                    "job failures, DMA stalls) and the "
                                    "failure report it produced")
    cluster_group.add_argument("--replicas", type=_positive_int,
                               default=None,
                               help="tenant key-state replication factor "
                                    "for the chaos scenario (default 2)")
    executor_group = parser.add_argument_group(
        "executor options",
        "multi-core execution of the functional engine for this run")
    executor_group.add_argument(
        "--executor", choices=list(EXECUTOR_MODES), default=None,
        help="execution strategy for functional FV math "
             "(default: serial)")
    executor_group.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker pool size for --executor threads "
             "(default: available cores, capped)")
    args = parser.parse_args(argv)
    if args.experiment == "list":
        for name in sorted(COMMANDS):
            print(name)
        return 0
    scope = nullcontext()
    if args.executor is not None:
        scope = use_executor(args.executor, args.workers)
    with scope as executor:
        if executor is not None:
            print(f"executor: {executor.name} x{executor.workers} "
                  f"({executor.blas.describe()})")
        if args.experiment == "all":
            for name in ("table1", "table2", "table3", "table4",
                         "table5", "fig3", "headline", "noise"):
                COMMANDS[name](args)
            return 0
        COMMANDS[args.experiment](args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
