"""Command-line interface: regenerate the paper's experiments.

Usage (installed as ``python -m repro``):

    python -m repro list                 # available experiments
    python -m repro table1               # Table I rows + job-kind census
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
    python -m repro verify               # HW-vs-SW equivalence campaign
    python -m repro sweep                # design-space sweeps (Sec. VII)
    python -m repro security             # HE-standard security placement
    python -m repro all                  # the paper's artefacts

``all`` runs table1, table2, table3, table4, table5, fig3, headline and
noise, in that order.

The paper commands (``table1`` to ``table5`` and ``headline``) print
the rows of :data:`~repro.system.related_work.PAPER_RECORD`: the
model's value, the paper's and the relative error, in the record's
unit. ``program`` and ``trace`` run captured graphs through the
:mod:`repro.optim` pass stack and print its report; pass
``--no-optimize`` for raw lowering.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterable, Sequence
from contextlib import nullcontext
from typing import TYPE_CHECKING

from .fv.noise_model import NoiseModel
from .hw.config import HardwareConfig
from .hw.isa import Opcode
from .hw.resources import ResourceEstimator
from .hw.scaling import scaling_table
from .hw.trace import render_fig3
from .parallel import EXECUTOR_MODES, use_executor
from .params import hpca19
from .system.related_work import paper_rows
from .system.server import CostModel
from .system.workloads import JobKind

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .optim import OptimizationReport


def _print_header(title: str) -> None:
    print()
    print(title)
    print("=" * len(title))


def _table(columns: Sequence[tuple[str, str]],
           rows: Iterable[Sequence[object]]) -> None:
    """Print ``rows`` under a header line, one cell per column.

    A column is a header and the format spec of its cells. Each column
    is as wide as its widest cell, two spaces from the next, and
    right-aligned unless its spec starts with ``<``.
    """
    lines = [[header for header, _ in columns]]
    lines += [[format(value, spec)
               for value, (_, spec) in zip(row, columns, strict=True)]
              for row in rows]
    widths = [max(map(len, cells)) for cells in zip(*lines, strict=True)]
    for cells in lines:
        print("  ".join(
            cell.ljust(width) if spec.startswith("<") else cell.rjust(width)
            for cell, width, (_, spec)
            in zip(cells, widths, columns, strict=True)
        ).rstrip())


def _figure(value: float, paper: float) -> str:
    """A record value at the paper's precision: whole units from 100
    up, two decimals below."""
    return format(value, ",.0f" if paper >= 100 else ".2f")


#: The paper commands: a title and the PAPER_RECORD artefacts it shows.
_PAPER_VIEWS = {
    "table1": ("Table I — high-level operations (Arm cycles)",
               ("Table I",)),
    "table2": ("Table II — individual instructions (Arm cycles/call)",
               ("Table II",)),
    "table3": ("Table III — data transfer techniques (Arm cycles)",
               ("Table III",)),
    "table4": ("Table IV — resource utilisation (ZCU102)", ("Table IV",)),
    "table5": ("Table V — scaling estimates, single coprocessor (ms)",
               ("Table V",)),
    "headline": ("Headline — throughput, speedup, power",
                 ("headline", "Sec. VI-E", "Table I text")),
}


def _paper_view(command: str) -> None:
    title, artefacts = _PAPER_VIEWS[command]
    _print_header(title)
    _table((("", "<"), ("model", ""), ("paper", ""), ("error", "+.1%")),
           [(row.label, _figure(row.model(), row.paper),
             _figure(row.paper, row.paper), row.error())
            for artefact in artefacts for row in paper_rows(artefact)])


def _print_optimization(report: OptimizationReport) -> None:
    """The optimiser's totals, then one row per pass."""
    before, after = report.before, report.after
    print(f"optimiser report for {report.program_name!r} — "
          f"ops {before.num_ops} -> {after.num_ops}, "
          f"keyswitches {before.keyswitches} -> {after.keyswitches} "
          f"({report.keyswitch_reduction():.1%} saved), "
          f"depth {before.depth} -> {after.depth}")
    _table((("pass", "<"), ("rewrites", ""), ("ops", "<"),
            ("keyswitches", "<"), ("detail", "<")),
           [(p.name, p.rewrites, f"{p.before.num_ops} -> {p.after.num_ops}",
             f"{p.before.keyswitches} -> {p.after.keyswitches}",
             ", ".join(f"{k}={v}" for k, v in p.details.items()))
            for p in report.passes])


def cmd_table1(args: argparse.Namespace) -> None:
    _paper_view("table1")
    # Every job kind the simulator prices: its compiled program's census
    # and the sum of its instructions' cycles (key streaming included).
    config = HardwareConfig()
    cost = CostModel(hpca19(), config)
    censuses = {kind: cost.program(kind).opcode_histogram()
                for kind in JobKind}
    opcodes = [op for op in Opcode
               if any(op in census for census in censuses.values())]
    print()
    _table((("job kind", "<"), *((op.name, "") for op in opcodes),
            ("FPGA cycles", ","), ("ms", ".3f")),
           [(kind.value, *(census.get(op, 0) for op in opcodes),
             round(cost.compute_seconds(kind) * config.fpga_clock_hz),
             cost.compute_seconds(kind) * 1e3)
            for kind, census in censuses.items()])


def cmd_table5(args: argparse.Namespace) -> None:
    _paper_view("table5")
    params = hpca19()
    config = HardwareConfig()
    cost = CostModel(params, config)
    base = ResourceEstimator(params, config).single_coprocessor()
    comm = cost.transfer_in_seconds() + cost.transfer_out_seconds()
    print()
    _table((("(n, log2 q)", "<"), ("LUT", ","), ("FF", ","),
            ("BRAM36", ","), ("DSP", ",")),
           [(f"(2^{point.n.bit_length() - 1}, {point.log2_q})",
             point.resources.luts, point.resources.regs,
             point.resources.bram36, point.resources.dsps)
            for point in scaling_table(
                base, cost.compute_seconds(JobKind.MULT), comm)])


def cmd_fig3(args: argparse.Namespace) -> None:
    _print_header("Fig. 3 — two-core NTT memory access pattern")
    print(render_fig3())


def cmd_noise(args: argparse.Namespace) -> None:
    _print_header("Analytic noise budget (paper Sec. II-A/III-A)")
    params = hpca19()
    model = NoiseModel(params)
    threshold = model.decryption_threshold
    print(f"noise model for {params.name} (n={params.n}, "
          f"log2 q={params.log2_q}, t={params.t}, sigma={params.sigma})")
    print(f"decryption threshold: 2^{math.log2(threshold):.1f}")
    print(f"fresh noise bound:    2^{math.log2(model.fresh_bound()):.1f}")
    _table((("depth", ""), ("noise bound", ""), ("decrypts", "<")),
           [(depth, f"2^{math.log2(noise):.1f}",
             "ok" if noise < threshold else "FAIL")
            for depth, noise in enumerate(model._depth_walk(), 1)])
    print(f"supported depth (worst case): {model.supported_depth()}")


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
    rows = []
    for scheduler in default_schedulers():
        runtime = ServingRuntime(cost, scheduler=scheduler, tenants=tenants,
                                 batching=BatchPolicy(max_jobs=4))
        report = runtime.run(workload)
        if isinstance(scheduler, WeightedFairScheduler):
            wfq_report = report
        latency = report.latency_summary()
        rows.append((scheduler.name, len(report.results),
                     len(report.rejected), report.throughput_per_second(),
                     latency.p50 * 1e3, latency.p99 * 1e3,
                     sum(report.utilization()) / len(report.utilization()),
                     report.sla_violations))
    _table((("policy", "<"), ("done", ""), ("rej", ""), ("tput/s", ".0f"),
            ("p50 ms", ".2f"), ("p99 ms", ".2f"), ("util", ".0%"),
            ("SLA miss", "")), rows)
    print("\nper-tenant p99 under WFQ (weights 3/1/0.5):")
    tenant_latency = {name: wfq_report.latency_summary(name)
                      for name in sorted(tenants.tenants)}
    _table((("tenant", "<"), ("n", ""), ("p50 ms", ".2f"), ("p95 ms", ".2f"),
            ("p99 ms", ".2f"), ("max ms", ".2f")),
           [(name, s.count, s.p50 * 1e3, s.p95 * 1e3, s.p99 * 1e3,
             s.max * 1e3) for name, s in tenant_latency.items()])

    # -- closed-loop clients: offered load self-regulates --------------
    from .system.workloads import ClosedLoopClients

    think = 0.05
    print(f"\nclosed-loop clients (think time {think * 1e3:.0f} ms, "
          f"1 s window) — the interactive-system law:")
    rows = []
    for clients in (4, 16, 64, 256):
        runtime = ServingRuntime(cost)
        report = ClosedLoopClients(clients, think, seed=3).drive(
            runtime, duration_seconds=1.0).report
        latency = report.latency_summary()
        rows.append((clients, len(report.results),
                     report.throughput_per_second(), latency.p50 * 1e3,
                     latency.p99 * 1e3, report.mean_utilization()))
    _table((("clients", ""), ("done", ""), ("tput/s", ".0f"),
            ("p50 ms", ".2f"), ("p99 ms", ".2f"), ("util", ".0%")), rows)


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

        capacity = shards * single_capacity
        trace = cluster_trace(args.tenants, 0.6 * capacity,
                              args.duration, seed=seed)
        plan = FaultPlan.seeded(args.faults, shards, args.duration,
                                crashes=min(2, shards - 1) if shards > 1
                                else 0)
        cluster = FpgaCluster.homogeneous(
            params, shards, router=TenantAffinityRouter(),
            fault_plan=plan, retry=RetryPolicy(seed=seed),
            replicas=args.replicas)
        report = cluster.run(trace)
        latency = report.latency_summary()
        print(f"chaos run: {shards} boards, R={args.replicas} replication, "
              f"fault seed {args.faults}, {len(trace)} jobs at 60% "
              f"capacity over {args.duration:.1f} s")
        print(f"  completed {report.completed}, "
              f"rejected {len(report.rejected)}, "
              f"availability {report.availability * 100:.2f}%, "
              f"p99 {latency.p99 * 1e3:.2f} ms\n")
        failure = report.failure
        print(f"Failure report (plan seed: {failure.plan_seed})")
        _table((("fault ledger", "<"), ("count", "")), [
            ("crashes", failure.crashes),
            ("recoveries", failure.recoveries),
            ("transient job failures", failure.transient_failures),
            ("DMA stalls", failure.dma_stalls),
            ("jobs spilled", failure.jobs_spilled),
            ("jobs retried", failure.jobs_retried),
            ("jobs relocated", failure.jobs_relocated),
            ("jobs lost", failure.jobs_lost),
            ("key rehydrations", failure.rehydrations),
            ("tenant failovers", failure.failovers),
            ("tenants rebalanced", failure.rebalanced_tenants),
        ])
        if failure.downtime_by_shard:
            print()
            _table((("shard", "<"), ("downtime ms", ".2f")),
                   [(shard, downtime * 1e3) for shard, downtime
                    in sorted(failure.downtime_by_shard.items())])
        return

    # -- saturated throughput scaling under tenant-affinity routing --
    print(f"one board: {single_capacity:.0f} Mult/s "
          f"({HardwareConfig().num_coprocessors} coprocessors)\n")
    print("saturated scaling, tenant-affinity (rendezvous) routing:")
    counts = []
    n = 1
    while n < shards:
        counts.append(n)
        n *= 2
    counts.append(shards)  # always measure the requested size
    rows = []
    for n in counts:
        jobs = saturated_tenant_jobs(256 * shards)
        cluster = FpgaCluster.homogeneous(
            params, n, router=TenantAffinityRouter())
        report = cluster.run(jobs)
        tput = report.throughput_per_second()
        baseline = rows[0][2] if rows else tput
        rows.append((n, 256 * shards, tput, f"{tput / baseline:.2f}x",
                     report.imbalance()))
    _table((("shards", ""), ("tenants", ""), ("Mult/s", ".0f"),
            ("scale", ""), ("imbalance", ".3f")), rows)

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
    rows = []
    for router in default_routers(seed=seed):
        report = build(router).run(trace)
        latency = report.latency_summary()
        rows.append((router.name, report.completed, len(report.rejected),
                     report.reroutes, report.throughput_per_second(),
                     latency.p50 * 1e3, latency.p99 * 1e3,
                     report.imbalance()))
    _table((("router", "<"), ("done", ""), ("rej", ""), ("reroute", ""),
            ("tput/s", ".0f"), ("p50 ms", ".2f"), ("p99 ms", ".2f"),
            ("imbal", ".3f")), rows)
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
    rows = []
    for rho in (0.3, 0.6, 0.9):
        run = backend.run(program, requests=args.requests,
                          rate_per_second=rho * capacity,
                          num_tenants=16 * shards, seed=args.seed)
        latency = run.latency_summary()
        rows.append((rho * capacity, len(run.completed),
                     run.requests_per_second(), latency.p50 * 1e3,
                     latency.p95 * 1e3, latency.p99 * 1e3))
    _table((("rate/s", ".0f"), ("done", ""), ("req/s", ".0f"),
            ("p50 ms", ".2f"), ("p95 ms", ".2f"), ("p99 ms", ".2f")), rows)
    print("\n(same HEProgram object both times: the facade decides "
          "whether a graph\n becomes ciphertext math or a priced job "
          "stream on the shard cluster.)")

    if not args.optimize:
        return
    from .optim import optimize_program

    _, lookup_report = optimize_program(program)
    print()
    _print_optimization(lookup_report)

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
    _print_optimization(report)
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

    app = args.app
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
        _print_optimization(opt_report)

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
    _table((("op", "<"), ("count", ".0f"), ("ms", ".2f"), ("t-rows", ".0f"),
            ("t-calls", ".0f"), ("bytes", ",.0f")),
           [(op, row["count"], row["seconds"] * 1e3, row["transform_rows"],
             row["transform_calls"], row["bytes_moved"])
            for op, row in sorted(trace.rollup().items())])
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
        placed = assess(params)
        print(f"{placed.params_name}: n={placed.n}, "
              f"log2(q)={placed.log2_q}")
        print(f"  HE-standard 128-bit compliant: "
              f"{'yes' if placed.meets_128 else 'no'}")
        print(f"  heuristic classical estimate:  "
              f"~{placed.classical_bits_estimate:.0f} bits")
        print(f"  {placed.notes}\n")


def cmd_verify(args: argparse.Namespace) -> None:
    _print_header("Hardware-vs-software equivalence campaign")
    from .hw.verification import run_configuration_matrix

    results = run_configuration_matrix()
    _table((("configuration", "<"), ("status", "<"), ("ops", ""),
            ("bit-exact", ""), ("decrypted", ""), ("wall s", ".1f")),
           [(result.params_name, "PASS" if result.passed else "FAIL",
             result.operations, result.bit_exact_matches,
             result.decrypt_matches, result.wall_seconds)
            for result in results])
    for result in results:
        for failure in result.failures:
            print(f"{result.params_name}: {failure}")
    if not all(result.passed for result in results):
        raise SystemExit(1)
    print("\nall configurations bit-exact.")


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
        _table((("design point", "<"), ("Mult ms", ".2f"), ("Mult/s", ".0f"),
                ("LUT", ","), ("BRAM36", ""), ("DSP", "")),
               [(point.label, point.mult_seconds * 1e3,
                 point.throughput_per_second, point.resources.luts,
                 point.resources.bram36, point.resources.dsps)
                for point in points])
        print()


# Every command takes the parsed argparse namespace (most ignore it;
# `cluster` reads its --shards/--tenants/... group).
COMMANDS = {
    "table1": cmd_table1,
    "table2": lambda args: _paper_view("table2"),
    "table3": lambda args: _paper_view("table3"),
    "table4": lambda args: _paper_view("table4"),
    "table5": cmd_table5,
    "fig3": cmd_fig3,
    "headline": lambda args: _paper_view("headline"),
    "noise": cmd_noise,
    "serve": cmd_serve,
    "cluster": cmd_cluster,
    "program": cmd_program,
    "trace": cmd_trace,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "security": cmd_security,
}

#: What ``python -m repro all`` runs, in order.
_ALL = ("table1", "table2", "table3", "table4", "table5", "fig3",
        "headline", "noise")


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
        default="lookup",
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
                               default=2,
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
        for name in _ALL if args.experiment == "all" else (args.experiment,):
            COMMANDS[name](args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
