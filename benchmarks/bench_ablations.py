"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation flips one design decision of the paper and quantifies its
cost with the cycle model:

* twiddle ROM vs on-the-fly twiddles (the 20% bubble penalty, Sec. V-A4);
* two butterfly cores per RPAU vs one (the Fig. 3 dual-core scheme);
* relinearisation keys streamed vs pinned on-chip (the ~30% transfer
  share of Table I and the paper's 'larger FPGA' remark);
* sliding-window reduction vs Barrett (multiplier cost, Sec. V-A4).
"""

from dataclasses import replace

from conftest import save_result

from repro.hw.config import HardwareConfig
from repro.hw.modred import BarrettReducer, SlidingWindowReducer
from repro.hw.ntt_unit import DualCoreNttUnit
from repro.system.server import CloudServer, CostModel
from repro.system.workloads import JobKind

BASE = HardwareConfig()


def test_ablation_twiddle_rom(benchmark, paper_params):
    """Storing twiddles buys back the ~20% bubble loss of prior work."""
    prime = paper_params.q_primes[0]

    def cycle_pair():
        with_rom = DualCoreNttUnit(4096, prime, BASE).transform_cycles()
        without = DualCoreNttUnit(
            4096, prime, replace(BASE, twiddle_rom=False)
        ).transform_cycles()
        return with_rom, without

    with_rom, without = benchmark(cycle_pair)
    penalty = without / with_rom - 1
    save_result(
        "ablation_twiddle_rom",
        "ABLATION — TWIDDLE ROM (Sec. V-A4)\n"
        f"NTT with ROM:    {with_rom} FPGA cycles\n"
        f"NTT without ROM: {without} FPGA cycles "
        f"({penalty * 100:.1f}% bubble penalty; prior work [20] lost 20%)",
    )
    assert 0.10 < penalty < 0.25


def test_ablation_butterfly_cores(benchmark, paper_params):
    """The dual-core scheme nearly halves NTT latency."""
    prime = paper_params.q_primes[0]

    def cycle_pair():
        dual = DualCoreNttUnit(4096, prime, BASE).transform_cycles()
        single = DualCoreNttUnit(
            4096, prime, replace(BASE, butterfly_cores_per_rpau=1)
        ).transform_cycles()
        return dual, single

    dual, single = benchmark(cycle_pair)
    save_result(
        "ablation_butterfly_cores",
        "ABLATION — BUTTERFLY CORES PER RPAU (Sec. V-A2/V-A3)\n"
        f"two cores: {dual} FPGA cycles per NTT\n"
        f"one core:  {single} FPGA cycles per NTT "
        f"(speedup {single / dual:.2f}x of the ideal 2x)",
    )
    assert 1.5 < single / dual <= 2.0


def test_ablation_relin_key_placement(benchmark, paper_params):
    """Streaming the key costs ~25-30% of Mult; pinning removes it."""
    streamed = CloudServer(paper_params, BASE)
    pinned = CloudServer(paper_params,
                         replace(BASE, relin_key_on_chip=True))

    def mult_pair():
        return (streamed.mult_compute_seconds(),
                pinned.mult_compute_seconds())

    with_stream, with_pin = benchmark(mult_pair)
    share = 1 - with_pin / with_stream
    save_result(
        "ablation_relin_key",
        "ABLATION — RELINEARISATION KEY PLACEMENT (Table I discussion)\n"
        f"keys streamed from DDR: {with_stream * 1e3:.3f} ms per Mult\n"
        f"keys pinned on-chip:    {with_pin * 1e3:.3f} ms per Mult\n"
        f"transfer share removed: {share * 100:.0f}% (paper: ~30%)",
    )
    assert 0.15 < share < 0.40


def test_ablation_reduction_circuit(benchmark, paper_params):
    """Sliding-window reduction avoids Barrett's two extra multipliers
    at the price of a 64-entry ROM per prime."""
    prime = paper_params.q_primes[0]

    def build_both():
        sliding = SlidingWindowReducer(prime)
        barrett = BarrettReducer(prime)
        return sliding, barrett

    sliding, barrett = benchmark(build_both)
    save_result(
        "ablation_reduction",
        "ABLATION — MODULAR REDUCTION CIRCUIT (Sec. V-A4)\n"
        f"sliding window: {sliding.pipeline_stages} pipeline stages, "
        f"{sliding.table_entries}-entry ROM, 0 extra multipliers\n"
        f"Barrett:        {barrett.extra_multipliers} extra wide "
        "multipliers per butterfly (8 extra DSPs each)",
    )
    assert barrett.extra_multipliers == 2
    # Identical functional behaviour on a sample.
    for value in (0, 1, prime - 1, (prime - 1) ** 2):
        assert sliding.reduce(value) == barrett.reduce(value)


def test_ablation_rotation_cost(benchmark, paper_params):
    """Extension: what a Galois rotation costs on the paper's datapath.

    A rotation is two permutation passes plus a relin-shaped key switch;
    at the paper's parameter set it comes to ~0.5x a Mult, dominated by
    the same key streaming.
    """
    from repro.fv.encoder import BatchEncoder
    from repro.fv.galois import GaloisEngine, rotation_element
    from repro.fv.scheme import FvContext
    from repro.hw.coprocessor import Coprocessor
    from repro.params import hpca19

    params = hpca19(t=65537)
    context = FvContext(params, seed=7)
    keys = context.keygen()
    engine = GaloisEngine(context)
    galois_key = engine.keygen(keys.secret,
                               rotation_element(1, params.n))
    encoder = BatchEncoder(params)
    import numpy as np

    ct = context.encrypt(
        encoder.encode(np.arange(params.n) % params.t), keys.public
    )
    coprocessor = Coprocessor(params)

    def run_rotation():
        return coprocessor.rotate(ct, galois_key)

    result, report = benchmark.pedantic(run_rotation, rounds=1,
                                        iterations=1)
    _, mult_report = coprocessor.mult(ct, ct, keys.relin)
    # The served price of a ROTATE job is this executed report.
    assert report.seconds == \
        CostModel(params).compute_seconds(JobKind.ROTATE)
    ratio = report.total_cycles / mult_report.total_cycles
    save_result(
        "ablation_rotation",
        "EXTENSION — GALOIS ROTATION ON THE PAPER'S ISA\n"
        f"rotation: {report.seconds * 1e3:.3f} ms "
        f"({report.arm_cycles:,} Arm cycles)\n"
        f"Mult:     {mult_report.seconds * 1e3:.3f} ms  "
        f"-> rotation costs {ratio:.2f}x a Mult",
    )
    assert 0.3 < ratio < 0.8


def test_ablation_hps_vs_traditional_conversions(benchmark, paper_params):
    """The HPS method is ~10-20x faster on Lift/Scale throughput."""
    from repro.hw.lift_unit import HpsLiftUnit, TraditionalLiftUnit
    from repro.rns.basis import lift_context

    ctx = lift_context(paper_params.q_primes, paper_params.p_primes)

    def cycles_pair():
        hps = HpsLiftUnit(ctx, BASE).cycles(4096)
        trad = TraditionalLiftUnit(
            ctx, replace(BASE, use_hps=False)
        ).cycles(4096)
        return hps, trad

    hps, trad = benchmark(cycles_pair)
    save_result(
        "ablation_hps_lift",
        "ABLATION — HPS VS TRADITIONAL-CRT LIFT (Sec. IV-C)\n"
        f"HPS lift (2 cores):         {hps} FPGA cycles\n"
        f"traditional lift (2 cores): {trad} FPGA cycles "
        f"({trad / hps:.1f}x slower)",
    )
    assert trad / hps > 10
