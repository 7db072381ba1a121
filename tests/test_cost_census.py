"""Price equals execution, for every job kind and for a whole request.

A modelled operation has one census — the program ``hw/compiler.py``
emits for it — and one price list — the cycles ``Coprocessor.execute``
charges per instruction. ``CostModel.compute_seconds(kind)`` must
therefore be *exactly* the total of the report that executing the same
program produces, and the report's per-opcode calls must be the
program's histogram. The register contents are arbitrary residues:
cycles do not depend on data (bit-exactness of the results is the job
of ``test_hw_coprocessor.py`` and ``test_galois.py``).

One level up, a lowered HE program has one price too: the
``LoweredProgram``'s request price is what the serving runtime charges
its jobs, cold or with every input already resident on the server.
"""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from repro.api import Session, SimulatedBackend
from repro.apps.matmul import EncryptedMatmul
from repro.fv.keys import RelinKey
from repro.hw.config import HardwareConfig, slow_coprocessor_config
from repro.hw.coprocessor import Coprocessor
from repro.hw.isa import Opcode
from repro.params import hpca19, mini, toy
from repro.system import CostModel
from repro.system.workloads import JobKind

CONFIGS = {
    "streamed": HardwareConfig(),
    "on_chip": replace(HardwareConfig(), relin_key_on_chip=True),
    "slow": slow_coprocessor_config(),
}

CASES = [
    *((params, where, kind) for params in (toy, mini)
      for where in ("streamed", "on_chip") for kind in JobKind),
    (mini, "slow", JobKind.MULT),
    (hpca19, "streamed", JobKind.MULT),
    (hpca19, "streamed", JobKind.ROTATE),
]

#: Every register a compiled entry reads before writing.
INPUT_REGISTERS = ("a0", "a1", "b0", "b1", "s0", "s1", "s2", "m", "zero")

# The issue's fixed prices: hpca19, default config, FPGA cycles
# including key streaming.
HPCA19_CYCLES = {
    JobKind.MULT: 855_548,
    JobKind.ADD: 5_390,
    JobKind.ROTATE: 456_886,
    JobKind.MUL_PLAIN: 103_365,
    JobKind.MULT_RAW: 406_968,
    JobKind.RELIN: 448_580,
}


def priced_cycles(cost: CostModel, kind: JobKind) -> int:
    return round(cost.compute_seconds(kind) * cost.config.fpga_clock_hz)


@pytest.mark.parametrize(
    ("make_params", "where", "kind"), CASES,
    ids=[f"{p.__name__}-{w}-{k.value}" for p, w, k in CASES])
def test_price_equals_execution(make_params, where, kind):
    params = make_params()
    cost = CostModel(params, CONFIGS[where])
    program = cost.program(kind)
    histogram = program.opcode_histogram()

    rng = np.random.default_rng(24)
    q_col = np.array(params.q_primes, dtype=np.int64)[:, None]

    def rows():
        return rng.integers(0, q_col, (params.k_q, params.n))

    key = RelinKey(pairs=[(rows(), rows())
                          for _ in range(histogram.get(Opcode.DIGIT, 0))])
    coprocessor = Coprocessor(params, CONFIGS[where])
    outputs = (("s0", "s1", "s2") if kind is JobKind.MULT_RAW
               else ("out0", "out1"))
    _, report = coprocessor.run(
        program, {name: rows() for name in INPUT_REGISTERS}, key, outputs)

    assert priced_cycles(cost, kind) == report.total_cycles
    assert {op: stat.calls
            for op, stat in report.op_stats.items()} == histogram


def test_hpca19_prices():
    cost = CostModel(hpca19())
    assert {kind: priced_cycles(cost, kind)
            for kind in JobKind} == HPCA19_CYCLES
    # Mult is its two halves, with no floor or rounding between them.
    assert HPCA19_CYCLES[JobKind.MULT] == (
        HPCA19_CYCLES[JobKind.MULT_RAW] + HPCA19_CYCLES[JobKind.RELIN])
    # A rotation is a permutation plus one relin-shaped key switch:
    # about half a Mult, dominated by the same key streaming.
    assert 0.3 < (HPCA19_CYCLES[JobKind.ROTATE]
                  / HPCA19_CYCLES[JobKind.MULT]) < 0.8


@cache
def matmul_program(make_params):
    """A 2 x 8 by 8 x 2 encrypted matmul in blocks of four slots."""
    session = Session(make_params(t=65537), seed=7)
    matmul = EncryptedMatmul(session, block_slots=4)
    a = [[1, 2, 3, 4, 5, 6, 7, 8], [2, 0, 1, 3, 5, 2, 4, 1]]
    b = [[1, 2], [0, 1], [3, 1], [1, 0], [2, 2], [1, 1], [0, 3], [2, 1]]
    return matmul.matmul_program(matmul.encrypt_rows(a),
                                 matmul.encrypt_cols(b))


REQUEST_CASES = [(params, warm) for params in (toy, mini, hpca19)
                 for warm in (False, True)]


@pytest.mark.parametrize(
    ("make_params", "warm"), REQUEST_CASES,
    ids=[f"{p.__name__}-{'warm' if w else 'cold'}"
         for p, w in REQUEST_CASES])
def test_request_price_is_served_price(make_params, warm):
    program = matmul_program(make_params)
    backend = SimulatedBackend.over_runtime(program.params, optimize=True)
    run = backend.run(program)
    if warm:
        run = backend.run(program)
        assert run.cache_hits == len(program.inputs) > 0
    lowered = run.lowered
    cost = lowered.cost

    # One request, one board, no batching: the runtime charges every
    # job exactly its CostModel price.
    assert sum(run.report.busy_seconds) == pytest.approx(
        lowered.independent_seconds(), rel=1e-12)

    finish: list[float] = []
    for op in lowered.ops:
        ready = max((finish[d] for d in op.deps), default=0.0)
        finish.append(ready + cost.compute_seconds(op.kind))
    critical = lowered.critical_path_seconds()
    assert critical == max(finish)
    assert critical <= lowered.independent_seconds()
