"""The four workloads: set-up, seeded inputs, one request, its check.

Each workload is a closed-loop client's view of the package: one
request in flight, no think time. The end-to-end loops import only the
public facade (``repro.api``, ``repro.params``, ``repro.apps``,
``repro.parallel``, ``repro.cluster``, ``repro.faults``) plus
``repro.fv.galois.slot_permutation`` for the rotation reference and
``repro.hw.Coprocessor`` for ``paper_err_pct``, so a later change that
deletes an internal datapath cannot break them.

Why these four (the ``why`` strings of ``BENCHMARK.json`` in full):

* ``mult_depth4_n4096`` — Mult-bound: the gemm NTT, ``rns`` lift/scale
  and the keyswitch fold do most of the work; decrypt + verify the rest.
* ``rotsum_n4096`` — keyswitch/Galois-bound with **no** ciphertext
  Mult, so a base-extension change must show no movement here; the
  optimiser, rotation hoisting, the domain planner and the
  plaintext-NTT pool do work only here.
* ``mult_n8192_threads`` — the same layers at 25 primes and a larger
  gemm plan, memory-bound, under the ``parallel`` thread executor.
* ``sim_cluster_faults`` — the modelled side (``api.simulated`` →
  ``optim`` → ``system`` → ``hw`` → ``serve`` → ``cluster`` →
  ``faults``); the functional engine is idle in its timed loop.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.api import (
    LocalBackend,
    Session,
    SimulatedBackend,
    rotate,
    sum_slots,
)
from repro.apps import EncryptedMatmul
from repro.cluster import ReplicatedPlacement, TenantAffinityRouter
from repro.faults import FaultPlan, RetryPolicy
from repro.fv.galois import slot_permutation
from repro.parallel import ExecutionConfig, available_cores
from repro.params import hpca19, large_ring

#: Table I "Mult in HW", Arm cycles at 1.2 GHz.
PAPER_MULT_ARM_CYCLES = 5_349_567


def negacyclic_mod2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b mod (x^n + 1, 2)`` for binary polynomials, via numpy FFT
    (coefficients stay below n, far inside float64 exactness)."""
    n = len(a)
    full = np.fft.irfft(np.fft.rfft(a, 2 * n) * np.fft.rfft(b, 2 * n),
                        2 * n)
    exact = np.rint(full)
    if np.abs(full - exact).max() > 0.25:
        raise ArithmeticError("reference product lost precision")
    exact = exact.astype(np.int64)
    return (exact[:n] - exact[n:]) % 2


def paper_mult_report():
    """One cycle-level ``Coprocessor.mult`` at the paper's parameter set;
    returns ``(coprocessor, report)``."""
    from repro.hw import Coprocessor

    session = Session(hpca19())
    a, b = session.encrypt([1, 1, 0, 1]), session.encrypt([1, 0, 1])
    coprocessor = Coprocessor(session.params)
    _, report = coprocessor.mult(a.ciphertext, b.ciphertext,
                                 session.keys.relin)
    return coprocessor, report


def paper_err_pct() -> float:
    _, report = paper_mult_report()
    return (abs(report.arm_cycles - PAPER_MULT_ARM_CYCLES)
            / PAPER_MULT_ARM_CYCLES * 100.0)


class Functional:
    """encrypt -> compile -> run -> decrypt on ``LocalBackend``.

    Keys and encryption randomness come from ``Session``'s own default
    seed: they are the system's state, not the workload's inputs.
    ``--seed`` makes the messages, so the noise budget a run measures
    moves with the inputs only.
    """

    name: str
    requests: int
    functional = True
    has_summation_keys = False
    optimize = False
    #: Runs under the ``parallel`` thread executor.
    threaded = False

    def __init__(self) -> None:
        self.session: Session | None = None
        self.backend: LocalBackend | None = None
        #: (program, ProgramResult, harness ``api.run`` span or None)
        self.last = None
        #: One pool item, for probes that need the workload's operands.
        self.sample = None

    def compile(self, handles):
        return self.session.compile(self.expression(handles), check=True,
                                    optimize=self.optimize)

    def raw_program(self):
        """The workload's graph as captured, before any optimiser pass."""
        return self.session.compile(
            self.expression(self.encrypt(self.sample)), check=False)

    def request(self, item, span):
        with span("api.encrypt"):
            handles = self.encrypt(item)
        with span("api.compile"):
            program = self.compile(handles)
        with span("api.run") as run_span:
            result = self.backend.run(program)
        with span("api.decrypt"):
            out = self.decrypt(result)
        self.last = (program, result, run_span)
        return out

    def output_noise_bits(self) -> float:
        """Minimum measured budget over the outputs of the last request."""
        result = self.last[1]
        return min(result.noise_budget_bits(label)
                   for label in result.outputs)

    def transform_counters(self) -> dict[str, int]:
        from repro.nttmath import transform_counts

        return {f"nttmath.{key}": value
                for key, value in transform_counts().items()
                if key != "roundtrip_calls"}

    def cache_counters(self) -> dict[str, int]:
        return {"api.resident_cache_hits":
                self.backend.telemetry["resident_cache"]["hits"]}

    def finish(self) -> list[str]:
        return []

    def close(self) -> None:
        if self.threaded:
            self.executor().close()


class MultDepth4(Functional):
    name = "mult_depth4_n4096"
    requests = 200

    def setup(self, seed: int) -> None:
        self.session = Session(hpca19())
        self.backend = LocalBackend(self.session)

    def make_inputs(self, seed: int, count: int) -> list:
        rng = np.random.default_rng(seed)
        n = self.session.params.n
        items = []
        for _ in range(count):
            a = rng.integers(0, 2, n, dtype=np.int8)
            b = rng.integers(0, 2, n, dtype=np.int8)
            ref = a
            for factor in (b, a, b, a):
                ref = negacyclic_mod2(ref, factor)
            items.append((a, b, ref))
        return items

    def encrypt(self, item):
        a, b, _ = item
        return (self.session.encrypt(a, resident=True),
                self.session.encrypt(b, resident=True))

    def expression(self, handles):
        a, b = handles
        return (((a * b) * a) * b) * a

    def decrypt(self, result):
        return result.decrypt()

    def correct(self, item, out) -> bool:
        return np.array_equal(out, item[2])


class RotSum(Functional):
    name = "rotsum_n4096"
    requests = 160
    has_summation_keys = True
    optimize = True
    _BANNED = frozenset({"MULTIPLY", "MULTIPLY_RAW", "RELINEARIZE"})

    def setup(self, seed: int) -> None:
        self.session = Session(hpca19(t=65537))
        self.session.summation_keys()
        self.session.prefetch_rotation_keys([1, 2, 3])
        self.backend = LocalBackend(self.session)
        params = self.session.params
        # W is a fixed plaintext, the same for every seed.
        self.weights = np.random.default_rng(0).integers(0, params.t,
                                                         params.n)
        self.w_plain = self.session.encode(self.weights)

    def make_inputs(self, seed: int, count: int) -> list:
        rng = np.random.default_rng(seed)
        n, t = self.session.params.n, self.session.params.t
        perms = [slot_permutation(n, pow(3, k, 2 * n)) for k in (1, 2, 3)]
        items = []
        for _ in range(count):
            x = rng.integers(0, t, n)
            dot = int((x * self.weights).sum() % t)
            win = ((x + sum(x[p] for p in perms)) * 3) % t
            items.append((x, dot, win))
        return items

    def encrypt(self, item):
        return self.session.encrypt(item[0], resident=True)

    def expression(self, x):
        return {
            "dot": sum_slots(x * self.w_plain),
            "win": (x + rotate(x, 1) + rotate(x, 2) + rotate(x, 3)) * 3,
        }

    def decrypt(self, result):
        return result.decrypt("dot"), result.decrypt("win")

    def correct(self, item, out) -> bool:
        # The bypass of rns lift/scale is checked, not assumed.
        ops = {node.op.name for node in self.last[0].nodes}
        dot, win = out
        return (not ops & self._BANNED and bool(np.all(dot == item[1]))
                and np.array_equal(win, item[2]))


class MultN8192Threads(Functional):
    name = "mult_n8192_threads"
    requests = 100
    threaded = True

    def setup(self, seed: int) -> None:
        self.session = Session(large_ring(8192))
        self.workers = min(4, available_cores())
        self.backend = LocalBackend(
            self.session,
            executor=ExecutionConfig("threads", self.workers),
        )

    def executor(self):
        return self.backend.executor

    def make_inputs(self, seed: int, count: int) -> list:
        rng = np.random.default_rng(seed)
        n = self.session.params.n
        items = []
        for _ in range(count):
            a = rng.integers(0, 2, n, dtype=np.int8)
            b = rng.integers(0, 2, n, dtype=np.int8)
            items.append((a, b, (negacyclic_mod2(a, b) + a) % 2))
        return items

    def encrypt(self, item):
        return (self.session.encrypt(item[0]), self.session.encrypt(item[1]))

    def expression(self, handles):
        a, b = handles
        return a * b + a

    def decrypt(self, result):
        return result.decrypt()

    def correct(self, item, out) -> bool:
        return np.array_equal(out, item[2])


class SimClusterFaults:
    """One op = 40 simulated requests of a 2 x 2 two-block encrypted
    matmul (112 lowered jobs each) on 8 boards at 60 % of capacity, with
    the busiest board killed at 40 % of the run and recovered at 80 %."""

    name = "sim_cluster_faults"
    requests = 160
    functional = False
    threaded = False
    has_summation_keys = False
    SHARDS = 8
    REPLICAS = 2
    SIM_REQUESTS = 40
    TENANTS = 64
    LOAD = 0.6
    INNER = 8
    BLOCK = 4

    def setup(self, seed: int) -> None:
        self.seed = seed
        params = hpca19(t=65537)
        self.session = Session(params)
        # The simulator prices the program's shape, not its values: the
        # matrices are fixed, --seed makes the arrival streams.
        rng = np.random.default_rng(0)
        self.a = rng.integers(0, 100, (2, self.INNER)).tolist()
        self.b = rng.integers(0, 100, (self.INNER, 2)).tolist()
        self.matmul = EncryptedMatmul(self.session, block_slots=self.BLOCK)
        self.rows = self.matmul.encrypt_rows(self.a)
        self.cols = self.matmul.encrypt_cols(self.b)
        self.program = self.matmul.matmul_program(self.rows, self.cols)
        lowered = SimulatedBackend.over_cluster(
            params, self.SHARDS, optimize=True).lower(self.program)
        self.jobs_per_request = len(lowered.ops)
        capacity = (self.SHARDS * lowered.cost.config.num_coprocessors
                    / lowered.independent_seconds())
        self.rate = self.LOAD * capacity
        duration = self.SIM_REQUESTS / self.rate
        # The chaos bench's victim rule: the board that is primary for
        # the most tenants, so the crash lands on the deepest queue.
        placement = ReplicatedPlacement(
            [f"shard{i}" for i in range(self.SHARDS)], self.REPLICAS)
        primaries = Counter(placement.primary(f"t{i:04d}")
                            for i in range(self.TENANTS))
        self.victim = max(sorted(primaries), key=primaries.__getitem__)
        self.plan = FaultPlan.board_kill(self.victim, 0.4 * duration,
                                         recover_at=0.8 * duration)
        self.backend = self.cluster_backend(self.plan)
        self.spilled = 0
        #: (op seed, SimulatedRun) of the most recent op.
        self.last = None

    def cluster_backend(self, plan) -> SimulatedBackend:
        return SimulatedBackend.over_cluster(
            self.session.params, self.SHARDS,
            router_factory=TenantAffinityRouter, optimize=True,
            replicas=self.REPLICAS, retry=RetryPolicy(seed=self.seed),
            fault_plan=plan,
        )

    def make_inputs(self, seed: int, count: int) -> list:
        return [1000 * seed + i for i in range(count)]

    def run_op(self, backend, op_seed: int):
        return backend.run(self.program, requests=self.SIM_REQUESTS,
                           rate_per_second=self.rate,
                           num_tenants=self.TENANTS, seed=op_seed)

    def request(self, item, span):
        with span("api.sim_run"):
            run = self.run_op(self.backend, item)
        self.last = (item, run)
        return run

    def correct(self, item, run) -> bool:
        failure, report = run.failure_report, run.report
        offered = self.SIM_REQUESTS * self.jobs_per_request
        self.spilled += failure.jobs_spilled
        return (len(run.completed) == self.SIM_REQUESTS
                and failure.jobs_lost == 0
                and len(report.results) + len(report.rejected) == offered
                and failure.failovers >= 1)

    def raw_program(self):
        return self.program

    def finish(self) -> list[str]:
        """Run-level checks: the fault path was exercised and the
        simulator is deterministic."""
        problems = []
        if self.spilled <= 0:
            problems.append("no job was ever spilled by the board kill")
        # Re-run the last op rather than the first: the very first op
        # uploads its inputs, every later one finds them resident.
        item, run = self.last
        again = self.run_op(self.backend, item)
        if again.latency_summary() != run.latency_summary():
            problems.append("re-running an op changed its latency summary")
        return problems

    def twin_noise_budget_bits(self) -> float:
        """The simulated program's functional twin, run once outside
        every timed window: proves the program the simulator prices
        computes A @ B, and measures what its outputs have left."""
        program = self.matmul.matmul_program(self.rows, self.cols,
                                             optimize=True)
        result = LocalBackend(self.session).run(program)
        expected = EncryptedMatmul.reference(self.a, self.b,
                                             self.session.params.t)
        for i, row in enumerate(expected):
            for j, value in enumerate(row):
                got = self.matmul.decrypt_entry(result.handle(f"c{i}_{j}"))
                if got != value:
                    raise ArithmeticError(
                        f"functional twin: c{i}_{j} = {got}, not {value}")
        self.has_summation_keys = True
        return min(result.noise_budget_bits(label)
                   for label in result.outputs)

    def close(self) -> None:
        pass


BUILDERS = {cls.name: cls for cls in (MultDepth4, RotSum, MultN8192Threads,
                                      SimClusterFaults)}
