"""Tests for the client facade: sessions, handles, programs, backends.

Covers the unified API's three guarantees:

* handle arithmetic compiles to graphs whose *functional* execution is
  bit-identical to hand-wiring the low-level ``Evaluator``;
* static depth/noise accounting tracks the measured budget decay;
* one program object runs through both executors — LocalBackend
  decrypts the right plaintext, SimulatedBackend prices the same graph
  on the serving runtime / multi-shard cluster and reports per-request
  latency (the acceptance demo of the facade).
"""

import numpy as np
import pytest

from repro.api import (
    LocalBackend,
    OpKind,
    Session,
    SimulatedBackend,
    sum_slots,
)
from repro.cluster.report import ClusterReport
from repro.cluster.routing import TenantAffinityRouter
from repro.errors import NoiseBudgetExhausted, ParameterError
from repro.fv.evaluator import Evaluator
from repro.fv.galois import GaloisEngine
from repro.fv.noise import MIN_VERIFIED_BUDGET_BITS
from repro.optim import PassManager, RotationHoistPass
from repro.params import mini
from repro.system.server import CostModel
from repro.system.workloads import Job, JobKind, merge_streams


def _hoist_only() -> PassManager:
    """A pipeline that hoists rotations without canonicalising them."""
    manager = PassManager()
    manager.passes = [RotationHoistPass()]
    return manager


@pytest.fixture(scope="module")
def batch_session():
    return Session(mini(t=65537), seed=31)


@pytest.fixture(scope="module")
def bit_session():
    return Session(mini(), seed=32)


class TestSession:
    def test_auto_encoder_picks_batch_when_possible(self, batch_session):
        assert batch_session.encoder_kind == "batch"

    def test_auto_encoder_falls_back_to_coeff(self, bit_session):
        assert bit_session.encoder_kind == "coeff"   # t=2 cannot batch

    def test_encrypt_decrypt_round_trip(self, batch_session):
        values = [5, 10, 20, 40]
        handle = batch_session.encrypt(values)
        assert np.array_equal(batch_session.decrypt(handle, size=4),
                              values)

    def test_scalar_encoding_broadcasts(self, batch_session):
        handle = batch_session.encrypt([2, 3])
        scaled = batch_session.decrypt(handle * 7, size=2)
        assert scaled.tolist() == [14, 21]

    def test_mixed_session_arithmetic_rejected(self, batch_session):
        other = Session(mini(t=65537), seed=99)
        with pytest.raises(ParameterError):
            batch_session.encrypt([1]) + other.encrypt([1])


class TestHandleAlgebra:
    def test_add_sub_neg(self, batch_session):
        a = batch_session.encrypt([10, 20])
        b = batch_session.encrypt([3, 4])
        assert batch_session.decrypt(a + b, 2).tolist() == [13, 24]
        assert batch_session.decrypt(a - b, 2).tolist() == [7, 16]
        assert batch_session.decrypt(-b, 2).tolist() == [
            65537 - 3, 65537 - 4]

    def test_plain_operand_spellings(self, batch_session):
        a = batch_session.encrypt([10, 20])
        assert batch_session.decrypt(a + 5, 2).tolist() == [15, 25]
        assert batch_session.decrypt(5 + a, 2).tolist() == [15, 25]
        assert batch_session.decrypt(a - 5, 2).tolist() == [5, 15]
        assert batch_session.decrypt(25 - a, 2).tolist() == [15, 5]
        assert batch_session.decrypt(3 * a, 2).tolist() == [30, 60]

    def test_depth_accounting(self, batch_session):
        a = batch_session.encrypt([2])
        b = batch_session.encrypt([3])
        assert a.depth == 0
        assert (a + b).depth == 0
        assert (a * 5).depth == 0          # plaintext mult is depth-free
        assert (a * b).depth == 1
        assert ((a * b) * (a * b)).depth == 2
        assert ((a * b) * a).depth == 2

    def test_rotate_and_sum_slots(self, batch_session):
        values = list(range(1, 9))
        h = batch_session.encrypt(values)
        rotated = batch_session.decrypt(h.rotate(1), 8)
        assert rotated[0] == 2              # slot row rotated left by one
        total = batch_session.decrypt(sum_slots(h), 1)
        assert total[0] == sum(values)


class TestGaloisKeyCache:
    """One cache, keyed by the rotation group's order (n/2 = 128)."""

    def test_steps_share_a_key_modulo_the_group_order(self):
        session = Session(mini(t=65537), seed=5)
        x = session.encrypt(np.arange(256))
        assert session.rotation_key(129) is session.rotation_key(1)
        assert session.prefetch_rotation_keys([1, 129, -127]) == 0
        program = session.compile({"a": x.rotate(1), "b": x.rotate(129)})
        assert program.rotation_steps() == [1]
        result = LocalBackend(session).run(program)
        assert np.array_equal(result.decrypt("a"), result.decrypt("b"))

    def test_identity_rotation_costs_nothing(self, monkeypatch):
        session = Session(mini(t=65537), seed=5)
        x = session.encrypt(np.arange(256))

        def refuse(*args, **kwargs):
            raise AssertionError("identity rotation touched a key")

        monkeypatch.setattr(session.galois, "keygen", refuse)
        monkeypatch.setattr(session.galois, "apply", refuse)
        monkeypatch.setattr(session.galois, "apply_many", refuse)
        for steps in (0, 128, -256):
            turned = x.rotate(steps)
            program = session.compile(turned)
            assert program.rotation_steps() == []
            LocalBackend(session).run(program)
            assert turned.node.cached is x.node.cached
            assert session.noise_budget_bits(turned) == \
                session.noise_budget_bits(x)
        assert session.prefetch_rotation_keys([0, 128]) == 0
        with pytest.raises(ParameterError, match="identity"):
            session.rotation_key(128)
        # A pipeline that hoists without canonicalising first.
        still, turned = x.rotate(0), x.rotate(128)
        program, _ = _hoist_only().optimize(
            session.compile({"still": still, "turned": turned}))
        assert len(program.hoist_groups) == 1
        LocalBackend(session).run(program)
        assert still.node.cached is turned.node.cached is x.node.cached
        assert session._galois_keys == {}

    def test_hoisted_group_shares_keys_modulo_the_group_order(self):
        session = Session(mini(t=65537), seed=5)
        x = session.encrypt(np.arange(256))
        program, _ = _hoist_only().optimize(
            session.compile({"a": x.rotate(1), "b": x.rotate(129),
                             "c": x.rotate(2), "d": x.rotate(128)}))
        assert len(program.hoist_groups[0]) == 4
        result = LocalBackend(session).run(program)
        assert session._galois_keys.keys() == {1, 2}
        assert np.array_equal(result.decrypt("a"), result.decrypt("b"))
        assert np.array_equal(result.decrypt("a"),
                              session.decrypt(x.rotate(1)))
        assert np.array_equal(result.decrypt("c"),
                              session.decrypt(x.rotate(2)))
        assert np.array_equal(result.decrypt("d"), np.arange(256))

    def test_summation_keys_are_a_view_of_the_cache(self):
        session = Session(mini(t=65537), seed=5)
        one = session.rotation_key(1)
        keys = session.summation_keys()
        assert keys[1] is one
        assert session.rotation_key(3) is keys[3]
        assert session.prefetch_rotation_keys([1, 2, 3, 4]) == 0
        assert session.summation_keys().keys() == keys.keys()
        assert all(session.summation_keys()[label] is key
                   for label, key in keys.items())


class TestHEProgram:
    def test_compile_forms(self, batch_session):
        a = batch_session.encrypt([1])
        single = batch_session.compile(a * a)
        assert list(single.outputs) == ["out"]
        named = batch_session.compile({"sq": a * a, "id": a})
        assert set(named.outputs) == {"sq", "id"}
        listed = batch_session.compile([a, a * a])
        assert list(listed.outputs) == ["out0", "out1"]

    def test_shared_subexpression_counted_once(self, batch_session):
        a = batch_session.encrypt([2])
        b = batch_session.encrypt([3])
        prod = a * b
        program = batch_session.compile(prod * prod)
        assert sum(node.op is OpKind.MULTIPLY
                   for node in program.nodes) == 2

    def test_static_noise_check_rejects_too_deep(self):
        # mini(t=65537) supports worst-case depth 3; depth 5 must fail
        # the static check at compile time.
        session = Session(mini(t=65537), seed=40)
        h = session.encrypt([1])
        for _ in range(5):
            h = h * h
        with pytest.raises(NoiseBudgetExhausted):
            session.compile(h)
        # ... and compile(check=False) defers to the measured verify.
        program = session.compile(h, check=False)
        assert program.depth == 5

    @pytest.mark.parametrize("depth", [4, 5, 6])
    def test_wrapped_output_is_refused_at_run_time(self, depth):
        """An over-deep chain wraps, and a wrapped ciphertext measures
        just *above* zero bits — ``budget <= 0`` never sees it. The
        run-time verify refuses anything under the one-bit floor."""
        session = Session(mini(t=65537), seed=40)
        t = session.params.t
        h = session.encrypt([1, 2, 3])
        for _ in range(depth):
            h = h * h
        program = session.compile(h, check=False)
        with pytest.raises(NoiseBudgetExhausted,
                           match=r"'out'.* 0\.\d+ bits.*1-bit floor"):
            LocalBackend(session).run(program)
        # What the refusal withheld: a budget in (0, 1) and a wrong
        # plaintext.
        wrapped = program.outputs["out"].cached
        assert 0 < session.noise_budget_bits(wrapped) < \
            MIN_VERIFIED_BUDGET_BITS
        assert session.decrypt(wrapped, size=3).tolist() != [
            pow(x, 2 ** depth, t) for x in (1, 2, 3)]

    def test_depth_accounting_matches_measured_decay(self):
        """Satellite: static depth matches noise_budget_bits decay on
        mini() — each level costs a consistent bite of the budget and
        the analytic worst case stays below the measurement."""
        session = Session(mini(), seed=41)
        h = session.encrypt([1, 1])
        budgets = [session.noise_budget_bits(h)]
        while h.depth < 4:
            h = h * h
            budgets.append(session.noise_budget_bits(h))
        assert h.depth == 4
        drops = [budgets[i] - budgets[i + 1] for i in range(len(budgets) - 1)]
        assert all(drop > 0 for drop in drops)
        # Per-level cost is roughly constant (mult-dominated): each
        # subsequent level within 3x of the previous.
        for before, after in zip(drops[1:], drops[2:], strict=False):
            assert after < 3 * before
        # The static worst case must be conservative: lower budget than
        # measured, but still positive at depth 4.
        static = session.compile(h).static_noise_bits()["out"]
        assert 0 < static < budgets[-1]

    def test_local_backend_matches_hand_wired_evaluator(self):
        """Satellite: LocalBackend and a hand-wired Evaluator produce
        identical ciphertexts (not just equal decryptions)."""
        session = Session(mini(t=65537), seed=42)
        a = session.encrypt([7, 8, 9])
        b = session.encrypt([1, 2, 3])
        c = session.encrypt([4, 5, 6])
        program = session.compile({"out": a * b + c,
                                   "rot": (a * b).rotate(2)})
        result = LocalBackend(session).run(program)

        evaluator = Evaluator(session.context)
        engine = GaloisEngine(session.context)
        prod = evaluator.multiply(a.ciphertext, b.ciphertext,
                                  session.keys.relin)
        expected_out = session.context.add(prod, c.ciphertext)
        expected_rot = engine.apply(prod, session.rotation_key(2))
        for label, expected in (("out", expected_out),
                                ("rot", expected_rot)):
            got = result[label].ciphertext
            for got_part, want_part in zip(got.parts, expected.parts, strict=True):
                assert np.array_equal(got_part.residues,
                                      want_part.residues)

    def test_local_backend_caches_shared_nodes(self, batch_session):
        a = batch_session.encrypt([2])
        b = batch_session.encrypt([5])
        prod = a * b
        batch_session.decrypt(prod)          # materialises prod
        assert prod.is_materialized
        follow_up = prod + a
        assert int(batch_session.decrypt(follow_up)[0]) == 12


class TestLowering:
    def test_footprints_follow_residency_model(self, batch_session):
        a = batch_session.encrypt([1])
        b = batch_session.encrypt([2])
        c = batch_session.encrypt([3])
        program = batch_session.compile(a * b + c)
        ops = program.lower()
        assert [op.kind for op in ops] == [JobKind.MULT, JobKind.ADD]
        mult, add = ops
        assert mult.polys_in == 4            # two fresh 2-part operands
        assert mult.polys_out == 0           # intermediate stays resident
        assert add.polys_in == 2             # one fresh operand (c)
        assert add.polys_out == 2            # the program output

    def test_input_upload_charged_once(self, batch_session):
        """An INPUT consumed by several ops is uploaded exactly once."""
        h = batch_session.encrypt([3])
        square = batch_session.compile(h * h).lower()
        assert square[0].polys_in == 2       # one ciphertext, one upload
        reused = batch_session.compile(h * h + h).lower()
        assert sum(op.polys_in for op in reused) == 2

    def test_zero_burst_train_pays_no_setup(self):
        from repro.serve.batching import BatchPolicy, DmaBatcher
        from repro.serve.schedulers import QueueEntry

        cost = CostModel(mini())
        batcher = DmaBatcher(cost, BatchPolicy(max_jobs=4))
        entries = [
            QueueEntry(job=Job(index=i, kind=JobKind.ADD, polys_in=0,
                               polys_out=0), cost_seconds=0.0, seq=i)
            for i in range(2)
        ]
        computes = 2 * cost.compute_seconds(JobKind.ADD)
        assert batcher.service_seconds(entries) == pytest.approx(computes)

    def test_sum_slots_expands_to_rotation_rounds(self, batch_session):
        h = batch_session.encrypt([1])
        ops = batch_session.compile(sum_slots(h)).lower()
        n = batch_session.params.n
        rounds = (n // 2).bit_length()       # log2(n/2) rotations + conj
        assert len(ops) == 2 * rounds
        assert sum(op.kind is JobKind.ROTATE for op in ops) == rounds

    def test_default_jobs_price_like_table1(self):
        cost = CostModel(mini())
        plain = cost.job_seconds(JobKind.MULT)
        assert cost.job_seconds_of(Job(index=0, kind=JobKind.MULT)) == \
            pytest.approx(plain)

    def test_per_op_kinds_are_priced_sensibly(self):
        cost = CostModel(mini())
        add, rotate, mult, mul_plain = (
            cost.compute_seconds(kind)
            for kind in (JobKind.ADD, JobKind.ROTATE, JobKind.MULT,
                         JobKind.MUL_PLAIN))
        assert 0 < add < rotate < mult
        assert 0 < mul_plain < mult

    def test_resident_operands_cost_less(self):
        cost = CostModel(mini())
        fresh = Job(index=0, kind=JobKind.MULT, polys_in=4, polys_out=2)
        resident = Job(index=1, kind=JobKind.MULT, polys_in=0,
                       polys_out=0)
        assert cost.job_seconds_of(resident) < cost.job_seconds_of(fresh)

    def test_merge_streams_preserves_program_fields(self):
        jobs = [Job(index=0, kind=JobKind.ROTATE, arrival_seconds=0.5,
                    polys_in=0, polys_out=2, request=7)]
        merged = merge_streams(jobs, [Job(index=0, kind=JobKind.ADD)])
        rotated = [j for j in merged if j.kind is JobKind.ROTATE][0]
        assert rotated.polys_out == 2 and rotated.request == 7


class TestSimulatedBackend:
    @pytest.fixture(scope="class")
    def session(self):
        return Session(mini(t=65537), seed=50)

    @pytest.fixture(scope="class")
    def dot_program(self, session):
        a = session.encrypt([1, 2, 3, 4])
        b = session.encrypt([5, 6, 7, 8])
        return session.compile(sum_slots(a * b), name="dot")

    def test_over_runtime_resolves_futures(self, session, dot_program):
        backend = SimulatedBackend.over_runtime(session.params)
        run = backend.run(dot_program, requests=10)
        assert len(run.futures) == 10
        assert all(f.succeeded for f in run.futures)
        assert len(run.report.results) == 10 * len(dot_program.lower())
        assert run.latency_summary().p99 >= run.latency_summary().p50 > 0

    def test_failed_future_raises_on_result(self, session, dot_program):
        backend = SimulatedBackend.over_runtime(session.params)
        run = backend.run(dot_program, requests=1)
        future = run.futures[0]
        assert future.result() == future.latency_seconds
        future.rejected_ops = future.num_ops
        future.completed_ops = 0
        with pytest.raises(RuntimeError):
            future.result()

    def test_backend_is_reusable(self, session, dot_program):
        backend = SimulatedBackend.over_runtime(session.params)
        first = backend.run(dot_program, requests=3)
        second = backend.run(dot_program, requests=3)
        assert len(first.completed) == len(second.completed) == 3

    def test_acceptance_same_program_both_executors(self, session,
                                                    dot_program):
        """The facade's acceptance criterion: one HEProgram object runs
        functionally (correct decryption) and through a multi-shard
        cluster (per-request simulated latency)."""
        # Executor 1: functional. The dot product of [1..4] x [5..8].
        result = LocalBackend(session).run(dot_program)
        assert int(result.decrypt("out")[0]) == 5 + 12 + 21 + 32
        assert result.noise_budget_bits("out") > 0

        # Executor 2: the same object over a 3-shard cluster.
        backend = SimulatedBackend.over_cluster(
            session.params, 3, router_factory=TenantAffinityRouter)
        run = backend.run(dot_program, requests=60,
                          rate_per_second=400.0, num_tenants=12, seed=2)
        assert run.program is dot_program
        assert isinstance(run.report, ClusterReport)
        assert len(run.report.shard_reports) == 3
        assert len(run.completed) == 60
        summary = run.latency_summary()
        assert 0 < summary.p50 <= summary.p95 <= summary.p99
        # Tenant-affinity routing must actually spread the requests.
        busy_shards = sum(
            1 for rep in run.report.shard_reports if rep.results)
        assert busy_shards > 1
        assert run.requests_per_second() > 0
