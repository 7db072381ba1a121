"""Input guards that fail loudly: constructors reject impossible
configurations and stepping methods refuse to run out of order.

Each test feeds one bad value (or one out-of-order call) to one public
type and checks that it raises the documented error instead of building
a half-valid object or corrupting a later result.
"""

import numpy as np
import pytest

from repro.api import LocalBackend, Session, SimulatedBackend
from repro.api.program import HEProgram
from repro.apps.comparator import EncryptedComparator
from repro.apps.matmul import EncryptedMatmul
from repro.cluster import FpgaCluster
from repro.errors import ParameterError
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.fv.ciphertext import Ciphertext
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.keys import RelinKey
from repro.fv.reference import TextbookFv
from repro.fv.sampler import uniform_mod
from repro.hw.config import HardwareConfig
from repro.hw.modred import SlidingWindowReducer
from repro.nttmath.batch import BasisTransformer, basis_transformer
from repro.nttmath.ntt import NegacyclicTransformer, negacyclic_convolution
from repro.nttmath.primes import find_ntt_primes, primitive_root
from repro.parallel.executors import ThreadPoolExecutor
from repro.params import large_ring, mini
from repro.poly.dense import IntPoly
from repro.poly.rns_poly import RnsPoly
from repro.rns.basis import RnsBasis, basis_for, lift_context, scale_context
from repro.rns.lift import lift_hps_ntt
from repro.rns.scale import scale_hps_ntt
from repro.serve import (
    DmaBatcher,
    ServingRuntime,
    Tenant,
    TenantSet,
)
from repro.system.server import CostModel
from scaffolding import toy

PARAMS = toy()
COST = CostModel(mini())


def _zero_poly(basis: RnsBasis, n: int) -> RnsPoly:
    return RnsPoly(basis, np.zeros((basis.size, n), dtype=np.int64))


class TestPrimeSearch:
    def test_ring_degree_must_be_a_power_of_two(self):
        with pytest.raises(ParameterError, match="power of two"):
            find_ntt_primes(30, 48, 1)

    def test_prime_size_floor(self):
        with pytest.raises(ParameterError, match="at least 4 bits"):
            find_ntt_primes(3, 2, 1)

    def test_primitive_root_of_two(self):
        assert primitive_root(2) == 1

    def test_too_few_primes_of_that_size(self):
        # 257 is the only 9-bit prime congruent to 1 mod 128.
        assert find_ntt_primes(9, 64, 1) == [257]
        with pytest.raises(ParameterError, match="only found 1 of 2"):
            find_ntt_primes(9, 64, 2)

    def test_sweep_set_only_for_swept_degrees(self):
        with pytest.raises(ParameterError, match="no sweep parameter set"):
            large_ring(2048)


class TestTransformGuards:
    @pytest.fixture(scope="class")
    def engine(self):
        return basis_transformer(PARAMS.q_primes, PARAMS.n)

    def test_engine_modulus_width(self):
        with pytest.raises(ParameterError, match="lazy-reduction"):
            BasisTransformer(((1 << 32) + 1,), 16)

    def test_engine_modulus_must_be_ntt_friendly(self):
        with pytest.raises(ParameterError, match="not NTT-friendly"):
            BasisTransformer((17,), 16)

    @pytest.mark.parametrize("shape", [(16,), (1, 1, 1, 16)],
                             ids=["1-D", "4-D"])
    def test_engine_needs_a_matrix_or_stack(self, engine, shape):
        with pytest.raises(ParameterError, match="matrix or"):
            engine.forward(np.zeros(shape, dtype=np.int64))

    def test_engine_rows_match_the_basis(self, engine):
        rows = np.zeros((engine.k + 1, engine.n), dtype=np.int64)
        with pytest.raises(ParameterError, match="basis layout"):
            engine.inverse(rows)

    def test_engine_one_constant_per_channel(self, engine):
        rows = np.zeros((engine.k, engine.n), dtype=np.int64)
        with pytest.raises(ParameterError, match="channel constants"):
            engine.inverse_scaled(rows, (1,) * (engine.k - 1))

    def test_engine_broadcast_rows_have_degree_n(self, engine):
        with pytest.raises(ParameterError, match="digit rows"):
            engine.forward_broadcast(np.zeros(engine.n, dtype=np.int64))

    def test_reference_convolution_lengths_match(self):
        with pytest.raises(ParameterError, match="equal length"):
            negacyclic_convolution([1, 2], [1], 17)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_reference_transform_length(self, direction):
        transformer = NegacyclicTransformer(8, 17)
        with pytest.raises(ParameterError, match="expected 8"):
            getattr(transformer, direction)(np.zeros(4, dtype=np.int64))

    def test_lift_rows_over_the_source_basis(self):
        context = lift_context(PARAMS.q_primes,
                               PARAMS.q_primes + PARAMS.p_primes)
        rows = np.zeros((len(PARAMS.q_primes) + 1, PARAMS.n),
                        dtype=np.int64)
        with pytest.raises(ParameterError, match="source basis"):
            lift_hps_ntt(context, rows)

    def test_scale_rows_over_the_full_basis(self):
        context = scale_context(PARAMS.q_primes, PARAMS.p_primes, PARAMS.t)
        rows = np.zeros((len(PARAMS.q_primes), PARAMS.n), dtype=np.int64)
        with pytest.raises(ParameterError, match="over Q"):
            scale_hps_ntt(context, rows)


class TestPolynomialGuards:
    @pytest.fixture(scope="class")
    def basis(self):
        return basis_for(PARAMS.q_primes)

    def test_int_poly_modulus_floor(self):
        with pytest.raises(ParameterError, match="at least 2"):
            IntPoly((1, 0), 1)

    def test_int_poly_rings_must_match(self):
        with pytest.raises(ParameterError, match="different rings"):
            _ = IntPoly((1, 2), 7) + IntPoly((1, 2), 11)

    def test_rns_poly_needs_a_matrix(self, basis):
        with pytest.raises(ParameterError, match="2-D"):
            RnsPoly(basis, np.zeros(PARAMS.n, dtype=np.int64))

    def test_rns_poly_bases_must_match(self, basis):
        other = basis_for(PARAMS.q_primes[:1])
        with pytest.raises(ParameterError, match="different RNS bases"):
            _ = _zero_poly(basis, PARAMS.n) + _zero_poly(other, PARAMS.n)

    def test_rns_poly_degrees_must_match(self, basis):
        with pytest.raises(ParameterError, match="different degrees"):
            _ = (_zero_poly(basis, PARAMS.n)
                 + _zero_poly(basis, PARAMS.n // 2))

    def test_rns_poly_rows_match_the_basis(self, basis):
        with pytest.raises(ParameterError, match="do not match basis"):
            RnsPoly(basis, np.zeros((basis.size + 1, PARAMS.n),
                                    dtype=np.int64))

    def test_uniform_sampler_needs_a_machine_word(self, rng):
        with pytest.raises(ParameterError, match="machine-word"):
            uniform_mod(rng, 4, 1 << 63)

    def test_rns_basis_rejects_two(self):
        with pytest.raises(ParameterError, match="odd primes"):
            RnsBasis([2, 5])


class TestCiphertextShape:
    @pytest.fixture(scope="class")
    def part(self):
        return _zero_poly(basis_for(PARAMS.q_primes), PARAMS.n)

    def test_part_count(self, part):
        with pytest.raises(ParameterError, match="two or three parts"):
            Ciphertext((part,), PARAMS)

    def test_part_degree(self):
        half = _zero_poly(basis_for(PARAMS.q_primes), PARAMS.n // 2)
        with pytest.raises(ParameterError, match="degree n"):
            Ciphertext((half, half), PARAMS)

    def test_two_part_ciphertext_has_no_c2(self, part):
        with pytest.raises(ParameterError, match="no third part"):
            _ = Ciphertext((part, part), PARAMS).c2

    @pytest.mark.parametrize("parts", [1, 4])
    def test_wire_blob_part_count(self, part, parts):
        blob = Ciphertext((part, part), PARAMS).to_wire_bytes()
        blob = blob[:PARAMS.poly_bytes] * parts
        with pytest.raises(ParameterError, match=f"holds {parts} parts"):
            Ciphertext.from_bytes(blob, PARAMS, part.basis)

    def test_sub_needs_equal_sizes(self, part, toy_context):
        with pytest.raises(ParameterError, match="different sizes"):
            toy_context.sub(Ciphertext((part, part), PARAMS),
                            Ciphertext((part, part, part), PARAMS))

    def test_reference_add_needs_equal_sizes(self):
        zero = IntPoly((0,) * PARAMS.n, PARAMS.q)
        with pytest.raises(ParameterError, match="size mismatch"):
            TextbookFv(PARAMS).add((zero, zero), (zero, zero, zero))

    def test_relin_key_one_pair_per_digit(self, toy_context, toy_keys):
        evaluator = Evaluator(toy_context)
        ct = toy_context.encrypt(
            Plaintext.from_list([1, 1], PARAMS.n, PARAMS.t), toy_keys.public)
        raw = evaluator.multiply_raw(ct, ct)
        short = RelinKey(toy_keys.relin.pairs[:-1],
                         toy_keys.relin.decomposition)
        with pytest.raises(ParameterError, match="components for"):
            evaluator.relinearize(raw, short)


class TestEncodingGuards:
    def test_comparator_needs_binary_plaintexts(self):
        with pytest.raises(ParameterError, match="t = 2"):
            EncryptedComparator(Session(mini(t=3), seed=0))


class TestProgramGuards:
    @pytest.fixture(scope="class")
    def session(self):
        return Session(PARAMS, seed=3)

    def test_encode_takes_scalars_or_vectors(self, session):
        with pytest.raises(ValueError, match="scalar or 1-D"):
            session.encode([[1, 0], [0, 1]])

    def test_outputs_must_be_handles(self, session):
        with pytest.raises(ParameterError, match="must be handles"):
            session.compile({"out": 3})

    def test_outputs_must_come_from_this_session(self, session):
        stranger = Session(PARAMS, seed=4).encrypt(1)
        with pytest.raises(ParameterError, match="another session"):
            session.compile(stranger)

    def test_program_needs_an_output(self):
        with pytest.raises(ParameterError, match="at least one output"):
            HEProgram({}, PARAMS)

    def test_local_run_takes_no_options(self, session):
        program = session.compile(session.encrypt(1))
        with pytest.raises(TypeError, match="unknown options"):
            LocalBackend(session).run(program, requests=2)

    def test_local_run_matches_parameters(self, session):
        other = Session(mini(), seed=5)
        program = other.compile(other.encrypt(1))
        with pytest.raises(ParameterError, match="different parameters"):
            LocalBackend(session).run(program)

    @pytest.mark.parametrize("option, match", [
        ({"requests": 0}, "at least one request"),
        ({"num_tenants": 0}, "at least one tenant"),
        ({"rate_per_second": 0.0}, "rate must be positive"),
    ], ids=["requests", "tenants", "rate"])
    def test_simulated_load_is_positive(self, session, option, match):
        program = session.compile(session.encrypt(1))
        backend = SimulatedBackend.over_runtime(PARAMS)
        with pytest.raises(ValueError, match=match):
            backend.run(program, **option)

    def test_matmul_entries_are_plaintext_residues(self, session):
        with pytest.raises(ParameterError, match=r"in \[0, t\)"):
            EncryptedMatmul(session).encrypt_rows([[1, PARAMS.t]])

    def test_matmul_entry_pairs_blocks(self, session):
        with pytest.raises(ParameterError, match="block counts differ"):
            EncryptedMatmul(session).entry_expr([session.encrypt(1)], [])

    def test_thread_pool_needs_a_worker(self):
        with pytest.raises(ValueError, match="at least one worker"):
            ThreadPoolExecutor(0)

    @pytest.mark.parametrize("flag", ["--shards", "--requests",
                                      "--tenants", "--replicas",
                                      "--workers"])
    def test_cli_counts_are_positive(self, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["list", flag, "0"])
        assert exit_info.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


class TestReducerGuards:
    def test_sliding_window_modulus_floor(self):
        with pytest.raises(ParameterError, match="at least 2"):
            SlidingWindowReducer(1)


class TestServingGuards:
    def test_runtime_needs_a_coprocessor(self):
        """A board without a coprocessor is refused where it is
        described, before any runtime or cost model is built."""
        with pytest.raises(ParameterError, match="at least one coprocessor"):
            HardwareConfig(num_coprocessors=0)

    @pytest.mark.parametrize("method", ["spill", "fail_one",
                                        "completion_feeds",
                                        "rejection_feeds"])
    def test_stepping_needs_begin(self, method):
        runtime = ServingRuntime(COST)
        with pytest.raises(RuntimeError, match="begin"):
            getattr(runtime, method)()

    def test_empty_batch_has_no_price(self):
        with pytest.raises(ValueError, match="at least one job"):
            DmaBatcher(COST).service_seconds([])

    def test_tenant_queue_bound_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            Tenant("a", max_queue_depth=-1)

    def test_tenant_set_membership_is_declared_tenants(self):
        tenants = TenantSet.of(Tenant("a"))
        tenants.get("b")  # an unknown name gets a cached default
        assert "a" in tenants
        assert "b" not in tenants


class TestFaultGuards:
    def test_event_shard_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultEvent(0.1, FaultKind.JOB_FAIL, -1)

    def test_seeded_plan_needs_a_shard(self):
        with pytest.raises(ValueError, match="at least one shard"):
            FaultPlan.seeded(0, 0, 1.0)

    def test_seeded_plan_needs_a_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultPlan.seeded(0, 2, 0.0)

    def test_cluster_shard_names_unique(self):
        with pytest.raises(ValueError, match="unique"):
            FpgaCluster([ServingRuntime(COST, name="a"),
                         ServingRuntime(COST, name="a")])
