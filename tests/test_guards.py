"""Input guards that fail loudly: constructors reject impossible
configurations and stepping methods refuse to run out of order.

Each test feeds one bad value (or one out-of-order call) to one public
type and checks that it raises the documented error instead of building
a half-valid object or corrupting a later result.
"""

import numpy as np
import pytest

from repro.api import Session
from repro.apps.comparator import EncryptedComparator
from repro.cluster import FpgaCluster
from repro.errors import EncodingError, HardwareModelError, ParameterError
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.fv.ciphertext import Ciphertext
from repro.fv.encoder import IntegerEncoder
from repro.hw.config import HardwareConfig
from repro.hw.modred import BarrettReducer, SlidingWindowReducer
from repro.io import load_galois_keys, load_keyset, save_keyset
from repro.nttmath.primes import find_ntt_primes, primitive_root
from repro.params import mini, toy
from repro.poly.dense import IntPoly
from repro.poly.rns_poly import RnsPoly
from repro.rns.basis import RnsBasis, basis_for
from repro.serve import (
    DmaBatcher,
    ServingRuntime,
    Tenant,
    TenantSet,
    WeightedFairScheduler,
)
from repro.system.server import CostModel

PARAMS = toy()
COST = CostModel(mini())


class TestPrimeSearch:
    def test_ring_degree_must_be_a_power_of_two(self):
        with pytest.raises(ParameterError, match="power of two"):
            find_ntt_primes(30, 48, 1)

    def test_prime_size_floor(self):
        with pytest.raises(ParameterError, match="at least 4 bits"):
            find_ntt_primes(3, 2, 1)

    def test_primitive_root_of_two(self):
        assert primitive_root(2) == 1


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
            _ = RnsPoly.zero(basis, PARAMS.n) + RnsPoly.zero(other, PARAMS.n)

    def test_rns_poly_degrees_must_match(self, basis):
        with pytest.raises(ParameterError, match="different degrees"):
            _ = (RnsPoly.zero(basis, PARAMS.n)
                 + RnsPoly.zero(basis, PARAMS.n // 2))

    def test_rns_basis_rejects_two(self):
        with pytest.raises(ParameterError, match="odd primes"):
            RnsBasis([2, 5])


class TestCiphertextShape:
    @pytest.fixture(scope="class")
    def part(self):
        return RnsPoly.zero(basis_for(PARAMS.q_primes), PARAMS.n)

    def test_part_count(self, part):
        with pytest.raises(ParameterError, match="two or three parts"):
            Ciphertext((part,), PARAMS)

    def test_part_degree(self):
        half = RnsPoly.zero(basis_for(PARAMS.q_primes), PARAMS.n // 2)
        with pytest.raises(ParameterError, match="degree n"):
            Ciphertext((half, half), PARAMS)

    def test_two_part_ciphertext_has_no_c2(self, part):
        with pytest.raises(ParameterError, match="no third part"):
            _ = Ciphertext((part, part), PARAMS).c2


class TestEncodingGuards:
    def test_integer_wider_than_the_ring(self):
        encoder = IntegerEncoder(PARAMS, base=2)
        with pytest.raises(EncodingError, match="more than"):
            encoder.encode(1 << PARAMS.n)

    def test_comparator_needs_binary_plaintexts(self):
        with pytest.raises(ParameterError, match="t = 2"):
            EncryptedComparator(Session(mini(t=3), seed=0), bits=2)

    def test_comparator_needs_a_bit(self):
        with pytest.raises(ParameterError, match="at least one bit"):
            EncryptedComparator(Session(mini(t=2), seed=0), bits=0)


class TestKeyFileKinds:
    def test_key_set_loader_refuses_galois_file(self, tmp_path, toy_context,
                                                toy_keys):
        from repro.fv.galois import GaloisEngine
        from repro.io import save_galois_keys

        params = toy_context.params
        keys = GaloisEngine(toy_context).summation_keygen(toy_keys.secret)
        path = tmp_path / "galois.bin"
        save_galois_keys(path, keys, params)
        with pytest.raises(EncodingError, match="does not hold a key set"):
            load_keyset(path, params)

    def test_galois_loader_refuses_key_set_file(self, tmp_path, toy_context,
                                                toy_keys):
        params = toy_context.params
        path = tmp_path / "keys.bin"
        save_keyset(path, toy_keys, params)
        with pytest.raises(EncodingError, match="does not hold Galois"):
            load_galois_keys(path, params)


class TestReducerGuards:
    def test_sliding_window_modulus_floor(self):
        with pytest.raises(ParameterError, match="at least 2"):
            SlidingWindowReducer(1)

    def test_barrett_modulus_floor(self):
        with pytest.raises(ParameterError, match="at least 2"):
            BarrettReducer(1)

    @pytest.mark.parametrize("value", [-1, 1 << 60])
    def test_barrett_operand_range(self, value):
        barrett = BarrettReducer(PARAMS.q_primes[0])
        with pytest.raises(HardwareModelError, match="Barrett range"):
            barrett.reduce(value)


class TestServingGuards:
    def test_runtime_needs_a_coprocessor(self):
        config = HardwareConfig(num_coprocessors=0)
        with pytest.raises(ValueError, match="at least one coprocessor"):
            ServingRuntime(CostModel(mini(), config))

    @pytest.mark.parametrize("method", ["spill", "fail_one",
                                        "completion_feeds",
                                        "rejection_feeds"])
    def test_stepping_needs_begin(self, method):
        runtime = ServingRuntime(COST)
        with pytest.raises(RuntimeError, match="begin"):
            getattr(runtime, method)()

    def test_fair_share_default_weight_positive(self):
        with pytest.raises(ValueError, match="positive"):
            WeightedFairScheduler(default_weight=0.0)

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
