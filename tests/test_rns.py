"""Tests for RNS bases, lift, scale, and decomposition (paper Sec. III-B,
IV-C, IV-D). These validate the exact arithmetic the hardware datapaths
reuse, including the fixed-point quotient estimates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel.config as parallel_config
from repro.errors import ParameterError
from repro.fv.sampler import uniform_rns_rows
from repro.obs import Tracer, current_registry
from repro.parallel import use_executor
from repro.params import hpca19, large_ring, mini
from repro.rns.basis import (
    RECIP_FRACTION_BITS,
    RnsBasis,
    basis_for,
    decrypt_context,
    lift_context,
    scale_context,
)
from repro.rns.decompose import (
    decompose_poly_signed,
    signed_digit_decompose,
)
from repro.rns.decrypt import noise_norm, scale_to_t
from repro.rns.lift import (
    hps_quotient,
    lift_hps,
    lift_hps_ntt,
    lift_traditional,
)
from repro.rns.scale import scale_hps, scale_hps_ntt, scale_traditional
from repro.utils import round_half_away
from scaffolding import residues_of_coeffs, toy


@pytest.fixture(scope="module")
def q_basis(mini_params):
    return basis_for(mini_params.q_primes)


@pytest.fixture(scope="module")
def full_basis(mini_params):
    return basis_for(mini_params.q_primes + mini_params.p_primes)


class TestRnsBasis:
    def test_constants_satisfy_crt_identity(self, q_basis):
        for star, tilde, prime in zip(q_basis.q_star, q_basis.q_tilde,
                                      q_basis.primes, strict=True):
            assert (star * tilde) % prime == 1
            assert q_basis.modulus == star * prime

    def test_residues_and_reconstruct_roundtrip(self, q_basis, rng):
        for _ in range(50):
            value = int.from_bytes(rng.bytes(16), "little") % q_basis.modulus
            assert q_basis.reconstruct(q_basis.residues_of(value)) == value

    def test_reconstruct_centered(self, q_basis):
        value = q_basis.modulus - 3
        residues = q_basis.residues_of(value)
        assert q_basis.reconstruct_centered(residues) == -3

    def test_reconstruct_coeffs_matrix(self, q_basis, rng):
        values = [int(v) for v in rng.integers(0, 2**60, 20)]
        matrix = residues_of_coeffs(q_basis, values)
        assert q_basis.reconstruct_coeffs(matrix) == values

    def test_wrong_row_count_rejected(self, q_basis):
        with pytest.raises(ParameterError):
            q_basis.reconstruct_coeffs(np.zeros((2, 4), dtype=np.int64))

    def test_reciprocal_precision(self, q_basis):
        """recip_i = round(2^89 / q_i): |recip*q - 2^89| <= q/2."""
        for recip, prime in zip(q_basis.recip, q_basis.primes, strict=True):
            assert abs(recip * prime - (1 << RECIP_FRACTION_BITS)) \
                <= prime // 2

    def test_reciprocal_leading_zeros(self, q_basis):
        """Paper Sec. V-B2: first 29 fractional bits of 1/q_i are zero,
        so the stored reciprocal fits 60 bits."""
        for recip in q_basis.recip:
            assert recip.bit_length() <= 60

    def test_rejects_duplicate_primes(self):
        with pytest.raises(ParameterError):
            RnsBasis((17, 17))

    def test_star_mod_table_shape(self, q_basis, mini_params):
        table = q_basis.star_mod_table(mini_params.p_primes)
        assert table.shape == (mini_params.k_p, mini_params.k_q)


class TestHpsQuotient:
    """The fixed-point v' = round(sum x'_i / q_i) estimate (Fig. 6 Block 3)."""

    def test_limb_split_matches_bigint(self, q_basis, rng):
        k = q_basis.size
        x = rng.integers(0, 2**30 - 1, size=(k, 200)).astype(np.int64)
        x %= q_basis.primes_col
        fast = hps_quotient(q_basis, x)
        half = 1 << (RECIP_FRACTION_BITS - 1)
        for col in range(x.shape[1]):
            total = sum(
                int(x[i, col]) * q_basis.recip[i] for i in range(k)
            )
            expected = (total + half) >> RECIP_FRACTION_BITS
            assert fast[col] == expected

    def test_quotient_range(self, q_basis, rng):
        k = q_basis.size
        x = (rng.integers(0, 2**30, size=(k, 500)) % q_basis.primes_col)
        v = hps_quotient(q_basis, x.astype(np.int64))
        assert np.all(v >= 0) and np.all(v <= k)


def recompose_signed_digits(digits: list[int], base: int) -> int:
    """Inverse of :func:`signed_digit_decompose`."""
    value = 0
    for digit in reversed(digits):
        value = value * base + digit
    return value


def lift_hps_reference(context, residues: np.ndarray) -> np.ndarray:
    """Big-integer re-evaluation of the HPS lift formula.

    Computes exactly the same quantity as :func:`lift_hps` but with
    unbounded Python integers, proving the limb-split arithmetic exact.
    """
    basis = context.source
    matrix = np.asarray(residues, dtype=np.int64)
    n = matrix.shape[1]
    out = np.empty((len(context.target_primes), n), dtype=np.int64)
    half = 1 << (RECIP_FRACTION_BITS - 1)
    for col in range(n):
        x_prime = [
            int(matrix[i, col]) * basis.q_tilde[i] % basis.primes[i]
            for i in range(basis.size)
        ]
        total = sum(
            xp * basis.recip[i] for i, xp in enumerate(x_prime)
        )
        v = (total + half) >> RECIP_FRACTION_BITS
        value = sum(
            xp * basis.q_star[i] for i, xp in enumerate(x_prime)
        ) - v * basis.modulus
        for j, t_j in enumerate(context.target_primes):
            out[j, col] = value % t_j
    return out


class TestLift:
    def test_hps_matches_bigint_reference(self, mini_params, q_basis, rng):
        ctx = lift_context(mini_params.q_primes, mini_params.p_primes)
        values = [
            int.from_bytes(rng.bytes(24), "little") % q_basis.modulus
            for _ in range(300)
        ]
        residues = residues_of_coeffs(q_basis, values)
        assert np.array_equal(lift_hps(ctx, residues),
                              lift_hps_reference(ctx, residues))

    def test_hps_produces_centered_representative(self, mini_params,
                                                  q_basis, rng):
        ctx = lift_context(mini_params.q_primes, mini_params.p_primes)
        values = [
            int.from_bytes(rng.bytes(24), "little") % q_basis.modulus
            for _ in range(300)
        ]
        residues = residues_of_coeffs(q_basis, values)
        out = lift_hps(ctx, residues)
        q = q_basis.modulus
        for col, value in enumerate(values):
            centered = value - q if value > q // 2 else value
            for j, prime in enumerate(mini_params.p_primes):
                assert out[j, col] == centered % prime

    def test_traditional_is_exact_crt(self, mini_params, q_basis, rng):
        ctx = lift_context(mini_params.q_primes, mini_params.p_primes)
        values = [
            int.from_bytes(rng.bytes(24), "little") % q_basis.modulus
            for _ in range(100)
        ]
        residues = residues_of_coeffs(q_basis, values)
        out = lift_traditional(ctx, residues)
        for col, value in enumerate(values):
            for j, prime in enumerate(mini_params.p_primes):
                assert out[j, col] == value % prime

    def test_boundary_values(self, mini_params, q_basis):
        """0, 1, q-1 and the q/2 neighbourhood lift to a representative
        congruent mod q with magnitude at most q/2 + 2.

        Values within ~2^-56 * q of the q/2 boundary may land on either
        side of it: the stored reciprocals are rounded, so the quotient
        estimate can tip over exactly at the boundary. This is the
        approximation the paper calls negligible (Sec. IV-C) — the FV
        noise analysis absorbs a q-multiple shift of this size.
        """
        q = q_basis.modulus
        ctx = lift_context(mini_params.q_primes, mini_params.p_primes)
        values = [0, 1, q - 1, q // 2, q // 2 + 1, q // 2 - 1]
        residues = residues_of_coeffs(q_basis, values)
        out = lift_hps(ctx, residues)
        for col, value in enumerate(values):
            candidates = [value, value - q]
            matched = any(
                all(out[j, col] == cand % prime
                    for j, prime in enumerate(mini_params.p_primes))
                and abs(cand) <= q // 2 + 2
                for cand in candidates
            )
            assert matched, (col, value)

    def test_rejects_wrong_shape(self, mini_params):
        ctx = lift_context(mini_params.q_primes, mini_params.p_primes)
        with pytest.raises(ParameterError):
            lift_hps(ctx, np.zeros((2, 5), dtype=np.int64))

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_hps_congruence_property(self, mini_params, data):
        """For arbitrary residue inputs the lifted value is congruent to
        the input modulo q and bounded by q (HPS centering)."""
        q_basis_local = basis_for(mini_params.q_primes)
        ctx = lift_context(mini_params.q_primes, mini_params.p_primes)
        residues = np.array([
            [data.draw(st.integers(0, int(p) - 1))]
            for p in mini_params.q_primes
        ], dtype=np.int64)
        out = lift_hps(ctx, residues)
        value = q_basis_local.reconstruct(residues[:, 0])
        full = basis_for(mini_params.p_primes)
        lifted = full.reconstruct_centered(out[:, 0])
        assert (lifted - value) % q_basis_local.modulus == 0
        assert abs(lifted) <= q_basis_local.modulus


class TestScale:
    def bound(self, params, q):
        return params.n * (q // 2) ** 2

    def test_hps_matches_exact_rounding(self, mini_params, q_basis,
                                        full_basis, rng):
        ctx = scale_context(mini_params.q_primes, mini_params.p_primes,
                            mini_params.t)
        q = q_basis.modulus
        bound = self.bound(mini_params, q)
        values = [
            int.from_bytes(rng.bytes(40), "little") % (2 * bound) - bound
            for _ in range(300)
        ]
        residues = residues_of_coeffs(full_basis, values)
        out = scale_hps(ctx, residues)
        for col, value in enumerate(values):
            want = round_half_away(mini_params.t * value, q)
            for i, prime in enumerate(mini_params.q_primes):
                assert out[i, col] == want % prime

    def test_traditional_matches_exact_rounding(self, mini_params, q_basis,
                                                full_basis, rng):
        ctx = scale_context(mini_params.q_primes, mini_params.p_primes,
                            mini_params.t)
        q = q_basis.modulus
        bound = self.bound(mini_params, q)
        values = [
            int.from_bytes(rng.bytes(40), "little") % (2 * bound) - bound
            for _ in range(100)
        ]
        residues = residues_of_coeffs(full_basis, values)
        out = scale_traditional(ctx, residues)
        for col, value in enumerate(values):
            want = round_half_away(mini_params.t * value, q)
            for i, prime in enumerate(mini_params.q_primes):
                assert out[i, col] == want % prime

    def test_zero_scales_to_zero(self, mini_params, full_basis):
        ctx = scale_context(mini_params.q_primes, mini_params.p_primes,
                            mini_params.t)
        residues = np.zeros((full_basis.size, 4), dtype=np.int64)
        assert np.all(scale_hps(ctx, residues) == 0)

    def test_multiples_of_q_scale_exactly(self, mini_params, q_basis,
                                          full_basis):
        """t * (k*q) / q = t*k exactly, no rounding ambiguity."""
        ctx = scale_context(mini_params.q_primes, mini_params.p_primes,
                            mini_params.t)
        q = q_basis.modulus
        values = [q, 2 * q, 100 * q, -7 * q]
        residues = residues_of_coeffs(full_basis, values)
        out = scale_hps(ctx, residues)
        for col, value in enumerate(values):
            expected = mini_params.t * (value // q)
            for i, prime in enumerate(mini_params.q_primes):
                assert out[i, col] == expected % prime

    def test_plaintext_moduli(self, mini_params, q_basis, full_basis, rng):
        """The scale pipeline is exact for every supported t."""
        q = q_basis.modulus
        bound = self.bound(mini_params, q)
        values = [
            int.from_bytes(rng.bytes(40), "little") % (2 * bound) - bound
            for _ in range(50)
        ]
        residues = residues_of_coeffs(full_basis, values)
        for t in (2, 3, 16, 257, 65537):
            ctx = scale_context(mini_params.q_primes, mini_params.p_primes,
                                t)
            out = scale_hps(ctx, residues)
            for col, value in enumerate(values):
                want = round_half_away(t * value, q)
                for i, prime in enumerate(mini_params.q_primes):
                    assert out[i, col] == want % prime, (t, col)

    def test_rejects_wrong_shape(self, mini_params):
        ctx = scale_context(mini_params.q_primes, mini_params.p_primes, 2)
        with pytest.raises(ParameterError):
            scale_hps(ctx, np.zeros((3, 5), dtype=np.int64))


class TestSignedDigits:
    def test_paper_toy_example(self):
        """Paper Sec. II-B: 43 and 39 in base 2^4 with signed digits."""
        assert signed_digit_decompose(43, 16, 2) == [-5, 3]
        assert signed_digit_decompose(39, 16, 2) == [7, 2]

    def test_roundtrip(self):
        for value in range(-120, 121):
            digits = signed_digit_decompose(value, 16, 3)
            assert recompose_signed_digits(digits, 16) == value

    def test_digit_bounds(self):
        for value in range(-500, 500, 7):
            for digit in signed_digit_decompose(value, 32, 3):
                assert -16 <= digit < 16

    def test_values_up_to_the_bound_fit(self):
        """Every |value| < base**count / 2 fits; the top digit may reach
        +base/2 (2000 = 8 * 16**2 - 48 needs it)."""
        for value in range(-2047, 2048):
            digits = signed_digit_decompose(value, 16, 3)
            assert recompose_signed_digits(digits, 16) == value
            assert all(-8 <= d < 8 for d in digits[:-1])
            assert -8 <= digits[-1] <= 8
        assert signed_digit_decompose(2000, 16, 3)[-1] == 8

    def test_rejects_overflow(self):
        with pytest.raises(ParameterError):
            signed_digit_decompose(10**6, 16, 2)

    def test_rejects_odd_base(self):
        with pytest.raises(ParameterError):
            signed_digit_decompose(5, 15, 2)

    @given(st.integers(-(2**59 - 2**30), 2**59 - 2**30))
    def test_roundtrip_property(self, value):
        # Two signed base-2^30 digits cover +-(2^59 - 2^30) comfortably.
        digits = signed_digit_decompose(value, 1 << 30, 2)
        assert recompose_signed_digits(digits, 1 << 30) == value
        assert all(-2**29 <= d < 2**29 for d in digits)

    def test_poly_decomposition(self, q_basis):
        q = q_basis.modulus
        coeffs = [5, q - 5, q // 3, 0]
        count = -(-q.bit_length() // 30)
        digit_polys = decompose_poly_signed(coeffs, q, 1 << 30, count)
        assert len(digit_polys) == count
        for idx, coeff in enumerate(coeffs):
            centered = coeff - q if coeff > q // 2 else coeff
            recomposed = recompose_signed_digits(
                [digit_polys[level][idx] for level in range(count)], 1 << 30
            )
            assert recomposed == centered


class TestColumnBands:
    """Lift, Scale and the decrypt kernels are element-wise in the
    coefficient column, so a pool runs them as column bands; the banded
    result must equal the serial one as integers. Three workers make
    six bands, which never divide a power-of-two column count evenly
    (and the raw Scale input below is three columns short of one)."""

    @pytest.mark.parametrize("make", [
        toy, mini, hpca19,
        pytest.param(lambda: large_ring(8192), marks=pytest.mark.slow),
    ], ids=["toy", "mini", "hpca19", "large_ring_8192"])
    def test_banded_kernels_equal_serial(self, make, monkeypatch):
        monkeypatch.setattr(parallel_config, "PARALLEL_MIN_WORK", 1)
        params = make()
        n, full = params.n, params.q_primes + params.p_primes
        rng = np.random.default_rng(n)
        lift_ctx = lift_context(params.q_primes, full)
        scale_ctx = scale_context(params.q_primes, params.p_primes, params.t)
        decrypt_ctx = decrypt_context(params.q_primes, params.t)
        q_stack = np.stack([uniform_rns_rows(rng, n, params.q_primes)
                            for _ in range(4)])
        full_stack = np.stack([uniform_rns_rows(rng, n, full)
                               for _ in range(3)])

        def kernels():
            m = scale_to_t(decrypt_ctx, q_stack[0])
            return {
                "lift_stack": lift_hps_ntt(lift_ctx, q_stack),
                "lift_single": lift_hps_ntt(lift_ctx, q_stack[1],
                                            lazy=False),
                "scale_stack": scale_hps_ntt(scale_ctx, full_stack),
                "scale_single": scale_hps_ntt(scale_ctx, full_stack[1]),
                "scale_raw": scale_hps(scale_ctx, full_stack[2][:, :n - 3]),
                "scale_to_t": m,
                "noise_norm": noise_norm(decrypt_ctx, q_stack[0], m),
            }

        with use_executor("serial"):
            want = kernels()
        tracer = Tracer()
        with use_executor("threads", 3), tracer.activate(), \
                tracer.span("root", kind="op"):
            got = kernels()
        assert isinstance(got["noise_norm"], int)
        for name, value in want.items():
            assert np.array_equal(got[name], value), f"{name} diverged"
        tiles = [s for s in tracer.report().root.walk() if s.kind == "tile"]
        assert {"lift.band", "scale.band", "decrypt.band"} <= {
            s.name for s in tiles}
        # Six uneven bands per banded kernel, on worker lanes.
        scale_raw = [s.attrs["tile"] for s in tiles
                     if s.name == "scale.band"][-6:]
        assert sorted(scale_raw)[0][0] == 0
        assert sorted(scale_raw)[-1][1] == n - 3
        assert len({hi - lo for lo, hi in scale_raw}) == 2
        assert all(s.attrs["worker"].startswith("repro-w") for s in tiles)
        assert current_registry().value(
            "parallel_dispatch_total", executor="threads") >= 7.0
