"""Differential tests of the one key switch (relinearisation + Galois)
and of the hoisted slot-summation ladder built on it.

:func:`repro.fv.keyswitch.key_switch` serves every caller: it takes the
digits transformed by the fused lazy ``ntt_broadcast_rows`` ([0, 2q)
outputs) — or the canonical grouped / signed digits — accumulates
digit/key products in int64 with a four-term reduction window, and adds
the sums into (c0, c1) in the requested domain, whichever domain those
arrived in. The oracle here recomputes it from its definition —
``broadcast_digit_rows``, canonical ``ntt_rows``, Python-int
accumulation — and must agree bit for bit. Under the thread pool the
fold runs as channel bands through the instrumented fan-out, which the
``threads@2`` arm checks from the trace.

Galois keys hold ``uint32`` rows; every oracle below widens them to
Python integers, so a consumer multiplying them outside int64 (numpy 2
keeps ``uint32_row * python_int`` in uint32) cannot agree with it.
"""

import numpy as np
import pytest

import repro.parallel.config as parallel_config
from repro.api import LocalBackend, Session, rotate, sum_slots
from repro.errors import ParameterError
from repro.fv.ciphertext import Ciphertext
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.galois import (
    CONJUGATE_QUARTER,
    GaloisEngine,
    GaloisKey,
    apply_galois_rows,
    rotation_element,
    summation_rounds,
)
from repro.fv.scheme import FvContext
from repro.io import load_galois_keys, save_galois_keys
from repro.nttmath import find_ntt_primes
from repro.nttmath.batch import intt_rows, ntt_rows, transform_counts
from repro.obs import Tracer, current_registry
from repro.parallel import use_executor
from repro.params import PRIME_BITS, ParameterSet, hpca19, mini, toy
from repro.rns.decompose import broadcast_digit_rows, grouped_rns_digits


@pytest.fixture(scope="module", params=[toy, mini, hpca19],
                ids=["toy", "mini", "hpca19"])
def setup(request):
    context = FvContext(request.param(), seed=2019)
    keys = context.keygen()
    galois_key = GaloisEngine(context).keygen(
        keys.secret, rotation_element(1, context.params.n))
    return context, keys, galois_key


def _encrypt_pair(context, keys, resident):
    params = context.params
    rng = np.random.default_rng(params.n)
    return [
        context.encrypt(
            Plaintext(rng.integers(0, params.t, params.n), params.t),
            keys.public, resident=resident)
        for _ in range(2)
    ]


def _oracle_accumulators(context, digits, pairs):
    """sum_i NTT(D_i) * key_i per channel, in unbounded integers.

    ``digits`` is the ``(count, k_q, n)`` stack of per-channel reduced
    digit rows."""
    primes_col = context.q_basis.primes_col
    d_ntt = ntt_rows(context.params.q_primes, digits).astype(object)
    acc0 = sum(d * b.astype(object)
               for d, (b, _) in zip(d_ntt, pairs, strict=True))
    acc1 = sum(d * a.astype(object)
               for d, (_, a) in zip(d_ntt, pairs, strict=True))
    return ((acc0 % primes_col).astype(np.int64),
            (acc1 % primes_col).astype(np.int64))


def _resident_parts(raw):
    """The three-part ciphertext with (c0, c1) in the NTT domain."""
    return Ciphertext((raw.c0.to_ntt(), raw.c1.to_ntt(), raw.c2),
                      raw.params)


def _assert_parts(ct, c0_rows, c1_rows, ntt_domain):
    assert ct.c0.ntt_domain == ct.c1.ntt_domain == ntt_domain
    assert np.array_equal(ct.c0.residues, c0_rows)
    assert np.array_equal(ct.c1.residues, c1_rows)


@pytest.mark.parametrize("executor", [("serial", 1), ("threads", 2)],
                         ids=["serial", "threads@2"])
@pytest.mark.parametrize("resident", [False, True],
                         ids=["coefficient", "resident"])
def test_fold_matches_python_int_oracle(setup, resident, executor,
                                        monkeypatch):
    """``resident`` is the requested output domain (and the domain the
    operands are encrypted in); relinearisation is additionally fed
    (c0, c1) in both domains, so all four (parts, output) cells run."""
    monkeypatch.setattr(parallel_config, "PARALLEL_MIN_WORK", 1)
    context, keys, galois_key = setup
    params = context.params
    primes = params.q_primes
    primes_col = context.q_basis.primes_col
    a, b = _encrypt_pair(context, keys, resident)
    evaluator = Evaluator(context)
    engine = GaloisEngine(context)

    # Relinearisation: c2 is always coefficient-domain (WordDecomp reads
    # raw residues); (c0, c1) are accepted in either domain and the
    # result is the same ciphertext.
    raw = evaluator.multiply_raw(a, b)
    acc0, acc1 = _oracle_accumulators(
        context, broadcast_digit_rows(raw.c2.residues, context.q_basis),
        keys.relin.pairs)
    c0, c1 = raw.c0.residues, raw.c1.residues
    if resident:
        c0, c1 = ntt_rows(primes, c0), ntt_rows(primes, c1)
    else:
        acc0, acc1 = intt_rows(primes, acc0), intt_rows(primes, acc1)
    tracer = Tracer()
    for ct in (raw, _resident_parts(raw)):
        with use_executor(*executor), tracer.activate(), \
                tracer.span("root", kind="op"):
            got = evaluator.relinearize(ct, keys.relin, resident=resident)
        _assert_parts(got, (c0 + acc0) % primes_col,
                      (c1 + acc1) % primes_col, ntt_domain=resident)

    # Galois key switch: the oracle goes through coefficients on both
    # parts, whatever domain the input arrived in.
    coeff = context.to_coeff_ct(a)
    g = galois_key.element
    tau_c0 = apply_galois_rows(coeff.c0.residues, primes_col, params.n, g)
    tau_c1 = apply_galois_rows(coeff.c1.residues, primes_col, params.n, g)
    acc0, acc1 = _oracle_accumulators(
        context, broadcast_digit_rows(tau_c1, context.q_basis),
        galois_key.pairs)
    with use_executor(*executor), tracer.activate(), \
            tracer.span("root", kind="op"):
        got = engine.apply_resident(a, galois_key)
    _assert_parts(got, (ntt_rows(primes, tau_c0) + acc0) % primes_col, acc1,
                  ntt_domain=True)
    # The coefficient-output entry point is the same switch, inverse
    # transformed.
    _assert_parts(engine.apply(a, galois_key),
                  intt_rows(primes, got.c0.residues),
                  intt_rows(primes, got.c1.residues), ntt_domain=False)

    # All three folds went through the instrumented fan-out as channel
    # bands on worker lanes — or, serially, through no fan-out at all.
    folds = [s for s in tracer.report().root.walk()
             if s.kind == "tile" and s.name == "fold.band"]
    if executor[0] == "serial":
        assert not folds
    else:
        assert len(folds) == 3 * min(4, len(primes))
        assert all(s.attrs["worker"].startswith("repro-w") for s in folds)
        assert current_registry().value("parallel_dispatch_total",
                                        executor="threads") >= 3.0


def test_grouped_and_digit_relinearize_share_the_switch(setup):
    """The hw model's two oracles: grouped digits against the Python-int
    oracle, signed base-w digits against their own coefficient form —
    each with (c0, c1) in both domains."""
    context, keys, _ = setup
    primes = context.params.q_primes
    primes_col = context.q_basis.primes_col
    evaluator = Evaluator(context)
    raw = evaluator.multiply_raw(*_encrypt_pair(context, keys, False))
    resident_parts = _resident_parts(raw)

    grouped = context.relin_keygen_grouped(keys.secret, group_size=2)
    acc0, acc1 = _oracle_accumulators(
        context,
        grouped_rns_digits(context.q_basis, raw.c2.residues, 2),
        grouped.pairs)
    for ct in (raw, resident_parts):
        _assert_parts(
            evaluator.relinearize_grouped(ct, grouped),
            (raw.c0.residues + intt_rows(primes, acc0)) % primes_col,
            (raw.c1.residues + intt_rows(primes, acc1)) % primes_col,
            ntt_domain=False)

    digit = context.relin_keygen_digit(keys.secret, base_bits=30)
    want = evaluator.relinearize_digit(raw, digit)
    assert context.decrypt(want, keys.secret) == \
        context.decrypt(raw, keys.secret)
    _assert_parts(evaluator.relinearize_digit(resident_parts, digit),
                  want.c0.residues, want.c1.residues, ntt_domain=False)


@pytest.mark.parametrize("resident", [False, True],
                         ids=["coefficient", "resident"])
def test_hoisted_group_shares_one_digit_transform(setup, resident):
    """``apply_many_resident`` decrypts like per-key ``apply_resident``
    and pays exactly one broadcast transform for the whole group."""
    context, keys, galois_key = setup
    params = context.params
    engine = GaloisEngine(context)
    group = {1: galois_key,
             3: engine.keygen(keys.secret, rotation_element(3, params.n))}
    (a, _) = _encrypt_pair(context, keys, resident)
    before = transform_counts()
    many = engine.apply_many_resident(a, group)
    after = transform_counts()
    # One (k_q x k_q)-row broadcast for the group; a coefficient c0
    # additionally takes its own forward transform, once.
    assert after["forward_calls"] - before["forward_calls"] == \
        (1 if resident else 2)
    assert after["forward_rows"] - before["forward_rows"] == \
        params.k_q * params.k_q + (0 if resident else params.k_q)
    assert after["inverse_rows"] - before["inverse_rows"] == \
        (params.k_q if resident else 0)
    for steps, key in group.items():
        assert many[steps].ntt_resident
        assert context.decrypt(many[steps], keys.secret) == \
            context.decrypt(engine.apply_resident(a, key), keys.secret)


EXECUTORS = pytest.mark.parametrize(
    "executor", [("serial", 1), ("threads", 2)], ids=["serial", "threads@2"])


def _count_diff(before, after):
    return {name: after[name] - before[name] for name in after}


@EXECUTORS
@pytest.mark.parametrize("rows", ["uint32", "int64-loaded"])
def test_hoisted_round_matches_python_int_oracle(setup, rows, executor,
                                                 monkeypatch, tmp_path):
    """Every output of ``apply_many_resident`` is, as Python integers
    modulo each prime, ``(tau_g(c0) + sum_i tau_g(d_i) b_i,
    sum_i tau_g(d_i) a_i)`` over the *signed* permuted digits — on the
    ladder's last round, which holds the composite conjugation key.
    ``int64-loaded`` keys went through the bundle file with the int64
    rows a pre-compaction engine held (the same bytes on disk)."""
    monkeypatch.setattr(parallel_config, "PARALLEL_MIN_WORK", 1)
    context, keys, _ = setup
    params = context.params
    primes = params.q_primes
    primes_col = context.q_basis.primes_col
    engine = GaloisEngine(context)
    elements = summation_rounds(params.n)[-1]
    assert CONJUGATE_QUARTER in elements
    group = {label: engine.keygen(keys.secret, g)
             for label, g in elements.items()}
    if rows == "int64-loaded":
        wide = {
            label: GaloisKey(key.element, [
                (b.astype(np.int64), a.astype(np.int64))
                for b, a in key.pairs])
            for label, key in group.items()
        }
        save_galois_keys(tmp_path / "round.bin", wide, params)
        group = load_galois_keys(tmp_path / "round.bin", params)
    assert all(row.dtype == np.uint32
               for key in group.values() for pair in key.pairs
               for row in pair)

    (ct, _) = _encrypt_pair(context, keys, True)
    coeff = context.to_coeff_ct(ct)
    digits = broadcast_digit_rows(coeff.c1.residues, context.q_basis)
    with use_executor(*executor):
        many = engine.apply_many_resident(ct, group)
    assert many.keys() == group.keys()
    for label, key in group.items():
        g = key.element
        tau_digits = np.stack([
            apply_galois_rows(digit, primes_col, params.n, g)
            for digit in digits])
        acc0, acc1 = _oracle_accumulators(context, tau_digits, key.pairs)
        tau_c0 = ntt_rows(primes, apply_galois_rows(
            coeff.c0.residues, primes_col, params.n, g))
        _assert_parts(many[label], (tau_c0 + acc0) % primes_col, acc1,
                      ntt_domain=True)


def test_compact_rows_need_an_int64_partner():
    """The numpy 2 promotion facts the compact keys rest on: against an
    int64 digit the product is int64; against a bare Python int it
    would stay uint32 and wrap."""
    row = np.array([(1 << 30) - 1], dtype=np.uint32)
    digit = np.array([(1 << 31) - 1], dtype=np.int64)
    out = np.empty(1, dtype=np.int64)
    np.multiply(digit, row, out=out)
    assert out[0] == ((1 << 31) - 1) * ((1 << 30) - 1)
    assert (digit * row).dtype == np.int64
    assert (row * 3).dtype == np.uint32


def _ring128(t):
    """n = 128: n/2 = 2^6, so seven generators — an odd count."""
    primes = find_ntt_primes(PRIME_BITS, 128, 7)
    return ParameterSet("ring128", 128, tuple(primes[:3]),
                        tuple(primes[3:]), t, 3.2)


@EXECUTORS
@pytest.mark.parametrize(
    "params, rounds, radix2_tail",
    [(toy(t=257), 3, False), (_ring128(257), 4, True),
     (hpca19(t=65537), 6, False)],
    ids=["toy", "ring128-odd", "hpca19"])
def test_summation_ladder(params, rounds, radix2_tail, executor,
                          monkeypatch):
    """Every slot of ``sum_all_slots_resident`` decrypts to the total,
    the measured budget is inside the static worst case, and the ladder
    pays exactly one decomposition per hoisted round."""
    monkeypatch.setattr(parallel_config, "PARALLEL_MIN_WORK", 1)
    session = Session(params, seed=19)
    schedule = summation_rounds(params.n)
    assert len(schedule) == rounds
    assert [len(r) for r in schedule] == \
        [3] * (rounds - radix2_tail) + [1] * radix2_tail
    keys = session.summation_keys()
    values = np.random.default_rng(params.n).integers(0, params.t, params.n)
    handle = session.encrypt(values, resident=True)
    ct = handle.node.cached

    before = transform_counts()
    with use_executor(*executor):
        total = session.galois.sum_all_slots_resident(ct, keys)
    spent = _count_diff(before, transform_counts())
    k_q = params.k_q
    assert spent["inverse_rows"] == rounds * k_q
    assert spent["forward_rows"] == rounds * k_q * k_q
    assert spent["forward_calls"] == spent["inverse_calls"] == rounds
    assert spent["roundtrip_rows"] == 0

    assert total.ntt_resident
    assert np.all(session.decrypt(total) == int(values.sum() % params.t))
    static = session.compile(sum_slots(handle)).static_noise_bits()["out"]
    assert session.noise_budget_bits(total) >= static > 0

    # A bundle short of a key (a pre-radix-4 one lacks the composites)
    # is refused by name before any key switch runs.
    del keys["conjugate"]
    before = transform_counts()
    with pytest.raises(ParameterError, match="conjugate"):
        session.galois.sum_all_slots_resident(ct, keys)
    assert transform_counts() == before


def test_rotsum_request_transform_rows_are_pinned():
    """The ledger's ``rotsum_n4096`` request shape, steady state (the
    plaintext pool warm): 18 forward rows to encrypt, then per run six
    hoisted summation rounds and one hoisted rotation group at
    k_q^2 forward + k_q inverse rows each, and the output boundary.
    270 forward / 78 inverse rows per request — CI's ``ledger-quick``
    job checks the same numbers on the ledger record."""
    session = Session(hpca19(t=65537))
    backend = LocalBackend(session)
    t = session.params.t
    weights = np.random.default_rng(0).integers(0, t, session.params.n)
    w_plain = session.encode(weights)
    values = np.arange(session.params.n)
    for _ in range(2):
        before = transform_counts()
        x = session.encrypt(values, resident=True)
        encrypt = _count_diff(before, transform_counts())
        result = backend.run(session.compile({
            "dot": sum_slots(x * w_plain),
            "win": (x + rotate(x, 1) + rotate(x, 2) + rotate(x, 3)) * 3,
        }, optimize=True))
    run = backend.telemetry["last_run"]
    assert np.all(result.decrypt("dot") == int((values * weights).sum() % t))
    assert (encrypt["forward_rows"] + run["forward_rows"],
            encrypt["inverse_rows"] + run["inverse_rows"]) == (270, 78)
    assert (encrypt["forward_calls"] + run["forward_calls"],
            run["inverse_calls"]) == (8, 13)


def test_mult_depth4_request_transform_rows_are_pinned():
    """The ledger's ``mult_depth4_n4096`` request shape, steady state:
    two resident encryptions, then ``(((a*b)*a)*b)*a``. Each of the ten
    part-lifts of resident rows costs k_p forward + k_q inverse rows: a
    and b are lifted once, by Mult 1, and held for Mults 2-4, instead of
    sixteen part-lifts. 298 forward / 234 inverse rows in 14 / 10 calls
    per request — CI's ``ledger-quick`` job checks the same numbers on
    the ledger record."""
    session = Session(hpca19())
    backend = LocalBackend(session)
    rng = np.random.default_rng(4)
    n = session.params.n
    for _ in range(2):
        before = transform_counts()
        a = session.encrypt(rng.integers(0, 2, n), resident=True)
        b = session.encrypt(rng.integers(0, 2, n), resident=True)
        encrypt = _count_diff(before, transform_counts())
        backend.run(session.compile((((a * b) * a) * b) * a))
    run = backend.telemetry["last_run"]
    assert tuple(encrypt[key] + run[key]
                 for key in ("forward_rows", "inverse_rows", "forward_calls",
                             "inverse_calls")) == (298, 234, 14, 10)
