"""Differential tests of the one key switch (relinearisation + Galois)
and of the hoisted slot-summation ladder built on it.

:func:`repro.fv.keyswitch.key_switch` serves every caller: it takes the
digits transformed by the fused lazy ``ntt_broadcast_rows`` ([0, 2q)
outputs) — or the canonical grouped / signed digits — accumulates
digit/key products in int64 with a four-term reduction window, and adds
the sums into (c0, c1) in the evaluation domain, where the result
lives. The oracle here recomputes it from its definition — digits
broadcast or cut from big integers, canonical ``ntt_rows``, Python-int
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
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.galois import (
    CONJUGATE_QUARTER,
    GaloisEngine,
    apply_galois_rows,
    rotation_element,
    summation_rounds,
)
from repro.fv.keys import RelinKey
from repro.fv.keyswitch import key_switch
from repro.fv.scheme import FvContext
from repro.nttmath import find_ntt_primes
from repro.nttmath.batch import ntt_rows, transform_counts
from repro.obs import Tracer, current_registry
from repro.parallel import use_executor
from repro.params import PRIME_BITS, ParameterSet, hpca19, mini
from repro.rns.decompose import WordDecomp, decompose_poly_signed
from scaffolding import toy


@pytest.fixture(scope="module", params=[toy, mini, hpca19],
                ids=["toy", "mini", "hpca19"])
def setup(request):
    context = FvContext(request.param(), seed=2019)
    keys = context.keygen()
    galois_key = GaloisEngine(context).keygen(
        keys.secret, rotation_element(1, context.params.n))
    return context, keys, galois_key


def _encrypt_pair(context, keys, resident):
    """Two evaluation-domain ciphertexts: as encrypted (``resident``)
    or brought back in from their coefficient form through the door
    (``Ciphertext.to_ntt``) — the same residues either way."""
    params = context.params
    rng = np.random.default_rng(params.n)
    cts = [
        context.encrypt(
            Plaintext(rng.integers(0, params.t, params.n), params.t),
            keys.public)
        for _ in range(2)
    ]
    return cts if resident else [ct.to_coeff().to_ntt() for ct in cts]


def _channel_rows(primes, digit_polys):
    """Integer digit polynomials reduced into every channel."""
    return np.array([[[d % p for d in digits] for p in primes]
                     for digits in digit_polys], dtype=np.int64)


def _raw_rows(residues, primes_col):
    """Raw-residue digits: row i of ``residues`` in every channel."""
    return residues[:, None, :] % primes_col


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
    """``resident`` is how the operands reached the evaluation domain
    (see :func:`_encrypt_pair`); both key switches land there."""
    monkeypatch.setattr(parallel_config, "PARALLEL_MIN_WORK", 1)
    context, keys, galois_key = setup
    params = context.params
    primes = params.q_primes
    primes_col = context.q_basis.primes_col
    a, b = _encrypt_pair(context, keys, resident)
    evaluator = Evaluator(context)
    engine = GaloisEngine(context)

    # Relinearisation: the raw product is coefficient-domain as Scale
    # leaves it (WordDecomp reads c2's raw residues); (c0, c1) join the
    # evaluation-domain accumulators.
    raw = evaluator.multiply_raw(a, b)
    acc0, acc1 = _oracle_accumulators(
        context, _raw_rows(raw.c2.residues, primes_col), keys.relin.pairs)
    c0, c1 = ntt_rows(primes, raw.c0.residues), ntt_rows(primes,
                                                          raw.c1.residues)
    tracer = Tracer()
    with use_executor(*executor), tracer.activate(), \
            tracer.span("root", kind="op"):
        got = evaluator.relinearize(raw, keys.relin)
    _assert_parts(got, (c0 + acc0) % primes_col, (c1 + acc1) % primes_col,
                  ntt_domain=True)
    # A three-part product in the evaluation domain has no raw c2
    # residues to decompose: refused, not round-tripped.
    with pytest.raises(ParameterError, match="WordDecomp"):
        evaluator.relinearize(raw.to_ntt(), keys.relin)

    # Galois key switch: the oracle goes through coefficients on both
    # parts.
    coeff = a.to_coeff()
    g = galois_key.element
    tau_c0 = apply_galois_rows(coeff.c0.residues, primes_col, params.n, g)
    tau_c1 = apply_galois_rows(coeff.c1.residues, primes_col, params.n, g)
    acc0, acc1 = _oracle_accumulators(
        context, _raw_rows(tau_c1, primes_col), galois_key.pairs)
    with use_executor(*executor), tracer.activate(), \
            tracer.span("root", kind="op"):
        got = engine.apply(a, galois_key)
    _assert_parts(got, (ntt_rows(primes, tau_c0) + acc0) % primes_col, acc1,
                  ntt_domain=True)

    # Both folds went through the instrumented fan-out as channel
    # bands on worker lanes — or, serially, through no fan-out at all.
    folds = [s for s in tracer.report().root.walk()
             if s.kind == "tile" and s.name == "fold.band"]
    if executor[0] == "serial":
        assert not folds
    else:
        assert len(folds) == 2 * min(4, len(primes))
        assert all(s.attrs["worker"].startswith("repro-w") for s in folds)
        assert current_registry().value("parallel_dispatch_total",
                                        executor="threads") >= 2.0


def test_grouped_and_digit_relinearize_share_the_switch(setup):
    """The one relinearize with the hw model's two other digit styles:
    grouped digits and signed base-w digits, each against the Python-int
    oracle over digits cut from c2's big-integer coefficients."""
    context, keys, _ = setup
    params = context.params
    primes = params.q_primes
    primes_col = context.q_basis.primes_col
    evaluator = Evaluator(context)
    raw = evaluator.multiply_raw(*_encrypt_pair(context, keys, False))
    c0, c1 = ntt_rows(primes, raw.c0.residues), ntt_rows(primes,
                                                          raw.c1.residues)

    coeffs = raw.c2.to_int_coeffs()
    grouped = context.relin_keygen(keys.secret, WordDecomp(group_size=2))
    group_moduli = [int(np.prod(primes[i:i + 2], dtype=object))
                    for i in range(0, len(primes), 2)]
    acc0, acc1 = _oracle_accumulators(
        context,
        _channel_rows(primes, [[c % modulus for c in coeffs]
                               for modulus in group_moduli]),
        grouped.pairs)
    _assert_parts(evaluator.relinearize(raw, grouped),
                  (c0 + acc0) % primes_col, (c1 + acc1) % primes_col,
                  ntt_domain=True)

    digit = context.relin_keygen(keys.secret, WordDecomp(base_bits=30))
    digit_polys = decompose_poly_signed(coeffs, params.q, 1 << 30,
                                        len(digit.pairs))
    acc0, acc1 = _oracle_accumulators(
        context, _channel_rows(primes, digit_polys), digit.pairs)
    want = evaluator.relinearize(raw, digit)
    _assert_parts(want, (c0 + acc0) % primes_col, (c1 + acc1) % primes_col,
                  ntt_domain=True)
    assert context.decrypt(want, keys.secret) == \
        context.decrypt(raw, keys.secret)


@pytest.mark.parametrize("decomposition", [
    WordDecomp(), WordDecomp(group_size=2), WordDecomp(base_bits=30),
], ids=["raw", "grouped", "signed"])
def test_relin_keys_take_one_word_per_residue(setup, decomposition):
    """Every relinearisation key row is ``uint32``, one 32-bit word per
    residue as in Galois keys, whatever the WordDecomp. The switch over
    those rows is bit for bit the switch over the same rows in int64,
    also at the extremes: lazy digits of 2q - 1 against key rows of
    q - 1 (a product ``uint32`` would wrap)."""
    context, keys, _ = setup
    primes_col = context.q_basis.primes_col
    key = (keys.relin if decomposition == WordDecomp()
           else context.relin_keygen(keys.secret, decomposition))
    assert all(row.dtype == np.uint32 for pair in key.pairs for row in pair)
    assert max(int(row.max()) for pair in key.pairs for row in pair) \
        < int(primes_col.max())
    evaluator = Evaluator(context)
    raw = evaluator.multiply_raw(*_encrypt_pair(context, keys, True))
    wide = RelinKey([tuple(row.astype(np.int64) for row in pair)
                     for pair in key.pairs], decomposition)
    _assert_parts(evaluator.relinearize(raw, key),
                  *(part.residues
                    for part in evaluator.relinearize(raw, wide).parts),
                  ntt_domain=True)

    count = len(key.pairs)
    top = np.broadcast_to(primes_col - 1, primes_col.shape[:1]
                          + (context.params.n,))
    narrow = [(top.astype(np.uint32), top.astype(np.uint32))] * count
    digits = np.broadcast_to(2 * primes_col - 1,
                             (count,) + top.shape).copy()
    parts = (raw.c0, raw.c1)
    got = key_switch(context, digits, narrow, parts)
    want = key_switch(context, digits, [(top, top)] * count, parts)
    _assert_parts(got, want.c0.residues, want.c1.residues, ntt_domain=True)
    # And both are the definition: (2q - 1)(q - 1) = 1 mod q, so each
    # accumulator is the digit count, however many products it holds
    # between two reductions.
    parts_ntt = ntt_rows(context.params.q_primes,
                         np.stack([raw.c0.residues, raw.c1.residues]))
    _assert_parts(got, *((parts_ntt.astype(np.int64) + count) % primes_col),
                  ntt_domain=True)


@pytest.mark.parametrize("resident", [False, True],
                         ids=["coefficient", "resident"])
def test_hoisted_group_shares_one_digit_transform(setup, resident):
    """``apply_many`` decrypts like per-key ``apply`` and pays exactly
    one broadcast transform and one inverse of c1 for the whole group,
    however its operand reached the evaluation domain."""
    context, keys, galois_key = setup
    params = context.params
    engine = GaloisEngine(context)
    group = {1: galois_key,
             3: engine.keygen(keys.secret, rotation_element(3, params.n))}
    (a, _) = _encrypt_pair(context, keys, resident)
    before = transform_counts()
    many = engine.apply_many(a, group)
    after = transform_counts()
    # One (k_q x k_q)-row broadcast for the group, one inverse of c1.
    assert after["forward_calls"] - before["forward_calls"] == 1
    assert after["forward_rows"] - before["forward_rows"] == \
        params.k_q * params.k_q
    assert after["inverse_rows"] - before["inverse_rows"] == params.k_q
    for steps, key in group.items():
        assert many[steps].ntt_resident
        assert context.decrypt(many[steps], keys.secret) == \
            context.decrypt(engine.apply(a, key), keys.secret)


EXECUTORS = pytest.mark.parametrize(
    "executor", [("serial", 1), ("threads", 2)], ids=["serial", "threads@2"])


def _count_diff(before, after):
    return {name: after[name] - before[name] for name in after}


@EXECUTORS
def test_hoisted_round_matches_python_int_oracle(setup, executor,
                                                 monkeypatch):
    """Every output of ``apply_many`` is, as Python integers
    modulo each prime, ``(tau_g(c0) + sum_i tau_g(d_i) b_i,
    sum_i tau_g(d_i) a_i)`` over the *signed* permuted digits — on the
    ladder's last round, which holds the composite conjugation key."""
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
    assert all(row.dtype == np.uint32
               for key in group.values() for pair in key.pairs
               for row in pair)

    (ct, _) = _encrypt_pair(context, keys, True)
    coeff = ct.to_coeff()
    digits = _raw_rows(coeff.c1.residues, primes_col)
    with use_executor(*executor):
        many = engine.apply_many(ct, group)
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
    """Every slot of ``sum_all_slots`` decrypts to the total,
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
    handle = session.encrypt(values)
    ct = handle.node.cached

    before = transform_counts()
    with use_executor(*executor):
        total = session.galois.sum_all_slots(ct, keys)
    spent = _count_diff(before, transform_counts())
    k_q = params.k_q
    assert spent["inverse_rows"] == rounds * k_q
    assert spent["forward_rows"] == rounds * k_q * k_q
    assert spent["forward_calls"] == spent["inverse_calls"] == rounds

    assert total.ntt_resident
    assert np.all(session.decrypt(total) == int(values.sum() % params.t))
    static = session.compile(sum_slots(handle)).static_noise_bits()["out"]
    assert session.noise_budget_bits(total) >= static > 0

    # A bundle short of a key (a pre-radix-4 one lacks the composites)
    # is refused by name before any key switch runs.
    del keys["conjugate"]
    before = transform_counts()
    with pytest.raises(ParameterError, match="conjugate"):
        session.galois.sum_all_slots(ct, keys)
    assert transform_counts() == before


def test_rotsum_request_transform_rows_are_pinned():
    """The ledger's ``rotsum_n4096`` request shape, steady state (the
    plaintext pool warm), k_q = 6: 3 k_q = 18 forward rows to encrypt;
    per run six hoisted summation rounds and one hoisted rotation group
    at k_q^2 forward + k_q inverse rows each (252 / 42); verification's
    one inverse of the phase per output (2 k_q = 12). Outputs stay in
    the evaluation domain, so nothing else transforms: 270 forward /
    54 inverse rows per request in 8 / 9 calls — CI's ``ledger-quick``
    job checks the same rows on the ledger record."""
    session = Session(hpca19(t=65537))
    backend = LocalBackend(session)
    t = session.params.t
    weights = np.random.default_rng(0).integers(0, t, session.params.n)
    w_plain = session.encode(weights)
    values = np.arange(session.params.n)
    for _ in range(2):
        before = transform_counts()
        x = session.encrypt(values)
        encrypt = _count_diff(before, transform_counts())
        result = backend.run(session.compile({
            "dot": sum_slots(x * w_plain),
            "win": (x + rotate(x, 1) + rotate(x, 2) + rotate(x, 3)) * 3,
        }, optimize=True))
    run = backend.telemetry["last_run"]
    assert np.all(result.decrypt("dot") == int((values * weights).sum() % t))
    assert (encrypt["forward_rows"] + run["forward_rows"],
            encrypt["inverse_rows"] + run["inverse_rows"]) == (270, 54)
    assert (encrypt["forward_calls"] + run["forward_calls"],
            run["inverse_calls"]) == (8, 9)


def test_mult_depth4_request_transform_rows_are_pinned():
    """The ledger's ``mult_depth4_n4096`` request shape, steady state:
    two encryptions (2 x 3 k_q = 36 forward rows, k_q = 6, k_p = 7,
    k_total = 13), then ``(((a*b)*a)*b)*a``. Each of the ten part-lifts
    costs k_q inverse + k_p forward rows (60 / 70): a and b are lifted
    once, by Mult 1, and held for Mults 2-4, instead of sixteen
    part-lifts. Each Mult adds Scale's 3 k_total inverse rows (39, in
    two calls: the q and p batches), the k_q^2 = 36 broadcast rows and
    the 2 k_q = 12 forward rows that bring (c0, c1) into the evaluation
    domain; verification inverts the output's phase once (6). 36 + 70 +
    4 x 48 = 298 forward / 60 + 4 x 39 + 6 = 222 inverse rows in 14 / 13
    calls per request — CI's ``ledger-quick`` job checks the same
    numbers on the ledger record."""
    session = Session(hpca19())
    backend = LocalBackend(session)
    rng = np.random.default_rng(4)
    n = session.params.n
    for _ in range(2):
        before = transform_counts()
        a = session.encrypt(rng.integers(0, 2, n))
        b = session.encrypt(rng.integers(0, 2, n))
        encrypt = _count_diff(before, transform_counts())
        backend.run(session.compile((((a * b) * a) * b) * a))
    run = backend.telemetry["last_run"]
    assert tuple(encrypt[key] + run[key]
                 for key in ("forward_rows", "inverse_rows", "forward_calls",
                             "inverse_calls")) == (298, 222, 14, 13)
