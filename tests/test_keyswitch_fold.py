"""Differential tests of the one key switch (relinearisation + Galois).

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
"""

import numpy as np
import pytest

import repro.parallel.config as parallel_config
from repro.fv.ciphertext import Ciphertext
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.galois import GaloisEngine, apply_galois_rows, rotation_element
from repro.fv.scheme import FvContext
from repro.nttmath.batch import intt_rows, ntt_rows, transform_counts
from repro.obs import Tracer, current_registry
from repro.parallel import use_executor
from repro.params import hpca19, mini, toy
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
