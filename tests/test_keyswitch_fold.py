"""Differential test of the key-switch fold (relinearisation + Galois).

The production fold transforms the digits with the fused lazy
``ntt_broadcast_rows`` ([0, 2q) outputs) and accumulates digit/key
products in int64 with a halved reduction window. The oracle here
recomputes it from its definition — ``broadcast_digit_rows``, canonical
``ntt_rows``, Python-int accumulation — and must agree bit for bit.
Under the thread pool the fold runs as channel bands through the
instrumented fan-out, which the ``threads@2`` arm checks from the trace.
"""

import numpy as np
import pytest

import repro.parallel.config as parallel_config
from repro.fv.ciphertext import Ciphertext
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.galois import GaloisEngine, apply_galois_rows, rotation_element
from repro.fv.scheme import FvContext
from repro.nttmath.batch import intt_rows, ntt_rows
from repro.obs import Tracer, current_registry
from repro.parallel import use_executor
from repro.params import hpca19, mini, toy
from repro.rns.decompose import broadcast_digit_rows


@pytest.fixture(scope="module", params=[toy, mini, hpca19],
                ids=["toy", "mini", "hpca19"])
def setup(request):
    context = FvContext(request.param(), seed=2019)
    keys = context.keygen()
    galois_key = GaloisEngine(context).keygen(
        keys.secret, rotation_element(1, context.params.n))
    return context, keys, galois_key


def _oracle_accumulators(context, coeff_rows, pairs):
    """sum_i NTT(D_i) * key_i per channel, in unbounded integers."""
    primes = context.params.q_primes
    primes_col = context.q_basis.primes_col
    d_ntt = ntt_rows(
        primes, broadcast_digit_rows(coeff_rows, context.q_basis)
    ).astype(object)
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
    monkeypatch.setattr(parallel_config, "PARALLEL_MIN_WORK", 1)
    context, keys, galois_key = setup
    params = context.params
    primes = params.q_primes
    primes_col = context.q_basis.primes_col
    rng = np.random.default_rng(params.n)
    a, b = (
        context.encrypt(
            Plaintext(rng.integers(0, params.t, params.n), params.t),
            keys.public, resident=resident)
        for _ in range(2)
    )
    evaluator = Evaluator(context)
    engine = GaloisEngine(context)

    # Relinearisation: c2 is always coefficient-domain (WordDecomp reads
    # raw residues); the resident case folds into NTT-domain (c0, c1).
    raw = evaluator.multiply_raw(a, b)
    if resident:
        raw = Ciphertext((raw.c0.to_ntt(), raw.c1.to_ntt(), raw.c2), params)
    c0, c1 = raw.c0.residues, raw.c1.residues
    acc0, acc1 = _oracle_accumulators(context, raw.c2.residues,
                                      keys.relin.pairs)
    if not resident:
        acc0, acc1 = intt_rows(primes, acc0), intt_rows(primes, acc1)
    tracer = Tracer()
    with use_executor(*executor), tracer.activate(), \
            tracer.span("root", kind="op"):
        got = evaluator.relinearize(raw, keys.relin, resident=resident)
    _assert_parts(got, (c0 + acc0) % primes_col, (c1 + acc1) % primes_col,
                  ntt_domain=resident)

    # Galois key switch: the oracle goes through coefficients on both
    # parts, whatever domain the input arrived in.
    coeff = context.to_coeff_ct(a)
    g = galois_key.element
    tau_c0 = apply_galois_rows(coeff.c0.residues, primes_col, params.n, g)
    tau_c1 = apply_galois_rows(coeff.c1.residues, primes_col, params.n, g)
    acc0, acc1 = _oracle_accumulators(context, tau_c1, galois_key.pairs)
    with use_executor(*executor), tracer.activate(), \
            tracer.span("root", kind="op"):
        got = engine.apply_resident(a, galois_key)
    _assert_parts(got, (ntt_rows(primes, tau_c0) + acc0) % primes_col, acc1,
                  ntt_domain=True)

    # Both folds went through the instrumented fan-out as channel bands
    # on worker lanes — or, serially, through no fan-out at all.
    folds = [s for s in tracer.report().root.walk()
             if s.kind == "tile" and s.name == "fold.band"]
    if executor[0] == "serial":
        assert not folds
    else:
        assert len(folds) == 2 * min(4, len(primes))
        assert all(s.attrs["worker"].startswith("repro-w") for s in folds)
        assert current_registry().value("parallel_dispatch_total",
                                        executor="threads") >= 2.0
