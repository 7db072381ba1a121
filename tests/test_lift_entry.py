"""Mult has one datapath, whatever domain its operands arrive in.

``Evaluator.multiply_raw`` lifts all four operand polynomials through
:func:`repro.rns.lift.lift_hps_ntt`, each part entering from its own
domain. Every operand mix must give the parts of an integer oracle that
never touches the transform engine — ``lift_hps_reference``, exact
schoolbook negacyclic products per prime, ``scale_hps`` — and pay exactly
the transforms its domains require, never more than the two-arm code it
replaced (coefficient: 4 k_total forward / 3 k_total inverse; resident:
4 k_p / 4 k_q + 3 k_total; a-resident, b-coefficient: 2 k_q + 4 k_p /
4 k_q + 3 k_total; per-part mixed: 4 k_total / 2 k_q + 3 k_total).
An operand may also arrive already lifted (``Evaluator.lift``), and a
square lifts its two parts once.
"""

import copy

import numpy as np
import pytest

import repro.parallel.config as parallel_config
from repro.fv.ciphertext import Ciphertext
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.scheme import FvContext
from repro.nttmath import batch
from repro.obs import Tracer
from repro.parallel import use_executor
from repro.params import hpca19, mini, toy
from repro.rns.lift import lift_hps_reference
from repro.rns.scale import scale_hps


def _negacyclic(a, b, p):
    """``a * b mod (x^n + 1, p)`` by exact int64 schoolbook convolution;
    ``b`` splits into 15-bit limbs so no partial sum reaches 2^58."""
    n = len(a)
    full = ((np.convolve(a, b >> 15) % p) << 15) + np.convolve(a, b & 0x7FFF)
    return (full[:n] - np.append(full[n:], 0)) % p


def _oracle_multiply_raw(context, a, b):
    """The three coefficient-domain parts of ``a * b``, as integers."""
    primes = context.params.q_primes + context.params.p_primes
    a0, a1, b0, b1 = (lift_hps_reference(context.lift_ctx, part.residues)
                      for part in (*a.parts, *b.parts))

    def product(x, y):
        return np.stack([_negacyclic(x[i], y[i], p)
                         for i, p in enumerate(primes)])

    cross = (product(a0, b1) + product(a1, b0)) \
        % np.array(primes, dtype=np.int64)[:, None]
    return [scale_hps(context.scale_ctx, rows)
            for rows in (product(a0, b0), cross, product(a1, b1))]


def _operands(context, keys):
    params = context.params
    rng = np.random.default_rng(params.n)
    return [
        context.encrypt(
            Plaintext(rng.integers(0, params.t, params.n), params.t),
            keys.public)
        for _ in range(2)
    ]


@pytest.fixture(scope="module", params=[toy, mini, hpca19],
                ids=["toy", "mini", "hpca19"])
def setup(request):
    context = FvContext(request.param(), seed=2019)
    keys = context.keygen()
    a, b = _operands(context, keys)
    return context, a, b, _oracle_multiply_raw(context, a, b), keys


def _mix(context, a, b, mix):
    a_ntt, b_ntt = context.to_ntt_ct(a), context.to_ntt_ct(b)
    return {
        "coefficient": (a, b),
        "resident": (a_ntt, b_ntt),
        "a-resident": (a_ntt, b),
        "per-part": (Ciphertext((a_ntt.c0, a.c1), a.params),
                     Ciphertext((b.c0, b_ntt.c1), b.params)),
    }[mix]


@pytest.mark.parametrize("executor", [("serial", 1), ("threads", 2)],
                         ids=["serial", "threads@2"])
@pytest.mark.parametrize(
    "mix", ["coefficient", "resident", "a-resident", "per-part"])
def test_multiply_raw_matches_integer_oracle(setup, mix, executor,
                                             monkeypatch):
    monkeypatch.setattr(parallel_config, "PARALLEL_MIN_WORK", 1)
    context, a, b, oracle, _ = setup
    params = context.params
    x, y = _mix(context, a, b, mix)
    before = batch.transform_counts()
    with use_executor(*executor):
        raw = Evaluator(context).multiply_raw(x, y)
    after = batch.transform_counts()
    for part, want in zip(raw.parts, oracle, strict=True):
        assert not part.ntt_domain
        assert np.array_equal(part.residues, want)
    # Lift: a coefficient part forwards all k_total rows of its lifted
    # operand and inverts nothing; a resident part inverts k_q rows for
    # the quotient estimate and forwards only its k_p new channels.
    # Scale: one inverse of the three products over the full basis.
    resident_parts = sum(p.ntt_domain for p in (*x.parts, *y.parts))
    assert after["forward_rows"] - before["forward_rows"] == \
        (4 - resident_parts) * params.k_q + 4 * params.k_p
    assert after["inverse_rows"] - before["inverse_rows"] == \
        resident_parts * params.k_q + 3 * params.k_total


def _lift_rows(tracer):
    """Transform rows spent under ``mult.lift`` kernel spans."""
    return sum(t.attrs["rows"]
               for span in tracer.root.walk()
               if span.kind == "kernel" and span.name == "mult.lift"
               for t in span.walk() if t.kind == "transform")


@pytest.mark.parametrize("mix", ["coefficient", "resident", "per-part"])
def test_lifted_operands_stand_in_for_their_ciphertexts(setup, mix):
    """A :class:`Lifted` takes either operand slot, beside a ciphertext
    or another lift, with the same parts as the oracle; a Mult of two
    lifts transforms only for Scale."""
    context, a, b, oracle, _ = setup
    params = context.params
    x, y = _mix(context, a, b, mix)
    evaluator = Evaluator(context)
    lx, ly = evaluator.lift(x, y)
    assert lx.rows.shape == (2, params.k_total, params.n)
    with pytest.raises(ValueError, match="read-only"):
        lx.rows[0, 0, 0] = 0
    before = batch.transform_counts()
    raws = [evaluator.multiply_raw(lx, ly)]
    after = batch.transform_counts()
    assert after["forward_rows"] == before["forward_rows"]
    assert after["inverse_rows"] - before["inverse_rows"] == \
        3 * params.k_total
    raws += [evaluator.multiply_raw(lx, y), evaluator.multiply_raw(x, ly)]
    for raw in raws:
        for part, want in zip(raw.parts, oracle, strict=True):
            assert np.array_equal(part.residues, want)


@pytest.mark.parametrize("form", ["coefficient", "resident", "lifted"])
def test_square_lifts_two_parts_and_matches_the_copy(setup, form):
    """``multiply(x, x)`` lifts x's two parts once and forms three
    products (cross term ``2 x0 x1``); a copy of x is a second operand
    and lifts four. The results are equal residue for residue."""
    context, a, _, _, keys = setup
    evaluator = Evaluator(context)
    x = a if form == "coefficient" else context.to_ntt_ct(a)
    products, rows = [], []
    for y in (copy.copy(x), x):
        tracer = Tracer()
        with tracer.activate():
            if form == "lifted":
                lx, ly = ((evaluator.lift(x) * 2) if y is x
                          else evaluator.lift(x, y))
                products.append(evaluator.multiply(lx, ly, keys.relin))
            else:
                products.append(evaluator.multiply(x, y, keys.relin))
        rows.append(_lift_rows(tracer))
    for got, want in zip(products[1].parts, products[0].parts, strict=True):
        assert np.array_equal(got.residues, want.residues)
    assert rows[0] == 2 * rows[1] > 0
