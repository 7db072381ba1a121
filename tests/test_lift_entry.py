"""Mult has one datapath: evaluation-domain operands in, one lift each.

``Evaluator.multiply_raw`` lifts all four operand polynomials through
:func:`repro.rns.lift.lift_hps_ntt` straight from the evaluation domain.
However an operand reached that domain — encrypted there, brought in
from coefficients through the door (``Ciphertext.to_ntt``), or assembled
part by part (``RnsPoly.to_ntt``) — the parts must be those of an
integer oracle that never touches the transform engine —
``test_rns.lift_hps_reference``, exact schoolbook negacyclic products
per prime, ``scale_hps`` — for exactly 4 k_p forward / 4 k_q + 3 k_total
inverse rows. A coefficient-domain operand is refused, not converted. An
operand may also arrive already lifted (``Evaluator.lift``), and a
square lifts its two parts once.
"""

import copy

import numpy as np
import pytest

import repro.parallel.config as parallel_config
from repro.errors import ParameterError
from repro.fv.ciphertext import Ciphertext
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.scheme import FvContext
from repro.nttmath import batch
from repro.obs import Tracer
from repro.parallel import use_executor
from repro.params import hpca19, mini
from repro.rns.scale import scale_hps
from scaffolding import toy
from test_rns import lift_hps_reference


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
                      for part in (*a.to_coeff().parts, *b.to_coeff().parts))

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
    """The operands as they reach Mult: ``resident`` as encrypted,
    ``coefficient`` through the coefficient door, ``a-resident`` one of
    each, ``per-part`` rebuilt from coefficient parts one at a time."""
    def door(ct):
        return ct.to_coeff().to_ntt()

    def per_part(ct):
        return Ciphertext(tuple(part.to_ntt()
                                for part in ct.to_coeff().parts), ct.params)

    return {
        "coefficient": (door(a), door(b)),
        "resident": (a, b),
        "a-resident": (a, door(b)),
        "per-part": (per_part(a), per_part(b)),
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
    # Lift: each part inverts k_q rows for the quotient estimate and
    # forwards only its k_p new channels. Scale: one inverse of the
    # three products over the full basis.
    assert after["forward_rows"] - before["forward_rows"] == \
        4 * params.k_p
    assert after["inverse_rows"] - before["inverse_rows"] == \
        4 * params.k_q + 3 * params.k_total
    # A coefficient operand is refused, not silently lifted.
    with pytest.raises(ParameterError, match="evaluation-domain"):
        Evaluator(context).multiply_raw(x.to_coeff(), y)


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
    x = a.to_coeff().to_ntt() if form == "coefficient" else a
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


def test_new_channels_transform_on_the_full_basis_view():
    """Lift's new-channel forward transform runs on the ``[k_q:]``
    channel view of the q+p basis's tables, not on a transformer of its
    own: after an evaluation-domain Mult the transformer cache holds the
    q and q+p bases only. The view's output — lazy and canonical — is
    bit for bit a standalone transformer's of the new primes."""
    context = FvContext(mini(), seed=7)
    keys = context.keygen()
    a, b = _operands(context, keys)
    assert a.ntt_resident and b.ntt_resident
    params = context.params
    full = params.q_primes + params.p_primes
    batch.basis_transformer.cache_clear()
    Evaluator(context).multiply(a, b, keys.relin)
    assert batch.basis_transformer.cache_info().currsize == 2
    batch.basis_transformer(params.q_primes, params.n)
    batch.basis_transformer(full, params.n)
    assert batch.basis_transformer.cache_info().currsize == 2

    rows = np.stack([np.random.default_rng(1).integers(0, p, params.n)
                     for p in params.p_primes])
    view = batch.basis_transformer(full, params.n).subset(params.k_q,
                                                          len(full))
    alone = batch.BasisTransformer(params.p_primes, params.n)
    for lazy in (True, False):
        assert np.array_equal(view.forward(rows, lazy=lazy),
                              alone.forward(rows, lazy=lazy))
