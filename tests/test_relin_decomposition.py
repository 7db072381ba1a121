"""One relinearisation key: the key names its WordDecomp, and the
software evaluator and the coprocessor model both read it from there.

* The default key and Mult did not move: digests recorded before the
  three key classes became one.
* Every digit style x both coprocessor designs: ``Coprocessor.mult``
  must equal ``Evaluator.relinearize`` on the coprocessor's own raw
  product, bit for bit, and decrypt to the plaintext product. Digit
  layouts the compiler used to rebuild from the component count alone
  (signed base_bits 45, 50, 64 and groups of three on a 120-bit q)
  decrypted wrong on the coprocessor.
* A single-digit decomposition is refused at keygen.
"""

import hashlib
from functools import cache

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fv.ciphertext import Ciphertext
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.scheme import FvContext
from repro.hw.compiler import compile_mult, compile_mult_raw
from repro.hw.config import HardwareConfig, slow_coprocessor_config
from repro.hw.coprocessor import Coprocessor
from repro.hw.isa import Opcode
from repro.nttmath.ntt import negacyclic_convolution
from repro.params import hpca19, mini
from repro.poly.rns_poly import RnsPoly
from repro.rns.decompose import WordDecomp
from scaffolding import toy

PARAMS = {"toy": toy, "mini": mini, "hpca19": hpca19}

#: sha256 over the (b, a) rows of ``FvContext(p, seed=7).keygen().relin``.
KEY_SHA256 = {
    "toy": "9da3b4add2ecfaf650ee3db2427ddc0156961491e70f7335bb30d1b0725455ef",
    "mini": "116f43af7d267a7d95b4d8d24b38b473c99cb922b4c440a99125749d4e02e339",
    "hpca19":
        "d88e05221b1f45d32e18833b3521cbc00a0dc9010c2e9446a6d60004af1cb35d",
}

#: sha256 over the parts of one seeded ``Evaluator.multiply`` (see
#: :func:`test_default_mult_unchanged`).
MULT_SHA256 = {
    "toy": "e5c3c7295fcb54dcdee370f963485fe0f17eb8c4c37b847a0e82988a84de1fb7",
    "mini": "1198067394a71401abe4f904611a74f71af283a8dbf4fa3119b279f322a84821",
    "hpca19":
        "08edc0c630c7d9a846a9370135626fef1d9215595affd1a1ba7e76e14dbb45c7",
}

DECOMPOSITIONS = {
    **{f"signed{b}": WordDecomp(base_bits=b) for b in (30, 45, 50, 60, 64)},
    **{f"groups{g}": WordDecomp(group_size=g) for g in (1, 2, 3)},
}

CONFIGS = {"hps": HardwareConfig(), "slow": slow_coprocessor_config()}


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for rows in arrays:
        digest.update(np.ascontiguousarray(rows, dtype=np.int64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("pname", sorted(KEY_SHA256))
def test_default_key_unchanged(pname):
    keys = FvContext(PARAMS[pname](), seed=7).keygen()
    assert keys.relin.decomposition == WordDecomp()
    assert _digest(rows for pair in keys.relin.pairs
                   for rows in pair) == KEY_SHA256[pname]


@pytest.mark.parametrize("pname", sorted(MULT_SHA256))
def test_default_mult_unchanged(pname):
    params = PARAMS[pname]()
    context = FvContext(params, seed=11)
    keys = context.keygen()
    rng = np.random.default_rng(11)
    a, b = (Plaintext(rng.integers(0, params.t, params.n), params.t)
            for _ in range(2))
    product = Evaluator(context).multiply(
        context.encrypt(a, keys.public), context.encrypt(b, keys.public),
        keys.relin)
    assert product.ntt_resident
    assert _digest(part.residues for part in product.parts) == \
        MULT_SHA256[pname]


@cache
def _ring(pname: str):
    """Context, keys, two encrypted plaintexts and their product."""
    params = PARAMS[pname]()
    context = FvContext(params, seed=5)
    keys = context.keygen()
    rng = np.random.default_rng(3)
    a, b = (Plaintext(rng.integers(0, params.t, params.n), params.t)
            for _ in range(2))
    cts = (context.encrypt(a, keys.public), context.encrypt(b, keys.public))
    want = negacyclic_convolution(a.coeffs.tolist(), b.coeffs.tolist(),
                                  params.t)
    return context, keys, cts, want


@cache
def _key(pname: str, label: str):
    context, keys, _, _ = _ring(pname)
    return context.relin_keygen(keys.secret, DECOMPOSITIONS[label])


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("label", list(DECOMPOSITIONS))
@pytest.mark.parametrize("pname", ["mini", "hpca19"])
def test_coprocessor_mult_follows_the_key(pname, label, config):
    context, keys, (ct_a, ct_b), want = _ring(pname)
    params = context.params
    key = _key(pname, label)
    assert key.decomposition == DECOMPOSITIONS[label]
    coprocessor = Coprocessor(params, CONFIGS[config])
    program = compile_mult(params, coprocessor.config, key.decomposition)
    assert program.opcode_histogram()[Opcode.DIGIT] == len(key.pairs)

    # The coprocessor's own raw product: the traditional design's exact
    # CRT Scale need not round like the evaluator's HPS Scale.
    operands = {f"{name}{i}": part.to_coeff().residues
                for name, ct in (("a", ct_a), ("b", ct_b))
                for i, part in enumerate(ct.parts)}
    for name, q_rows in operands.items():
        coprocessor.load_polynomial(name, q_rows)
    coprocessor.execute(compile_mult_raw(params, coprocessor.config))
    raw = Ciphertext(tuple(
        RnsPoly(coprocessor.q_basis,
                coprocessor.registers[f"s{i}"][:params.k_q].copy())
        for i in range(3)), params)
    sw = Evaluator(context).relinearize(raw, key).to_coeff()
    hw, _ = coprocessor.mult(ct_a, ct_b, key)
    for hw_part, sw_part in zip(hw.parts, sw.parts, strict=True):
        assert np.array_equal(hw_part.residues, sw_part.residues)
    assert context.decrypt(hw, keys.secret).coeffs.tolist() == want


@pytest.mark.parametrize("decomposition", [
    WordDecomp(group_size=4), WordDecomp(group_size=6),
    WordDecomp(base_bits=120), WordDecomp(base_bits=128),
], ids=["groups4", "groups6", "signed120", "signed128"])
def test_single_digit_decomposition_refused(mini_context, mini_keys,
                                            decomposition):
    """One digit as large as q scales the key error by ~q: refused."""
    assert mini_context.params.q.bit_length() == 120
    assert decomposition.count(mini_context.q_basis) == 1
    with pytest.raises(ParameterError, match="single digit"):
        mini_context.relin_keygen(mini_keys.secret, decomposition)


def test_decomposition_validation():
    with pytest.raises(ParameterError):
        WordDecomp(group_size=0)
    with pytest.raises(ParameterError):
        WordDecomp(base_bits=0)
    with pytest.raises(ParameterError):
        WordDecomp(group_size=2, base_bits=30)
