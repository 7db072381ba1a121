"""One residue word: every residue array the engine returns is RESIDUE.

Every prime is exactly 30 bits, so ciphertexts, keys, digits, Lift and
Scale results, the wire format and the ``hw`` registers all store
residues in one unsigned 32-bit word, :data:`repro.nttmath.batch.RESIDUE`.
Like the one-domain rule (tests/test_resident_pipeline.py), the rule is
checked on what the operations return, on toy, mini and hpca19; and the
word is spelled in one module of ``src/``.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.hw.coprocessor import Coprocessor
from repro.io import load_ciphertext, save_ciphertext
from repro.nttmath.batch import RESIDUE
from repro.params import hpca19, mini
from repro.rns.lift import lift_hps_ntt
from repro.rns.scale import scale_hps_ntt
from scaffolding import toy

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _census(params, tmp_path: Path) -> dict[str, list[np.ndarray]]:
    """Every residue array a public operation returns, by operation."""
    session = Session(params, seed=52)
    context, keys = session.context, session.keys
    evaluator, galois = session.evaluator, session.galois
    a = session.encrypt([1, 2, 3]).ciphertext
    b = session.encrypt([4, 5]).ciphertext
    plain = session.encode([3, 1])

    def rows(ct):
        return [part.residues for part in ct.parts]

    raw = evaluator.multiply_raw(a, b)
    path = tmp_path / f"{params.name}.ct"
    save_ciphertext(path, a)
    full = params.q_primes + params.p_primes
    products = np.stack([np.stack([np.arange(params.n) % p for p in full])
                         for _ in range(3)])
    census = {
        "encrypt": rows(a),
        "add": rows(context.add(a, b)),
        "sub": rows(context.sub(a, b)),
        "negate": rows(context.negate(a)),
        "add_plain": rows(context.add_plain(a, plain)),
        "mul_plain": rows(context.mul_plain(a, plain)),
        "multiply_raw": rows(raw),
        "relinearize": rows(evaluator.relinearize(raw, keys.relin)),
        "multiply": rows(evaluator.multiply(a, b, keys.relin)),
        "rotate": rows(galois.apply(a, session.rotation_key(1))),
        "sum_slots": rows(galois.sum_all_slots(a, session.summation_keys())),
        "to_coeff": rows(a.to_coeff()),
        "to_ntt": rows(a.to_coeff().to_ntt()),
        "load_ciphertext": rows(load_ciphertext(path, params)),
        "lift_hps_ntt": [lift_hps_ntt(context.lift_ctx,
                                      np.stack(rows(a)))],
        "scale_hps_ntt": [scale_hps_ntt(context.scale_ctx, products)],
        "relin_key": [row for pair in keys.relin.pairs for row in pair],
        "galois_key": [row for pair in session.rotation_key(1).pairs
                       for row in pair],
        "secret_and_public_keys": [keys.secret.rns.residues,
                                   keys.secret.ntt_rows,
                                   keys.public.p0_ntt, keys.public.p1_ntt],
        "plain_ntt": [session.plain_ntt(plain)],
    }
    if params.n <= 256:
        coprocessor = Coprocessor(params)
        coprocessor.mult(a, b, keys.relin)
        census["hw_registers"] = list(coprocessor.registers.values())
    return census


@pytest.mark.parametrize("make", [toy, mini, hpca19],
                         ids=["toy", "mini", "hpca19"])
def test_every_residue_array_is_one_word(make, tmp_path):
    census = _census(make(), tmp_path)
    wrong = {op: sorted({str(arr.dtype) for arr in arrays})
             for op, arrays in census.items()
             if any(arr.dtype != RESIDUE for arr in arrays)}
    assert not wrong, wrong


def test_the_word_is_spelled_in_one_module():
    """``np.uint32`` appears in ``nttmath/batch.py`` only; every other
    module reads :data:`RESIDUE`."""
    spelled = sorted(str(path.relative_to(SRC))
                     for path in SRC.rglob("*.py")
                     if "uint32" in path.read_text())
    assert spelled == ["nttmath/batch.py"], spelled
