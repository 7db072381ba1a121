"""Tests for the compiler and the instruction-set coprocessor.

The headline properties: the compiled Mult reproduces the paper's
Table II call counts, and the coprocessor's results are bit-identical to
the software evaluator's for both coprocessor variants.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Session
from repro.errors import HardwareModelError, IsaError
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.hw.compiler import (
    compile_add,
    compile_mul_plain,
    compile_mult,
    compile_mult_raw,
    compile_relin,
    compile_rotation,
)
from repro.hw.config import (
    DISPATCH_OVERHEAD,
    HardwareConfig,
    slow_coprocessor_config,
)
from repro.hw.coprocessor import Coprocessor, InstructionStat
from repro.hw.isa import Opcode, Program
from repro.nttmath.batch import RESIDUE, intt_rows, ntt_rows
from repro.nttmath.ntt import negacyclic_convolution
from repro.params import hpca19, mini
from repro.rns.decompose import WordDecomp
from repro.system.related_work import PAPER_RECORD

CONFIG = HardwareConfig()

# Call counts of one compiled Mult. NTT/INTT/CMUL/REARRANGE/LIFT/SCALE
# are the paper's Table II literals. CADD is the compiled program's
# count — 2 in the tensor, 10 accumulating the six relinearisation
# digits, 2 adding the relinearised parts (hw/compiler.py) — where the
# paper lists 26 without a breakdown. The digit broadcasts and key
# loads are the k_q = 6 components Table II folds into its Mult timing.
PAPER_CALLS = {
    Opcode.NTT: 14,
    Opcode.INTT: 8,
    Opcode.CMUL: 20,
    Opcode.CADD: 14,
    Opcode.REARRANGE: 22,
    Opcode.LIFT: 4,
    Opcode.SCALE: 3,
    Opcode.DIGIT: 6,
    Opcode.LOAD_RLK: 6,
}

# sha256(_listing(program)) recorded before hw/compiler.py's four
# key-switch loops became one `_emit_key_switch`: (parameter set, style,
# relin_key_on_chip) -> digest; style "rotate" is compile_rotation(.., 3).
LISTING_SHA256 = {
    ("hpca19", "rns", False):
        "f46126008875b9e10720eb2607e4f1f3ddf0a8e3177b2233ad772eab2e823045",
    ("hpca19", "rns", True):
        "6793493f25aead1aa983b1337d6ffda3c0ed6f2efdb0cc515a58502501e2db51",
    ("hpca19", "grouped", False):
        "95b35d06f09a7cfddc982037e9026e570860b8c84093db87bd803138f7ad8ded",
    ("hpca19", "grouped", True):
        "1e193bb746ef92e98f393100020c7357014066ceb7a165d162d37ccd498cb976",
    ("hpca19", "digit", False):
        "2a49131a3fe731eb9d860e44753f7530b2fc2908599874ceeaefc9087aaeae0e",
    ("hpca19", "digit", True):
        "3acb0889f51207ffa06ce572c34bc27f858c2cd9fa747f95c77285d9d7b5b8e2",
    ("hpca19", "rotate", False):
        "096ba7b99a0c432e15ceee98e4ac6f8e20631aa5f15b14bde1ad8bd9a0278024",
    ("hpca19", "rotate", True):
        "00a607fa539edfa0952dcbc8f25d6bf15093b402adf55d5da7d56b9e7dceb316",
    ("mini", "rns", False):
        "763dbf9b7bee2bc7de3d78c562dd2556989ded12ff3b94b37f5a94905c2e4c71",
    ("mini", "rns", True):
        "9c11911bd548ac302ac911aeb9055bd42374f5617a68d6326f03b31ac63433ca",
    ("mini", "grouped", False):
        "d1ddc70728d508ff4c3ebd363e16b1b7a02c96d13ef71b750119d041e110f953",
    ("mini", "grouped", True):
        "44918a9a7cd1942cfa555e826d434f9d53a72886a65f92e1b5efb9cfae2f4468",
    ("mini", "digit", False):
        "d1ddc70728d508ff4c3ebd363e16b1b7a02c96d13ef71b750119d041e110f953",
    ("mini", "digit", True):
        "44918a9a7cd1942cfa555e826d434f9d53a72886a65f92e1b5efb9cfae2f4468",
    ("mini", "rotate", False):
        "fcbed5dab4d39fd2e6651ca6853c8d593e237d6cd41c6632a6e5c315094b4682",
    ("mini", "rotate", True):
        "741535f70cb159adcea03f07472d0ae777770f695cf5a5f71d50c6a6d2ea4347",
}


def _listing(program) -> str:
    """One line per instruction: index, opcode, destination, sources
    and residue rows."""
    return "\n".join(
        f"{idx:4d}: {ins.op.name:12s} {ins.dst or '-':12s} <- "
        f"{', '.join(ins.srcs)}"
        + (f" rows={list(ins.rows)}" if ins.rows else "")
        for idx, ins in enumerate(program.instructions))


def _listing_decomposition(params, style):
    """The digit layout each listing style was recorded with: raw
    residue rows, groups of two q-primes, or two signed digits."""
    return {
        "rns": WordDecomp(),
        "grouped": WordDecomp(group_size=2),
        "digit": WordDecomp(base_bits=-(-params.q.bit_length() // 2)),
    }[style]


class TestCompiler:
    def test_mult_call_counts_match_paper(self, paper_params):
        """The whole census of one Mult, as literals."""
        program = compile_mult(paper_params, CONFIG)
        assert program.opcode_histogram() == PAPER_CALLS

    @pytest.mark.parametrize(("pname", "style", "on_chip"),
                             sorted(LISTING_SHA256))
    def test_listings_unchanged_by_shared_key_switch(self, pname, style,
                                                     on_chip):
        params = {"hpca19": hpca19, "mini": mini}[pname]()
        config = replace(CONFIG, relin_key_on_chip=on_chip)
        if style == "rotate":
            program = compile_rotation(params, config, 3)
        else:
            program = compile_mult(params, config,
                                   _listing_decomposition(params, style))
        digest = hashlib.sha256(_listing(program).encode()).hexdigest()
        assert digest == LISTING_SHA256[pname, style, on_chip]

    def test_mul_plain_program(self, paper_params):
        histogram = compile_mul_plain(paper_params).opcode_histogram()
        assert histogram == {Opcode.REARRANGE: 5, Opcode.NTT: 3,
                             Opcode.CMUL: 2, Opcode.INTT: 2}

    def test_one_rearrange_per_transform(self, paper_params):
        histogram = compile_mult(paper_params, CONFIG).opcode_histogram()
        assert histogram[Opcode.REARRANGE] == \
            histogram[Opcode.NTT] + histogram[Opcode.INTT]

    def test_slow_variant_uses_two_components(self, paper_params):
        program = compile_mult(paper_params, slow_coprocessor_config())
        histogram = program.opcode_histogram()
        # 8 forward + 2 digit NTTs; relin SoP has 2x2 products.
        assert histogram[Opcode.NTT] == 10
        assert histogram[Opcode.CMUL] == 12
        assert histogram[Opcode.LOAD_RLK] == 2

    def test_on_chip_key_removes_loads(self, paper_params):
        config = replace(CONFIG, relin_key_on_chip=True)
        histogram = compile_mult(paper_params, config).opcode_histogram()
        assert Opcode.LOAD_RLK not in histogram

    def test_add_program(self, paper_params):
        histogram = compile_add(paper_params).opcode_histogram()
        assert histogram == {Opcode.CADD: 2}


class TestCoprocessorFunctional:
    @pytest.fixture(scope="class")
    def setup(self, mini_context, mini_keys, ):
        rng = np.random.default_rng(55)
        params = mini_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct_a = mini_context.encrypt(a, mini_keys.public)
        ct_b = mini_context.encrypt(b, mini_keys.public)
        return a, b, ct_a, ct_b

    def test_mult_bit_identical_to_evaluator(self, mini_context, mini_keys,
                                             setup, mini_params):
        _, _, ct_a, ct_b = setup
        coprocessor = Coprocessor(mini_params)
        hw_result, _ = coprocessor.mult(ct_a, ct_b, mini_keys.relin)
        sw_result = Evaluator(mini_context).multiply(ct_a, ct_b,
                                                     mini_keys.relin)
        # The model's registers hold coefficients; the evaluator's
        # result lives in the evaluation domain.
        for hw_part, sw_part in zip(hw_result.parts,
                                    sw_result.to_coeff().parts, strict=True):
            assert np.array_equal(hw_part.residues, sw_part.residues)

    def test_mult_decrypts_to_product(self, mini_context, mini_keys, setup,
                                      mini_params):
        a, b, ct_a, ct_b = setup
        coprocessor = Coprocessor(mini_params)
        hw_result, _ = coprocessor.mult(ct_a, ct_b, mini_keys.relin)
        expected = negacyclic_convolution(
            a.coeffs.tolist(), b.coeffs.tolist(), mini_params.t
        )
        decrypted = mini_context.decrypt(hw_result, mini_keys.secret)
        assert decrypted.coeffs.tolist() == expected

    def test_add_bit_identical(self, mini_context, mini_keys, setup,
                               mini_params):
        _, _, ct_a, ct_b = setup
        coprocessor = Coprocessor(mini_params)
        hw_result, _ = coprocessor.add(ct_a, ct_b)
        sw_result = mini_context.add(ct_a, ct_b)
        # The model's registers hold coefficients; the evaluator's
        # result lives in the evaluation domain.
        for hw_part, sw_part in zip(hw_result.parts,
                                    sw_result.to_coeff().parts, strict=True):
            assert np.array_equal(hw_part.residues, sw_part.residues)

    def test_slow_coprocessor_decrypts_correctly(self, mini_context,
                                                 mini_keys, setup,
                                                 mini_params):
        """Traditional-CRT variant with a 2-component digit key."""
        a, b, ct_a, ct_b = setup
        config = slow_coprocessor_config()
        coprocessor = Coprocessor(mini_params, config)
        base_bits = -(-mini_params.q.bit_length() // 2)
        digit_key = mini_context.relin_keygen(
            mini_keys.secret, WordDecomp(base_bits=base_bits))
        hw_result, report = coprocessor.mult(ct_a, ct_b, digit_key)
        expected = negacyclic_convolution(
            a.coeffs.tolist(), b.coeffs.tolist(), mini_params.t
        )
        decrypted = mini_context.decrypt(hw_result, mini_keys.secret)
        assert decrypted.coeffs.tolist() == expected

    def test_on_chip_key_same_result(self, mini_context, mini_keys, setup,
                                     mini_params):
        _, _, ct_a, ct_b = setup
        streamed = Coprocessor(mini_params)
        pinned = Coprocessor(mini_params,
                             replace(CONFIG, relin_key_on_chip=True))
        result_streamed, report_streamed = streamed.mult(
            ct_a, ct_b, mini_keys.relin
        )
        result_pinned, report_pinned = pinned.mult(ct_a, ct_b,
                                                   mini_keys.relin)
        assert np.array_equal(result_streamed.c0.residues,
                              result_pinned.c0.residues)
        assert report_pinned.transfer_cycles == 0
        assert report_streamed.transfer_cycles > 0

    def test_missing_relin_key_raises(self, mini_params, setup):
        _, _, ct_a, ct_b = setup
        coprocessor = Coprocessor(mini_params)
        program = compile_mult(mini_params, CONFIG)
        coprocessor.registers.clear()
        ct_a, ct_b = ct_a.to_coeff(), ct_b.to_coeff()
        coprocessor.load_polynomial("a0", ct_a.c0.residues)
        coprocessor.load_polynomial("a1", ct_a.c1.residues)
        coprocessor.load_polynomial("b0", ct_b.c0.residues)
        coprocessor.load_polynomial("b1", ct_b.c1.residues)
        with pytest.raises(HardwareModelError):
            coprocessor.execute(program, relin_key=None)

    def test_mult_raw_then_relin_equals_mult(self, mini_keys, setup,
                                             mini_params):
        """Mult is its two halves run back to back on one register file:
        same residues, and the cycle reports add up exactly."""
        _, _, ct_a, ct_b = setup
        coeff_a, coeff_b = ct_a.to_coeff(), ct_b.to_coeff()
        operands = {"a0": coeff_a.c0.residues, "a1": coeff_a.c1.residues,
                    "b0": coeff_b.c0.residues, "b1": coeff_b.c1.residues}
        whole, whole_report = Coprocessor(mini_params).mult(
            ct_a, ct_b, mini_keys.relin)
        split = Coprocessor(mini_params)
        for name, rows in operands.items():
            split.load_polynomial(name, rows)
        raw_report = split.execute(compile_mult_raw(mini_params, CONFIG))
        assert {"s0", "s1", "s2"} <= split.registers.keys()
        relin_report = split.execute(compile_relin(mini_params, CONFIG),
                                     relin_key=mini_keys.relin)
        for name, part in zip(("out0", "out1"), whole.parts, strict=True):
            assert np.array_equal(split.registers[name][:mini_params.k_q],
                                  part.residues)
        assert raw_report.total_cycles + relin_report.total_cycles == \
            whole_report.total_cycles

    def test_mul_plain_bit_identical(self, mini_context, setup,
                                     mini_params):
        a, _, ct_a, _ = setup
        coeff_a = ct_a.to_coeff()
        hw_result, _ = Coprocessor(mini_params).run(
            compile_mul_plain(mini_params),
            {"a0": coeff_a.c0.residues, "a1": coeff_a.c1.residues,
             "m": a.coeffs})
        sw_result = mini_context.mul_plain(ct_a, a)
        for hw_part, sw_part in zip(hw_result.parts,
                                    sw_result.to_coeff().parts,
                                    strict=True):
            assert np.array_equal(hw_part.residues, sw_part.residues)

    def test_opcode_without_datapath_raises(self, mini_params):
        """CMUL_SCALAR is in the ISA but has no handler: a program
        holding it is refused by name, not with a bare KeyError."""
        program = Program(name="scaled")
        program.emit(Opcode.CMUL_SCALAR, dst="a0", srcs=("a0",), scalar=3)
        with pytest.raises(IsaError, match="'scaled'.*CMUL_SCALAR"):
            Coprocessor(mini_params).execute(program)

    def test_uninitialised_register_raises(self, mini_params):
        coprocessor = Coprocessor(mini_params)
        with pytest.raises(IsaError):
            coprocessor._reg("nope")

    def test_toy_geometry_coprocessor(self, toy_context, toy_keys, rng):
        """The coprocessor generalises to other basis geometries
        (toy: 3+4 primes) with the same bit-exactness."""
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct_a = toy_context.encrypt(a, toy_keys.public)
        ct_b = toy_context.encrypt(b, toy_keys.public)
        coprocessor = Coprocessor(params)
        hw_result, _ = coprocessor.mult(ct_a, ct_b, toy_keys.relin)
        sw_result = Evaluator(toy_context).multiply(ct_a, ct_b,
                                                    toy_keys.relin)
        # The model's registers hold coefficients; the evaluator's
        # result lives in the evaluation domain.
        for hw_part, sw_part in zip(hw_result.parts,
                                    sw_result.to_coeff().parts, strict=True):
            assert np.array_equal(hw_part.residues, sw_part.residues)


class TestDatapaths:
    """One-instruction programs at mini: NTT / INTT / CMUL / CADD / CSUB
    on the q rows, the p rows and all rows compute the engine's
    transform or the ``% prime`` expression, touch no other row, and
    book exactly ``instruction_cycles``."""

    OPS = (Opcode.NTT, Opcode.INTT, Opcode.CMUL, Opcode.CADD, Opcode.CSUB)

    @pytest.fixture(scope="class")
    def operands(self, mini_params):
        rng = np.random.default_rng(36)
        primes = mini_params.q_primes + mini_params.p_primes
        return {name: np.stack([rng.integers(0, p, mini_params.n)
                                for p in primes])
                for name in ("a", "b")}

    @staticmethod
    def expected(op, params, a, b):
        """The whole register's result; an instruction owns a row slice."""
        primes = params.q_primes + params.p_primes
        col = np.array(primes, dtype=np.int64)[:, None]
        if op is Opcode.NTT:
            return ntt_rows(primes, a)
        if op is Opcode.INTT:
            return intt_rows(primes, a)
        combine = {Opcode.CMUL: np.multiply, Opcode.CADD: np.add,
                   Opcode.CSUB: np.subtract}[op]
        return combine(a, b) % col

    @pytest.mark.parametrize("batch", ["q", "p", "all"])
    @pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
    def test_one_instruction(self, mini_params, operands, op, batch):
        k_q, k_total = mini_params.k_q, mini_params.k_total
        start, stop = {"q": (0, k_q), "p": (k_q, k_total),
                       "all": (0, k_total)}[batch]
        program = Program(name=f"{op.name}-{batch}")
        srcs = ("a",) if op in (Opcode.NTT, Opcode.INTT) else ("a", "b")
        ins = program.emit(op, dst="out", srcs=srcs,
                           rows=tuple(range(start, stop)))
        coprocessor = Coprocessor(mini_params)
        # Registers hold residue words; ``expected`` computes in int64.
        coprocessor.registers.update(
            {name: matrix.astype(RESIDUE)
             for name, matrix in operands.items()})
        report = coprocessor.execute(program)

        out = coprocessor.registers["out"]
        want = self.expected(op, mini_params, operands["a"], operands["b"])
        assert np.array_equal(out[start:stop], want[start:stop])
        assert not out[:start].any() and not out[stop:].any()
        assert report.op_stats == {
            op: InstructionStat(calls=1,
                                cycles=coprocessor.instruction_cycles(ins))}

    @pytest.mark.parametrize("op", [Opcode.NTT, Opcode.CMUL],
                             ids=lambda op: op.name)
    @pytest.mark.parametrize("rows", [(0, 2), (1, 0), ()],
                             ids=["gap", "reversed", "empty"])
    def test_rows_must_be_one_contiguous_range(self, mini_params, op, rows):
        program = Program(name="scattered")
        program.emit(op, dst="out", srcs=("a", "b"), rows=rows)
        with pytest.raises(IsaError, match="contiguous"):
            Coprocessor(mini_params).execute(program)

    def test_cycle_ordering(self, mini_params):
        """CADD is cheaper than CMUL, both far cheaper than rearrange:
        the datapath cycles, net of the dispatch gap a rearrange (which
        streams with its transform) does not pay."""
        model = Coprocessor(mini_params).instruction_cycle_model()
        dispatch = DISPATCH_OVERHEAD
        cadd = model[Opcode.CADD] - dispatch
        cmul = model[Opcode.CMUL] - dispatch
        assert cadd <= cmul < model[Opcode.REARRANGE]
        assert model[Opcode.CSUB] == model[Opcode.CADD]


class TestEvaluationDomainBoundary:
    """The model's DMA boundary: operands live in the evaluation domain,
    the coprocessor's registers take coefficients (one inverse transform
    per part at the boundary)."""

    def test_paper_mult_on_session_handles(self):
        """The perf ledger's ``paper_err_pct`` call: ``Coprocessor.mult``
        on ``Session.encrypt`` handles decrypts to the evaluator's
        product, residue for residue in coefficient form, and its Table
        I / II cycles are a coefficient-operand run's: the boundary
        conversion is host work, not coprocessor cycles (pinned at
        hpca19)."""
        session = Session(hpca19())
        a, b = session.encrypt([1, 1, 0, 1]), session.encrypt([1, 0, 1])
        ct_a, ct_b = a.ciphertext, b.ciphertext
        assert ct_a.ntt_resident and ct_b.ntt_resident
        relin = session.keys.relin
        hw, report = Coprocessor(session.params).mult(ct_a, ct_b, relin)
        sw = session.evaluator.multiply(ct_a, ct_b, relin)
        assert not hw.ntt_resident
        for hw_part, sw_part in zip(hw.parts, sw.to_coeff().parts,
                                    strict=True):
            assert np.array_equal(hw_part.residues, sw_part.residues)
        assert np.array_equal(session.decrypt(hw), session.decrypt(sw))
        assert list(session.decrypt(hw)[:6]) == [1, 1, 1, 0, 0, 1]

        coeff, coeff_report = Coprocessor(session.params).mult(
            ct_a.to_coeff(), ct_b.to_coeff(), relin)
        for got, want in zip(coeff.parts, hw.parts, strict=True):
            assert np.array_equal(got.residues, want.residues)
        assert coeff_report.total_cycles == report.total_cycles == 855_548
        assert report.arm_cycles == 5_133_288
        assert {op.value: stat.calls
                for op, stat in report.op_stats.items()} == {
            "lift_q_to_Q": 4, "memory_rearrange": 22, "ntt": 14,
            "coeff_mul": 20, "coeff_add": 14, "intt": 8,
            "scale_Q_to_q": 3, "digit_broadcast": 6,
            "load_relin_component": 6}


class TestCoprocessorTiming:
    def test_slow_coprocessor_mult_time(self, mini_context, mini_keys,
                                        paper_params):
        """Sec. VI-C's traditional coprocessor executes in the time its
        record row prices (the paper's ~8.3 ms is gated there)."""
        from repro.fv.scheme import FvContext

        context = FvContext(paper_params, seed=5)
        keys = context.keygen()
        digit_key = context.relin_keygen(keys.secret, WordDecomp(
            base_bits=-(-paper_params.q.bit_length() // 2)))
        plain = Plaintext.from_list([1], paper_params.n, paper_params.t)
        ct = context.encrypt(plain, keys.public)
        coprocessor = Coprocessor(paper_params, slow_coprocessor_config())
        result, report = coprocessor.mult(ct, ct, digit_key)
        slow = PAPER_RECORD["Sec. VI-C", "slow coprocessor Mult (ms)"]
        assert report.seconds * 1e3 == pytest.approx(slow.model())
        # ... and its 90-bit digits still produce the right answer.
        decrypted = context.decrypt(result, keys.secret)
        assert decrypted.coeffs[0] == 1 and not decrypted.coeffs[1:].any()
