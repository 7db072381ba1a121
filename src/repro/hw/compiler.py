"""Compiler: FV high-level operations -> coprocessor instruction streams.

``compile_mult`` emits the Fig. 2 dataflow in exactly the decomposition
that reproduces the paper's Table II call counts for the fast coprocessor
(14 NTT, 8 INTT, 20 coefficient-wise multiplications, 4 Lift, 3 Scale,
one Memory Rearrange per transform). The relinearisation sum-of-products
stays in the NTT domain and only its two accumulators are inverse-
transformed, which is what caps the INTT count at 8.

Every job kind the serving stack prices has its entry here
(``compile_add`` / ``mult`` / ``mult_raw`` / ``relin`` / ``rotation`` /
``mul_plain``): the program an entry emits is the one census of that
operation — the coprocessor executes it and the cost model prices it.

Register convention (slots in the memory file):

========  =====================================================
a0,a1     first operand ciphertext (q rows; p rows after LIFT)
b0,b1     second operand ciphertext
t0,t1,t2  tensor results over the full basis
tx        scratch for the cross product
s0,s1,s2  scaled results (q basis)
g0,g1     rotated ciphertext parts (tau_g of a0,a1)
m         plaintext polynomial of MulPlain (q rows)
d{i}      digit polynomial i of the key switch
rlk0_{i}, rlk1_{i}  key pair for digit i (streamed or resident)
p0,p1     key-switch product scratch
r0,r1     key-switch accumulators (NTT domain)
out0,out1 result ciphertext
========  =====================================================
"""

from __future__ import annotations

from ..params import ParameterSet
from ..rns.basis import basis_for
from ..rns.decompose import WordDecomp
from .config import HardwareConfig
from .isa import Opcode, Program


def _q_rows(params: ParameterSet) -> tuple[int, ...]:
    return tuple(range(params.k_q))


def _p_rows(params: ParameterSet) -> tuple[int, ...]:
    return tuple(range(params.k_q, params.k_total))


def _full_batches(params: ParameterSet) -> tuple[tuple[int, ...], ...]:
    """The two RPAU batches covering the full basis (paper Sec. V-A1)."""
    return (_q_rows(params), _p_rows(params))


def compile_add(params: ParameterSet) -> Program:
    """FV.Add: two coefficient-wise additions (one per ciphertext part)."""
    program = Program(name="fv_add")
    rows = _q_rows(params)
    program.emit(Opcode.CADD, dst="out0", srcs=("a0", "b0"), rows=rows)
    program.emit(Opcode.CADD, dst="out1", srcs=("a1", "b1"), rows=rows)
    return program


def compile_mult_raw(params: ParameterSet,
                     config: HardwareConfig) -> Program:
    """FV.Mult up to Scale: the three-part product ``s0, s1, s2`` over q.

    Lift, forward NTT, tensor, inverse NTT and Scale of Fig. 2 — all of
    Mult except its relinearisation (:func:`compile_relin`).
    """
    program = Program(
        name="fv_mult_hps" if config.use_hps else "fv_mult_traditional"
    )
    q_rows = _q_rows(params)

    # --- Lift q->Q: four input polynomials (paper: 4 Lift calls) -------------
    for reg in ("a0", "a1", "b0", "b1"):
        program.emit(Opcode.LIFT, dst=reg, srcs=(reg,), rows=q_rows)

    # --- Forward NTT over the full basis: two batches per polynomial ---------
    # (8 NTT calls; one Memory Rearrange per call loads the bit-reversed
    # paired layout.)
    for reg in ("a0", "a1", "b0", "b1"):
        for batch in _full_batches(params):
            program.emit(Opcode.REARRANGE, dst=reg, srcs=(reg,), rows=batch)
            program.emit(Opcode.NTT, dst=reg, srcs=(reg,), rows=batch)

    # --- Tensor product (8 CMUL + 2 CADD over the two batches) ----------------
    for batch in _full_batches(params):
        program.emit(Opcode.CMUL, dst="t0", srcs=("a0", "b0"), rows=batch)
    for batch in _full_batches(params):
        program.emit(Opcode.CMUL, dst="t1", srcs=("a0", "b1"), rows=batch)
    for batch in _full_batches(params):
        program.emit(Opcode.CMUL, dst="tx", srcs=("a1", "b0"), rows=batch)
    for batch in _full_batches(params):
        program.emit(Opcode.CADD, dst="t1", srcs=("t1", "tx"), rows=batch)
    for batch in _full_batches(params):
        program.emit(Opcode.CMUL, dst="t2", srcs=("a1", "b1"), rows=batch)

    # --- Inverse NTT of the three tensor polynomials (6 INTT calls) -----------
    for reg in ("t0", "t1", "t2"):
        for batch in _full_batches(params):
            program.emit(Opcode.INTT, dst=reg, srcs=(reg,), rows=batch)
            program.emit(Opcode.REARRANGE, dst=reg, srcs=(reg,), rows=batch)

    # --- Scale Q->q (3 Scale calls) -------------------------------------------
    for src, dst in (("t0", "s0"), ("t1", "s1"), ("t2", "s2")):
        program.emit(Opcode.SCALE, dst=dst, srcs=(src,),
                     rows=tuple(range(params.k_total)))
    return program


def _digit_meta(params: ParameterSet, config: HardwareConfig,
                decomposition: WordDecomp | None) -> list[dict]:
    """Per-digit ``DIGIT`` metadata of one relinearisation.

    ``decomposition`` defaults to the coprocessor's own key: raw residue
    rows for the HPS design, two signed digits (90-bit at the paper's
    180-bit q) for the traditional-CRT one, whose Fig. 8 datapath has
    just reconstructed the big-integer coefficients they are cut from.
    """
    if decomposition is None:
        decomposition = WordDecomp() if config.use_hps else WordDecomp(
            base_bits=-(-params.q.bit_length() // 2))
    return decomposition.instruction_meta(basis_for(params.q_primes))


def _emit_key_switch(program: Program, params: ParameterSet,
                     config: HardwareConfig, src: str,
                     digits: list[dict]) -> None:
    """The one key switch: ``src`` against a digit-decomposed key.

    Per digit: one extraction (its WordDecomp in the ``DIGIT`` metadata), one
    rearrange + forward NTT, the key pair streamed from DDR unless it is
    resident, two products and two accumulations (the first product
    initialises each accumulator). The sum of products stays in the NTT
    domain; only the two accumulators ``r0``/``r1`` are inverse-
    transformed. Totals for k_q = 6 RNS digits: 6 NTT, 12 CMUL, 10 CADD,
    2 INTT, 6 key loads.
    """
    q_rows = _q_rows(params)
    for i, meta in enumerate(digits):
        digit = f"d{i}"
        program.emit(Opcode.DIGIT, dst=digit, srcs=(src,), rows=q_rows,
                     **meta)
        program.emit(Opcode.REARRANGE, dst=digit, srcs=(digit,), rows=q_rows)
        program.emit(Opcode.NTT, dst=digit, srcs=(digit,), rows=q_rows)
        if not config.relin_key_on_chip:
            program.emit(Opcode.LOAD_RLK, rows=q_rows, component=i)
        for part in (0, 1):
            key, acc = f"rlk{part}_{i}", f"r{part}"
            if i == 0:
                program.emit(Opcode.CMUL, dst=acc, srcs=(digit, key),
                             rows=q_rows)
            else:
                program.emit(Opcode.CMUL, dst=f"p{part}", srcs=(digit, key),
                             rows=q_rows)
                program.emit(Opcode.CADD, dst=acc, srcs=(acc, f"p{part}"),
                             rows=q_rows)
    for reg in ("r0", "r1"):
        program.emit(Opcode.INTT, dst=reg, srcs=(reg,), rows=q_rows)
        program.emit(Opcode.REARRANGE, dst=reg, srcs=(reg,), rows=q_rows)


def compile_relin(params: ParameterSet, config: HardwareConfig,
                  decomposition: WordDecomp | None = None) -> Program:
    """Relinearisation of the three-part ``s0, s1, s2`` (deferred ReLin).

    The key switch of ``s2`` against a key for ``decomposition`` (see
    :func:`_digit_meta` for the default) plus the final accumulation
    into the output ciphertext.
    """
    program = Program(name="fv_relin")
    q_rows = _q_rows(params)
    _emit_key_switch(program, params, config, "s2",
                     _digit_meta(params, config, decomposition))
    program.emit(Opcode.CADD, dst="out0", srcs=("s0", "r0"), rows=q_rows)
    program.emit(Opcode.CADD, dst="out1", srcs=("s1", "r1"), rows=q_rows)
    return program


def compile_mult(params: ParameterSet, config: HardwareConfig,
                 decomposition: WordDecomp | None = None) -> Program:
    """FV.Mult for the fast (HPS) or slow (traditional-CRT) coprocessor:
    :func:`compile_mult_raw` followed by :func:`compile_relin`."""
    program = compile_mult_raw(params, config)
    program.instructions += compile_relin(
        params, config, decomposition).instructions
    return program


def compile_mul_plain(params: ParameterSet) -> Program:
    """Ciphertext x plaintext: pointwise products in the NTT domain.

    Inputs ``a0``/``a1`` and the plaintext polynomial ``m`` (its
    coefficients reduced into the q rows); no key, no relinearisation.
    """
    program = Program(name="fv_mul_plain")
    q_rows = _q_rows(params)
    for reg in ("a0", "a1", "m"):
        program.emit(Opcode.REARRANGE, dst=reg, srcs=(reg,), rows=q_rows)
        program.emit(Opcode.NTT, dst=reg, srcs=(reg,), rows=q_rows)
    for part in ("0", "1"):
        program.emit(Opcode.CMUL, dst="out" + part, srcs=("a" + part, "m"),
                     rows=q_rows)
    for reg in ("out0", "out1"):
        program.emit(Opcode.INTT, dst=reg, srcs=(reg,), rows=q_rows)
        program.emit(Opcode.REARRANGE, dst=reg, srcs=(reg,), rows=q_rows)
    return program


def compile_rotation(params: ParameterSet, config: HardwareConfig,
                     galois_element: int) -> Program:
    """Homomorphic slot rotation on the paper's coprocessor (extension).

    A rotation is tau_g on both parts (a coefficient permutation with
    sign flips — the memory-rearrange datapath with a different address
    generator, zero new arithmetic) followed by a key switch, which is
    exactly the relinearisation sum of products over raw-residue digits
    — so the accelerator covers modern rotation-based workloads with its
    existing instruction set.

    Register convention: inputs ``a0``/``a1``; outputs ``out0``/``out1``.
    """
    program = Program(name=f"fv_rotate_g{galois_element}")
    q_rows = _q_rows(params)
    program.emit(Opcode.GALOIS, dst="g0", srcs=("a0",), rows=q_rows,
                 element=galois_element)
    program.emit(Opcode.GALOIS, dst="g1", srcs=("a1",), rows=q_rows,
                 element=galois_element)
    # Key switch tau(c1) back under s.
    _emit_key_switch(program, params, config, "g1",
                     _digit_meta(params, config, WordDecomp()))
    program.emit(Opcode.CADD, dst="out0", srcs=("g0", "r0"), rows=q_rows)
    # out1 is the key-switch accumulator alone; model the copy as a
    # zero-add against the zeroed register file.
    program.emit(Opcode.CADD, dst="out1", srcs=("r1", "zero"), rows=q_rows)
    return program
