#!/usr/bin/env python3
"""Run FV.Mult on the simulated coprocessor and compare with the paper.

Reproduces, live, the Table I / Table II measurement experiment: one
homomorphic multiplication executes instruction-by-instruction on the
cycle-level model of the paper's coprocessor, the result is checked
bit-for-bit against the software evaluator, and the per-instruction
cycle counts are printed next to the paper's measured values.

Run:  python examples/hw_simulation_demo.py
"""

import time

import numpy as np

from repro import Coprocessor, Evaluator, FvContext, Plaintext, hpca19
from repro.hw.isa import Opcode

PAPER_TABLE2_ARM_CYCLES = {
    Opcode.NTT: 87_582,
    Opcode.INTT: 102_043,
    Opcode.CMUL: 15_662,
    Opcode.CADD: 16_292,
    Opcode.REARRANGE: 25_006,
    Opcode.LIFT: 99_137,
    Opcode.SCALE: 99_274,
}
PAPER_MULT_ARM_CYCLES = 5_349_567
PAPER_MULT_MS = 4.458


def main() -> None:
    params = hpca19()
    print("building FV context and keys at the paper's parameter set ...")
    context = FvContext(params, seed=42)
    keys = context.keygen()

    m1 = Plaintext.from_list([1, 1, 0, 1], params.n, params.t)
    m2 = Plaintext.from_list([1, 0, 1], params.n, params.t)
    ct1 = context.encrypt(m1, keys.public)
    ct2 = context.encrypt(m2, keys.public)

    print("executing FV.Mult on the simulated coprocessor ...")
    coprocessor = Coprocessor(params)
    start = time.perf_counter()
    hw_result, report = coprocessor.mult(ct1, ct2, keys.relin)
    wall = time.perf_counter() - start

    sw_result = Evaluator(context).multiply(ct1, ct2, keys.relin)
    identical = all(
        np.array_equal(h.residues, s.residues)
        for h, s in zip(hw_result.parts, sw_result.to_coeff().parts,
                        strict=True)
    )
    print(f"hardware result bit-identical to software evaluator: "
          f"{identical}")
    assert context.decrypt(hw_result, keys.secret).coeffs[:6].tolist() == \
        context.decrypt(sw_result, keys.secret).coeffs[:6].tolist()

    print(f"\nper-instruction breakdown (simulated in {wall:.2f} s):")
    header = (f"{'instruction':<18}{'calls':>6}{'Arm cyc/call':>14}"
              f"{'paper':>10}{'delta':>8}")
    print(header)
    print("-" * len(header))
    for op, stat in report.op_stats.items():
        arm = report.config.fpga_to_arm_cycles(round(stat.cycles_per_call))
        paper = PAPER_TABLE2_ARM_CYCLES.get(op)
        delta = (f"{(arm - paper) / paper * 100:+.1f}%" if paper else "-")
        paper_s = f"{paper:,}" if paper else "-"
        print(f"{op.value:<18}{stat.calls:>6}{arm:>14,}{paper_s:>10}"
              f"{delta:>8}")
    print("-" * len(header))
    mult_delta = ((report.arm_cycles - PAPER_MULT_ARM_CYCLES)
                  / PAPER_MULT_ARM_CYCLES * 100)
    print(f"Mult total: {report.arm_cycles:,} Arm cycles = "
          f"{report.seconds * 1e3:.3f} ms "
          f"(paper: {PAPER_MULT_ARM_CYCLES:,} = {PAPER_MULT_MS} ms, "
          f"delta {mult_delta:+.1f}%)")
    print(f"relinearisation key streaming share: "
          f"{report.transfer_cycles / report.total_cycles * 100:.0f}% "
          f"(paper: ~30%)")


if __name__ == "__main__":
    main()
