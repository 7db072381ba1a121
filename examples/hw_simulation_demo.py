#!/usr/bin/env python3
"""Run FV.Mult on the simulated coprocessor and compare with the paper.

Reproduces, live, the Table I / Table II measurement experiment: one
homomorphic multiplication executes instruction-by-instruction on the
cycle-level model of the paper's coprocessor, the result is checked
bit-for-bit against the software evaluator, and the per-instruction
cycle counts are printed next to the paper's measured values.

Run:  python examples/hw_simulation_demo.py
"""

import numpy as np

from repro import Coprocessor, Evaluator, FvContext, Plaintext, hpca19
from repro.hw.config import ARM_CLOCK_HZ
from repro.system.related_work import PAPER_RECORD, paper_rows

PAPER_TABLE2 = {row.label: row.paper for row in paper_rows("Table II")}
PAPER_MULT = PAPER_RECORD["Table I", "Mult in HW"]
PAPER_KEY_SHARE = PAPER_RECORD["Table I text",
                               "relinearisation key transfer share"]


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
    hw_result, report = coprocessor.mult(ct1, ct2, keys.relin)

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

    print("\nper-instruction breakdown:")
    header = (f"{'instruction':<18}{'calls':>6}{'Arm cyc/call':>14}"
              f"{'paper':>10}{'delta':>8}")
    print(header)
    print("-" * len(header))
    for op, stat in report.op_stats.items():
        arm = report.config.fpga_to_arm_cycles(round(stat.cycles_per_call))
        paper = PAPER_TABLE2.get(op.value)
        delta = (f"{(arm - paper) / paper * 100:+.1f}%" if paper else "-")
        paper_s = f"{paper:,}" if paper else "-"
        print(f"{op.value:<18}{stat.calls:>6}{arm:>14,}{paper_s:>10}"
              f"{delta:>8}")
    print("-" * len(header))
    paper_ms = PAPER_MULT.paper / ARM_CLOCK_HZ * 1e3
    mult_delta = ((report.arm_cycles - PAPER_MULT.paper)
                  / PAPER_MULT.paper * 100)
    print(f"Mult total: {report.arm_cycles:,} Arm cycles = "
          f"{report.seconds * 1e3:.3f} ms "
          f"(paper: {PAPER_MULT.paper:,} = {paper_ms:.3f} ms, "
          f"delta {mult_delta:+.1f}%)")
    print(f"relinearisation key streaming share: "
          f"{report.transfer_cycles / report.total_cycles * 100:.0f}% "
          f"(paper: ~{PAPER_KEY_SHARE.paper:.0%})")


if __name__ == "__main__":
    main()
