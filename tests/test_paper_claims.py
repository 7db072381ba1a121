"""The paper's published numbers, held to one record.

Every number the paper publishes for this design is one row of
:data:`repro.system.related_work.PAPER_RECORD`: the paper's value, a
callable for the model's value, and a gate. A gate is the row's |error|
when it was entered, rounded up to the next 0.5 % with a floor of
0.5 %; the power figures the model is calibrated to are exact (gate 0).
:func:`test_record_row_holds_its_gate` checks both that the error is
within the gate and that the gate follows that rule, so the model can
only get closer to the paper: a change that lowers an error fails here
until its gate is tightened to match.

The claims that are bounds or structure (> 13x, faster than the V100
and the Catapult, memory-constrained, < 100 ms, the parameter set, 2x
with two coprocessors) are ordinary tests below, reading the record's
values where the paper states one. Each test quotes the claim it checks.
"""

import ast
import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.hw.config import HardwareConfig, slow_coprocessor_config
from repro.hw.resources import (
    ZCU102_BRAM36,
    ZCU102_DSPS,
    ZCU102_LUTS,
    ZCU102_REGS,
    ResourceEstimator,
)
from repro.params import hpca19
from repro.system.related_work import PAPER_RECORD, paper_rows, published_points
from repro.system.server import CostModel
from repro.system.workloads import JobKind

CONFIG = HardwareConfig()
LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"
GATED = [row for row in PAPER_RECORD.values() if row.gate is not None]


def _ratchet(error: float) -> float:
    """|error| rounded up to the next 0.5 %, at least 0.5 %."""
    return max(1, math.ceil(round(abs(error) * 200, 9))) / 200


@pytest.mark.parametrize("row", GATED,
                         ids=[f"{r.artefact}: {r.label}" for r in GATED])
def test_record_row_holds_its_gate(row):
    error = row.error()
    if row.gate == 0:
        assert error == 0, "a calibrated row is exact"
        return
    assert abs(error) <= row.gate, f"{error:+.3%} breaks {row.gate:.1%}"
    assert row.gate == pytest.approx(_ratchet(error)), (
        f"error is {error:+.3%}: ratchet the gate to {_ratchet(error):.1%}")


def _ledger_constant(path: Path, name: str):
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not in {path}")


def test_ledger_copies_match_the_record():
    """The perf ledger keeps its own copies of Table II and the Table I
    Mult (it does not import the record); they must say what it says."""
    assert _ledger_constant(LEDGER / "probes.py", "PAPER_TABLE2") == {
        row.label: row.paper for row in paper_rows("Table II")}
    assert _ledger_constant(LEDGER / "workloads.py",
                            "PAPER_MULT_ARM_CYCLES") == \
        PAPER_RECORD["Table I", "Mult in HW"].paper


class TestAbstractClaims:
    def test_over_13x_speedup_vs_i5(self):
        """'over 13x speedup with respect to a highly optimized software
        implementation ... on an Intel i5 processor running at 1.8 GHz'."""
        row = PAPER_RECORD["headline", "speedup over FV-NFLlib on the i5"]
        assert row.model() > row.paper


class TestSectionIIIClaims:
    def test_parameter_set(self):
        """'we set the size of modulus q to 180-bit, the length of
        polynomials to 4096 coefficients, the standard deviation of the
        error distribution to 102 and the width of the larger modulus Q
        to at least 372-bit'."""
        params = hpca19()
        assert params.log2_q == 180
        assert params.n == 4096
        assert params.sigma == 102.0
        assert params.log2_big_q >= 372

    def test_rns_structure(self):
        """'The modulus q is taken as a product of six 30-bit primes ...
        Q is taken as a product of q and additional seven 30-bit
        primes and thus Q is a 390-bit integer'."""
        params = hpca19()
        assert params.k_q == 6 and params.k_p == 7
        assert params.log2_big_q == 390
        assert all(p.bit_length() == 30
                   for p in params.q_primes + params.p_primes)


class TestTableIClaims:
    def test_two_coprocessors_2x_throughput(self):
        """'we place two coprocessors in parallel and achieve 2x
        throughput'."""
        one = CostModel(hpca19(), replace(CONFIG, num_coprocessors=1))
        two = CostModel(hpca19(), replace(CONFIG, num_coprocessors=2))
        assert two.mult_throughput_per_second() == pytest.approx(
            2 * one.mult_throughput_per_second()
        )


class TestSectionVIClaims:
    def test_design_is_memory_constrained(self):
        """'It shows that the design is constrained on memory size'."""
        full = ResourceEstimator(hpca19(), CONFIG).full_design()
        shares = {"luts": full.luts / ZCU102_LUTS,
                  "regs": full.regs / ZCU102_REGS,
                  "bram36": full.bram36 / ZCU102_BRAM36,
                  "dsps": full.dsps / ZCU102_DSPS}
        assert shares["bram36"] == max(shares.values())

    def test_slow_coprocessor_less_than_2x_slower(self):
        """'the time for Mult is less than 2x slower in comparison to
        the faster coprocessor architecture'."""
        fast = CostModel(hpca19(), CONFIG).compute_seconds(JobKind.MULT)
        slow = CostModel(
            hpca19(), slow_coprocessor_config()
        ).compute_seconds(JobKind.MULT)
        assert fast < slow < 2 * fast

    def test_faster_than_v100_at_matched_parameters(self):
        """'their fastest implementation on Tesla V100 performing 388
        homomorphic multiplications per second is slower than our
        implementation achieving 400 multiplications'."""
        ours = PAPER_RECORD["headline", "Mult/s with two coprocessors"]
        v100 = PAPER_RECORD["Sec. VI-E", "Tesla V100 at 180-bit q (Mult/s)"]
        assert ours.model() > v100.paper

    def test_faster_than_catapult_yashe(self):
        """'Even with a faster SHE scheme and a smaller parameter set,
        their implementation is slower than ours' (Poppelmann et al.)."""
        catapult = next(
            p for p in published_points() if "Poppelmann" in p.name
        )
        ours_ms = CostModel(hpca19(), CONFIG).job_seconds(JobKind.MULT) * 1e3
        assert ours_ms < catapult.mult_ms

    def test_hypothetical_large_fpga_under_100ms(self):
        """'a hypothetical architecture following our design steps would
        be able to compute homomorphic multiplication in less than 0.1
        sec' (the HEPCloud-parameter what-if, Table V row 4)."""
        assert PAPER_RECORD["Table V", "(2^15, 1440) total"].model() < 100


class TestSectionVIIClaims:
    def test_f1_instance_ten_coprocessors(self):
        """'We estimate that each Amazon F1 instance could run at least
        ten coprocessors in parallel' — resource check against a
        VU9P-class device (~5x the ZCU102)."""
        single = ResourceEstimator(hpca19(), CONFIG).single_coprocessor()
        from repro.hw.resources import (
            ZCU102_BRAM36,
            ZCU102_DSPS,
            ZCU102_LUTS,
        )

        f1_luts = 5 * ZCU102_LUTS
        f1_bram = 5 * ZCU102_BRAM36
        f1_dsps = 5 * ZCU102_DSPS
        assert 10 * single.luts <= f1_luts
        # BRAM is the bottleneck: ten instances just about fit in 5x.
        assert 10 * single.bram36 <= f1_bram * 1.05
        assert 10 * single.dsps <= f1_dsps

    def test_design_knobs_trade_cost_for_performance(self):
        """'by using more computation cores we could achieve a lower
        latency or by reducing the number of memories we could lower
        the hardware cost'."""
        from repro.hw.sweeps import sweep_conversion_cores

        points = sweep_conversion_cores(hpca19())
        latencies = [p.mult_seconds for p in points]
        costs = [p.resources.dsps for p in points]
        assert latencies == sorted(latencies, reverse=True)
        assert costs == sorted(costs)
