"""Every quantitative claim of the paper's abstract, intro, and
conclusions, as one executable checklist.

Each test quotes the claim it validates. Anything the simulator measures
is held to 10%; model-calibrated quantities (power) to exactness;
qualitative claims to their ordering.
"""

from dataclasses import replace

import pytest

from repro.hw.config import HardwareConfig, slow_coprocessor_config
from repro.hw.power import PowerModel
from repro.hw.resources import ResourceEstimator
from repro.params import hpca19
from repro.system.baseline import SoftwareBaseline
from repro.system.server import CostModel
from repro.system.workloads import JobKind

CONFIG = HardwareConfig()


@pytest.fixture(scope="module")
def cost():
    return CostModel(hpca19(), CONFIG)


class TestAbstractClaims:
    def test_400_homomorphic_multiplications_per_second(self, cost):
        """'our domain specific hardware architecture achieves 400
        homomorphic multiplications per second at 200 MHz FPGA-clock,
        including hardware-software communication overhead'."""
        assert cost.mult_throughput_per_second() == \
            pytest.approx(400, rel=0.10)

    def test_over_13x_speedup_vs_i5(self, cost):
        """'over 13x speedup with respect to a highly optimized software
        implementation ... on an Intel i5 processor running at 1.8 GHz'."""
        baseline = SoftwareBaseline(hpca19())
        speedup = (baseline.mult_seconds()
                   * cost.mult_throughput_per_second())
        assert speedup > 13.0

    def test_200mhz_fpga_clock(self):
        """'At 200 MHz FPGA-clock'."""
        assert CONFIG.fpga_clock_hz == 200_000_000


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

    def test_depth_4_supported(self):
        """'applications with small multiplicative depth, say up to 4'."""
        from repro.fv.noise_model import NoiseModel

        assert NoiseModel(hpca19()).supported_depth() >= 4


class TestTableIClaims:
    def test_add_in_sw_80x_slower_than_hw(self, cost):
        """'Computing the simple Add operation in SW using a single Arm
        core requires 80 times more time than the same computation in
        HW, including the overhead of sending and receiving
        ciphertexts'."""
        assert cost.add_speedup_over_sw() == pytest.approx(80, rel=0.15)

    def test_mult_includes_30pct_transfer_overhead(self, cost):
        """'The computation time for Mult includes the overhead of
        intermediate data transfers (roughly 30%) during the
        relinearization steps'."""
        streamed = cost.compute_seconds(JobKind.MULT)
        pinned = CostModel(
            hpca19(), replace(CONFIG, relin_key_on_chip=True)
        ).compute_seconds(JobKind.MULT)
        share = 1 - pinned / streamed
        assert 0.15 < share < 0.40

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
        pct = ResourceEstimator(hpca19(),
                                CONFIG).full_design().percentages()
        assert pct["bram36"] == max(pct.values())

    def test_slow_coprocessor_less_than_2x_slower(self):
        """'the time for Mult is less than 2x slower in comparison to
        the faster coprocessor architecture'."""
        fast = CostModel(hpca19(), CONFIG).compute_seconds(JobKind.MULT)
        slow = CostModel(
            hpca19(), slow_coprocessor_config()
        ).compute_seconds(JobKind.MULT)
        assert fast < slow < 2 * fast

    def test_power_figures(self):
        """'static power ... 5.3 W ... 2.2 W dynamic ... single core ...
        3.4 W' and 'peak power consumption of 8.7 W'."""
        power = PowerModel(CONFIG)
        assert power.static_watts() == 5.3
        assert power.dynamic_watts(1) == pytest.approx(2.2)
        assert power.dynamic_watts(2) == pytest.approx(3.4)
        assert power.peak_watts() == pytest.approx(8.7)

    def test_faster_than_v100_at_matched_parameters(self, cost):
        """'their fastest implementation on Tesla V100 performing 388
        homomorphic multiplications per second is slower than our
        implementation achieving 400 multiplications'."""
        from repro.system.related_work import published_points

        v100 = next(p for p in published_points() if "V100" in p.name)
        assert cost.mult_throughput_per_second() > v100.mults_per_second

    def test_faster_than_catapult_yashe(self, cost):
        """'Even with a faster SHE scheme and a smaller parameter set,
        their implementation is slower than ours' (Poppelmann et al.)."""
        from repro.system.related_work import published_points

        catapult = next(
            p for p in published_points() if "Poppelmann" in p.name
        )
        ours_ms = cost.job_seconds(JobKind.MULT) * 1e3
        assert ours_ms < catapult.mult_ms

    def test_hypothetical_large_fpga_under_100ms(self):
        """'a hypothetical architecture following our design steps would
        be able to compute homomorphic multiplication in less than 0.1
        sec' (the HEPCloud-parameter what-if, Table V row 4)."""
        from repro.hw.scaling import scaling_table

        cost = CostModel(hpca19(), CONFIG)
        base = ResourceEstimator(hpca19(), CONFIG).single_coprocessor()
        points = scaling_table(
            base, cost.compute_seconds(JobKind.MULT),
            cost.transfer_in_seconds() + cost.transfer_out_seconds(),
        )
        assert points[-1].total_seconds < 0.1


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
