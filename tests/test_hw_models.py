"""Tests for the DMA, resource, power, scaling, and config models
(paper Tables III, IV, V and Sec. VI-C/VI-D)."""

from dataclasses import replace

import pytest

from repro.errors import ParameterError
from repro.hw.config import HardwareConfig, slow_coprocessor_config
from repro.hw.dma import DmaModel
from repro.hw.power import PowerModel
from repro.hw.resources import (
    ZCU102_BRAM36,
    ZCU102_DSPS,
    ZCU102_LUTS,
    ZCU102_REGS,
    ResourceEstimator,
    Utilization,
)
from repro.hw.scaling import scaling_table
from repro.params import hpca19

CONFIG = HardwareConfig()
POLY_BYTES = 98_304  # one R_q polynomial, the Table III payload


class TestHardwareConfig:
    def test_paper_clocks(self):
        assert CONFIG.fpga_clock_hz == 200_000_000
        assert CONFIG.arm_clock_hz == 1_200_000_000
        assert CONFIG.dma_clock_hz == 250_000_000

    def test_paper_parallelism(self):
        assert CONFIG.num_rpaus == 7
        assert CONFIG.butterfly_cores_per_rpau == 2
        assert CONFIG.lift_cores == 2
        assert CONFIG.num_coprocessors == 2

    def test_arm_cycle_conversion(self):
        """Arm @1.2 GHz counts 6 cycles per FPGA cycle @200 MHz."""
        assert CONFIG.fpga_to_arm_cycles(1000) == 6000

    def test_slow_config(self):
        slow = slow_coprocessor_config()
        assert slow.fpga_clock_hz == 225_000_000
        assert not slow.use_hps
        assert slow.lift_cores == 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            HardwareConfig(butterfly_cores_per_rpau=3)
        with pytest.raises(ParameterError):
            HardwareConfig(lift_cores=0)
        with pytest.raises(ParameterError):
            HardwareConfig(sliding_window_bits=0)


class TestDmaModel:
    @pytest.fixture(scope="class")
    def dma(self):
        return DmaModel(CONFIG)

    def test_single_transfer_matches_table3(self, dma):
        """Table III row 1: 98,304 bytes in ~76 us (90,708 Arm cycles)."""
        arm = dma.transfer_arm_cycles(POLY_BYTES)
        assert abs(arm - 90_708) / 90_708 < 0.03

    def test_1k_chunks_match_table3(self, dma):
        """Table III row 3: 1,024-byte chunks in ~202 us."""
        arm = dma.transfer_arm_cycles(POLY_BYTES, chunk_bytes=1024)
        assert abs(arm - 242_771) / 242_771 < 0.05

    def test_16k_chunks_direction(self, dma):
        """Table III row 2: 16 KiB chunks slower than one burst, faster
        than 1 KiB chunks (the fitted model lands ~24% below the paper's
        130,686 cycles; the ordering is the reproduced result)."""
        single = dma.transfer_arm_cycles(POLY_BYTES)
        chunk16 = dma.transfer_arm_cycles(POLY_BYTES, chunk_bytes=16_384)
        chunk1 = dma.transfer_arm_cycles(POLY_BYTES, chunk_bytes=1024)
        assert single < chunk16 < chunk1

    def test_send_two_ciphertexts_matches_table1(self, dma):
        """Table I: 434,013 Arm cycles = 362 us."""
        seconds = dma.send_ciphertexts_seconds(POLY_BYTES, 2)
        assert abs(seconds - 362e-6) / 362e-6 < 0.03

    def test_receive_ciphertext_matches_table1(self, dma):
        """Table I: 215,697 Arm cycles = 180 us."""
        seconds = dma.receive_ciphertext_seconds(POLY_BYTES)
        assert abs(seconds - 180e-6) / 180e-6 < 0.03

    def test_rejects_empty_transfer(self, dma):
        with pytest.raises(ParameterError):
            dma.transfer_seconds(0)

    def test_bandwidth_scales_time(self, dma):
        assert dma.transfer_seconds(2 * POLY_BYTES) > \
            dma.transfer_seconds(POLY_BYTES)


class TestResourceEstimator:
    @pytest.fixture(scope="class")
    def estimator(self):
        return ResourceEstimator(hpca19(), CONFIG)

    def test_single_coprocessor_near_paper(self, estimator):
        """Table IV row 2: 63,522 / 25,622 / 388 / 208 (within 10%)."""
        single = estimator.single_coprocessor()
        assert abs(single.luts - 63_522) / 63_522 < 0.10
        assert abs(single.regs - 25_622) / 25_622 < 0.10
        assert abs(single.bram36 - 388) / 388 < 0.10
        assert abs(single.dsps - 208) / 208 < 0.10

    def test_full_design_near_paper(self, estimator):
        """Table IV row 1: 133,692 / 60,312 / 815 / 416 (within 10%)."""
        full = estimator.full_design()
        assert abs(full.luts - 133_692) / 133_692 < 0.10
        assert abs(full.regs - 60_312) / 60_312 < 0.10
        assert abs(full.bram36 - 815) / 815 < 0.10
        assert abs(full.dsps - 416) / 416 < 0.10

    def test_utilization_percentages(self, estimator):
        """Paper: 49% LUT / 11% FF / 89% BRAM / 16% DSP for two."""
        pct = estimator.full_design().percentages()
        assert abs(pct["luts"] - 49) < 4
        assert abs(pct["regs"] - 11) < 3
        assert abs(pct["bram36"] - 89) < 6
        assert abs(pct["dsps"] - 16) < 4

    def test_design_is_memory_bound(self, estimator):
        """The paper's key observation: BRAM is the binding constraint."""
        pct = estimator.full_design().percentages()
        assert pct["bram36"] == max(pct.values())

    def test_fits_on_zcu102(self, estimator):
        full = estimator.full_design()
        assert full.luts <= ZCU102_LUTS
        assert full.regs <= ZCU102_REGS
        assert full.bram36 <= ZCU102_BRAM36
        assert full.dsps <= ZCU102_DSPS

    def test_breakdown_sums_to_total(self, estimator):
        breakdown = estimator.breakdown()
        parts = (breakdown["rpaus"] + breakdown["lift_cores"]
                 + breakdown["scale_cores"] + breakdown["memory_file"]
                 + breakdown["control"])
        single = breakdown["single_coprocessor"]
        assert (parts.luts, parts.dsps) == (single.luts, single.dsps)
        # Memory holds every BRAM; 14 butterflies x 4 DSPs at least.
        assert breakdown["memory_file"].bram36 == single.bram36
        assert breakdown["rpaus"].dsps >= 56

    def test_structural_scaling_with_cores(self):
        base = ResourceEstimator(hpca19(), CONFIG).single_coprocessor()
        more = ResourceEstimator(
            hpca19(), replace(CONFIG, lift_cores=4, scale_cores=4)
        ).single_coprocessor()
        assert more.dsps > base.dsps
        assert more.luts > base.luts

    def test_utilization_addition(self):
        a = Utilization(1, 2, 3, 4)
        b = Utilization(10, 20, 30, 40)
        total = a + b
        assert (total.luts, total.regs, total.bram36, total.dsps) == \
            (11, 22, 33, 44)
        assert a.scaled(3).luts == 3


class TestPowerModel:
    @pytest.fixture(scope="class")
    def power(self):
        return PowerModel(CONFIG)

    def test_paper_measurements_exact(self, power):
        """Sec. VI-C: 5.3 W static, +2.2 W one core, +3.4 W two cores."""
        assert power.static_watts() == 5.3
        assert power.dynamic_watts(1) == pytest.approx(2.2)
        assert power.dynamic_watts(2) == pytest.approx(3.4)

    def test_peak_is_8_7_watts(self, power):
        """Sec. VI-E: 'peak power consumption of 8.7 W'."""
        assert power.peak_watts() == pytest.approx(8.7)

    def test_idle_consumes_only_static(self, power):
        assert power.total_watts(0) == 5.3

    def test_power_well_below_i5(self, power):
        """The paper's efficiency argument: i5 reaches ~40 W."""
        assert power.peak_watts() < 40 / 4


class TestScalingModel:
    @pytest.fixture(scope="class")
    def table(self):
        base = ResourceEstimator(hpca19(), CONFIG).single_coprocessor()
        return scaling_table(base, 4.458e-3, 0.542e-3)

    def test_four_rows(self, table):
        assert [(p.n, p.log2_q) for p in table] == [
            (4096, 180), (8192, 360), (16384, 720), (32768, 1440),
        ]

    def test_compute_growth_matches_paper(self, table):
        """Paper Table V compute column: 4.46 -> 9.68 -> 21.0 -> 45.6."""
        paper = [4.46e-3, 9.68e-3, 21.0e-3, 45.6e-3]
        for point, expected in zip(table, paper, strict=True):
            assert abs(point.compute_seconds - expected) / expected < 0.02

    def test_comm_growth_matches_paper(self, table):
        """Paper Table V comm column: 0.54 -> 2.16 -> 8.64 -> 34.6."""
        paper = [0.54e-3, 2.16e-3, 8.64e-3, 34.6e-3]
        for point, expected in zip(table, paper, strict=True):
            assert abs(point.comm_seconds - expected) / expected < 0.02

    def test_total_matches_paper(self, table):
        """Paper Table V totals: 5.0 / 11.9 / 29.6 / 80.2 ms."""
        paper = [5.0e-3, 11.9e-3, 29.6e-3, 80.2e-3]
        for point, expected in zip(table, paper, strict=True):
            assert abs(point.total_seconds - expected) / expected < 0.03

    def test_bram_quadruples(self, table):
        for prev, curr in zip(table, table[1:], strict=False):
            assert curr.resources.bram36 == 4 * prev.resources.bram36

    def test_logic_doubles(self, table):
        for prev, curr in zip(table, table[1:], strict=False):
            assert curr.resources.luts == 2 * prev.resources.luts
            assert curr.resources.dsps == 2 * prev.resources.dsps

    def test_communication_overtakes_compute(self, table):
        """The paper's implicit trend: comm grows 4x vs compute 2.17x,
        so transfers dominate at large parameters."""
        ratios = [p.comm_seconds / p.compute_seconds for p in table]
        assert ratios == sorted(ratios)

    def test_rows_render(self, table):
        assert "msec" in table[0].row()

    def test_rows_from_the_modelled_base_point(self):
        """Seeded with the simulator's own Mult (4.28 ms, -4 %) and
        transfers instead of the paper's, every Table V cell still lands
        within 10 %."""
        from repro.system.server import CostModel
        from repro.system.workloads import JobKind

        cost = CostModel(hpca19(), CONFIG)
        base = ResourceEstimator(hpca19(), CONFIG).single_coprocessor()
        table = scaling_table(
            base, cost.compute_seconds(JobKind.MULT),
            cost.transfer_in_seconds() + cost.transfer_out_seconds())
        paper = [(4.46, 0.54, 5.0), (9.68, 2.16, 11.9),
                 (21.0, 8.64, 29.6), (45.6, 34.6, 80.2)]
        for point, row in zip(table, paper, strict=True):
            ours = (point.compute_seconds, point.comm_seconds,
                    point.total_seconds)
            for measured, expected_ms in zip(ours, row, strict=True):
                assert abs(measured * 1e3 - expected_ms) / expected_ms \
                    < 0.10, (point.n, expected_ms)
