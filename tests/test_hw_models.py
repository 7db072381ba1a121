"""Tests for the DMA, resource, power, scaling, and config models
(paper Tables III, IV, V and Sec. VI-C/VI-D)."""

from dataclasses import replace

import pytest

from repro.errors import ParameterError
from repro.hw import dma
from repro.hw.config import (
    ARM_CLOCK_HZ,
    DMA_CLOCK_HZ,
    HardwareConfig,
    slow_coprocessor_config,
)
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
from repro.params import hpca19, table5_large
from repro.system.related_work import PAPER_RECORD, paper_rows

CONFIG = HardwareConfig()
POLY_BYTES = 98_304  # one R_q polynomial, the Table III payload


def _table5(column: str) -> list[float]:
    """The paper's Table V column, in seconds."""
    return [row.paper * 1e-3 for row in paper_rows("Table V")
            if row.label.endswith(column)]


class TestHardwareConfig:
    def test_paper_clocks(self):
        assert CONFIG.fpga_clock_hz == 200_000_000
        assert ARM_CLOCK_HZ == 1_200_000_000
        assert DMA_CLOCK_HZ == 250_000_000

    def test_paper_parallelism(self):
        """Seven RPAUs (one per channel of the 7-prime p basis) of two
        butterfly cores each."""
        assert ResourceEstimator(hpca19(), CONFIG).butterfly_count() == 14
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


class TestDmaModel:
    def test_16k_chunks_direction(self):
        """Table III row 2: 16 KiB chunks slower than one burst, faster
        than 1 KiB chunks (the fitted model lands ~24% below the paper;
        its record row gates that gap)."""
        single = dma.transfer_arm_cycles(POLY_BYTES)
        chunk16 = dma.transfer_arm_cycles(POLY_BYTES, chunk_bytes=16_384)
        chunk1 = dma.transfer_arm_cycles(POLY_BYTES, chunk_bytes=1024)
        assert single < chunk16 < chunk1

    def test_rejects_empty_transfer(self):
        with pytest.raises(ParameterError):
            dma.transfer_seconds(0)

    def test_bandwidth_scales_time(self):
        assert dma.transfer_seconds(2 * POLY_BYTES) > \
            dma.transfer_seconds(POLY_BYTES)


class TestResourceEstimator:
    @pytest.fixture(scope="class")
    def estimator(self):
        return ResourceEstimator(hpca19(), CONFIG)

    def test_fits_on_zcu102(self, estimator):
        full = estimator.full_design()
        assert full.luts <= ZCU102_LUTS
        assert full.regs <= ZCU102_REGS
        assert full.bram36 <= ZCU102_BRAM36
        assert full.dsps <= ZCU102_DSPS

    def test_breakdown_sums_to_total(self, estimator):
        parts = (estimator.rpau_utilization()
                 + estimator.lift_utilization()
                 + estimator.scale_utilization()
                 + estimator.memory_utilization()
                 + estimator.control_utilization())
        single = estimator.single_coprocessor()
        assert (parts.luts, parts.dsps) == (single.luts, single.dsps)
        # Memory holds every BRAM; 14 butterflies x 4 DSPs at least.
        assert estimator.memory_utilization().bram36 == single.bram36
        assert estimator.rpau_utilization().dsps >= 56

    def test_one_rpau_per_channel(self):
        """The RPAU count is the wider basis' channel count, as the cycle
        model prices a row batch: 13 at the second Table V point."""
        params = table5_large()
        assert ResourceEstimator(params, CONFIG).butterfly_count() == \
            max(params.k_q, params.k_p) * CONFIG.butterfly_cores_per_rpau

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

    def test_idle_consumes_only_static(self, power):
        assert power.total_watts(0) == power.static_watts()


class TestScalingModel:
    @pytest.fixture(scope="class")
    def table(self):
        """Seeded with the paper's own Table I Mult and transfers, so the
        Sec. VI-D growth rule is checked apart from the model's Mult."""
        def seconds(label):
            return PAPER_RECORD["Table I", label].paper / ARM_CLOCK_HZ

        base = ResourceEstimator(hpca19(), CONFIG).single_coprocessor()
        return scaling_table(
            base, seconds("Mult in HW"),
            seconds("Send two ciphertexts") + seconds("Receive result"))

    def test_four_rows(self, table):
        assert [(p.n, p.log2_q) for p in table] == [
            (4096, 180), (8192, 360), (16384, 720), (32768, 1440),
        ]

    def test_compute_growth_matches_paper(self, table):
        """Paper Table V compute column, within 2 %."""
        for point, expected in zip(table, _table5("compute"), strict=True):
            assert abs(point.compute_seconds - expected) / expected < 0.02

    def test_comm_growth_matches_paper(self, table):
        """Paper Table V comm column, within 2 %."""
        for point, expected in zip(table, _table5("comm"), strict=True):
            assert abs(point.comm_seconds - expected) / expected < 0.02

    def test_total_matches_paper(self, table):
        """Paper Table V totals, within 3 %."""
        for point, expected in zip(table, _table5("total"), strict=True):
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

    def test_rows_render(self, table, capsys):
        """``python -m repro table5`` prints each point's resources."""
        from repro.cli import main

        assert main(["table5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for point in table:
            label = f"(2^{point.n.bit_length() - 1}, {point.log2_q})"
            (line,) = [text for text in lines
                       if text.startswith(f"{label}  ")]
            assert line.split()[2:] == [
                f"{count:,}" for count in (
                    point.resources.luts, point.resources.regs,
                    point.resources.bram36, point.resources.dsps)]
