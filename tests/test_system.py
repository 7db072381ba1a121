"""Tests for the system layer: software baseline, server, workloads,
and the Sec. VI-E comparison data (the paper's numbers themselves are
gated in tests/test_paper_claims.py)."""

import pytest

from repro.hw.config import HardwareConfig
from repro.hw.power import PowerModel
from repro.params import hpca19, mini
from repro.serve import ServingRuntime
from repro.system.baseline import (
    SoftwareBaseline,
    count_mult_operations,
    ntt_operations,
)
from repro.system.related_work import (
    our_point,
    published_points,
)
from repro.system.server import CostModel
from repro.system.workloads import JobKind
from scaffolding import mixed_workload, mult_stream

CONFIG = HardwareConfig()


@pytest.fixture(scope="module")
def cost():
    return CostModel(hpca19(), CONFIG)


class TestSoftwareBaseline:
    def test_op_counts_scale_with_parameters(self):
        big = count_mult_operations(hpca19())
        small = count_mult_operations(mini())
        assert big.modmuls > 4 * small.modmuls

    def test_ntt_op_count(self):
        ops = ntt_operations(4096)
        assert ops.modmuls == 2048 * 12

    def test_mults_per_second(self):
        baseline = SoftwareBaseline(hpca19())
        assert 28 < baseline.mults_per_second() < 33


class TestCloudServer:
    def test_serve_keeps_both_coprocessors_busy(self, cost):
        report = ServingRuntime(cost).run(mult_stream(40))
        used = {r.coprocessor for r in report.results}
        assert used == {0, 1}

    def test_serve_parallel_speedup(self, cost):
        """Paper: 'two Mult operations take roughly the same time as one'."""
        report = ServingRuntime(cost).run(mult_stream(2))
        one_job = cost.job_seconds(JobKind.MULT)
        assert report.makespan_seconds == pytest.approx(one_job)

    def test_serve_throughput_matches_analytic(self, cost):
        report = ServingRuntime(cost).run(mult_stream(100))
        analytic = cost.mult_throughput_per_second()
        assert abs(report.throughput_per_second() - analytic) / analytic \
            < 0.05

    def test_mixed_workload_runs(self, cost):
        report = ServingRuntime(cost).run(mixed_workload(5, 10, seed=3))
        assert len(report.results) == 55
        assert sum(r.job.kind is JobKind.MULT for r in report.results) == 5
        assert report.throughput_per_second() > 0


class TestWorkloads:
    def test_mult_stream(self):
        jobs = mult_stream(10)
        assert len(jobs) == 10
        assert all(j.kind is JobKind.MULT for j in jobs)

    def test_mixed_composition(self):
        jobs = mixed_workload(4, 8, seed=0)
        mults = sum(j.kind is JobKind.MULT for j in jobs)
        adds = sum(j.kind is JobKind.ADD for j in jobs)
        assert mults == 4 and adds == 32

    def test_mixed_deterministic(self):
        a = mixed_workload(4, 8, seed=1)
        b = mixed_workload(4, 8, seed=1)
        assert [j.index for j in a] == [j.index for j in b]


class TestRelatedWork:
    def test_published_points_present(self):
        names = [p.name for p in published_points()]
        assert any("NFLlib" in name for name in names)
        assert any("V100" in name for name in names)
        assert any("Poppelmann" in name for name in names)
        assert any("HEPCloud" in name for name in names)

    def test_energy_per_mult_beats_i5(self, cost):
        """Energy per Mult, FPGA at peak power vs the i5 at ~40 W load:
        over 20x (the model gives 21 mJ vs 1.3 J)."""
        fpga = (PowerModel(CONFIG).peak_watts()
                * cost.job_seconds(JobKind.MULT) / CONFIG.num_coprocessors)
        nfllib = next(p for p in published_points() if "NFLlib" in p.name)
        i5 = nfllib.power_watts * SoftwareBaseline(hpca19()).mult_seconds()
        assert i5 / fpga > 20

    def test_ours_beats_every_published_point(self, cost):
        """Sec. VI-E's overall conclusion."""
        power = PowerModel(CONFIG)
        ours = our_point(
            cost.job_seconds(JobKind.MULT) * 1e3,
            CONFIG.num_coprocessors, power.peak_watts(),
        )
        for point in published_points():
            assert ours.mults_per_second > point.mults_per_second, point.name

    def test_power_advantage(self):
        """Our peak (8.7 W) is well below the GPU/CPU baselines."""
        power = PowerModel(CONFIG)
        for point in published_points():
            if point.power_watts is not None:
                assert power.peak_watts() < point.power_watts
