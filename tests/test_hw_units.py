"""Tests for the lift/scale units, memory file, and ISA."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import IsaError
from repro.hw.config import (
    DISPATCH_OVERHEAD,
    HPS_BLOCK_CYCLES,
    HardwareConfig,
    slow_coprocessor_config,
)
from repro.hw.isa import Instruction, Opcode, Program
from repro.hw.lift_unit import (
    HpsLiftUnit,
    TraditionalLiftUnit,
)
from repro.hw.memory_file import MemoryFile
from repro.hw.scale_unit import HpsScaleUnit, TraditionalScaleUnit
from repro.rns.basis import basis_for, lift_context, scale_context
from repro.rns.lift import lift_hps, lift_traditional
from repro.rns.scale import scale_hps, scale_traditional

CONFIG = HardwareConfig()


@pytest.fixture(scope="module")
def lift_ctx(mini_params):
    return lift_context(mini_params.q_primes, mini_params.p_primes)


@pytest.fixture(scope="module")
def scale_ctx(mini_params):
    return scale_context(mini_params.q_primes, mini_params.p_primes,
                         mini_params.t)


@pytest.fixture(scope="module")
def q_residues(mini_params, ):
    rng = np.random.default_rng(31)
    basis = basis_for(mini_params.q_primes)
    return np.stack([
        rng.integers(0, p, mini_params.n) for p in basis.primes
    ]).astype(np.int64)


@pytest.fixture(scope="module")
def full_residues(mini_params):
    rng = np.random.default_rng(32)
    primes = mini_params.q_primes + mini_params.p_primes
    return np.stack([
        rng.integers(0, p, mini_params.n) for p in primes
    ]).astype(np.int64)


class TestHpsLiftUnit:
    def test_functional_equals_rns_lift(self, lift_ctx, q_residues):
        unit = HpsLiftUnit(lift_ctx, CONFIG)
        result, _ = unit.run(q_residues)
        assert np.array_equal(result, lift_hps(lift_ctx, q_residues))

    def test_cycle_formula_matches_pipeline_recurrence(self, lift_ctx):
        """The closed form equals the event-driven block pipeline."""
        from repro.hw.block_pipeline import simulate_block_pipeline

        unit = HpsLiftUnit(lift_ctx, CONFIG)
        latencies = unit.block_latencies()
        for count in (1, 2, 7, 64, 257):
            finish = simulate_block_pipeline(count, latencies)
            simulated_end = finish[-1][-1]
            # cycles() takes the per-core count through the same chain.
            n = count * CONFIG.lift_cores
            assert unit.cycles(n) == simulated_end

    def test_throughput_is_bottleneck_bound(self, lift_ctx):
        """Steady-state issue rate equals the slowest block (7 cycles)."""
        unit = HpsLiftUnit(lift_ctx, CONFIG)
        small = unit.cycles(64 * CONFIG.lift_cores)
        large = unit.cycles(65 * CONFIG.lift_cores)
        assert large - small == HPS_BLOCK_CYCLES

    def test_paper_lift_time(self, paper_params):
        """Table II: Lift with two cores in under 0.1 ms."""
        ctx = lift_context(paper_params.q_primes, paper_params.p_primes)
        unit = HpsLiftUnit(ctx, CONFIG)
        seconds = (unit.cycles(4096) + DISPATCH_OVERHEAD) \
            / CONFIG.fpga_clock_hz
        assert seconds < 100e-6

    def test_more_cores_fewer_cycles(self, lift_ctx):
        two = HpsLiftUnit(lift_ctx, CONFIG)
        four = HpsLiftUnit(lift_ctx, replace(CONFIG, lift_cores=4))
        assert four.cycles(4096) < two.cycles(4096)


class TestTraditionalLiftUnit:
    def test_functional_equals_exact_crt(self, lift_ctx, q_residues):
        unit = TraditionalLiftUnit(lift_ctx, slow_coprocessor_config())
        result, _ = unit.run(q_residues)
        assert np.array_equal(result,
                              lift_traditional(lift_ctx, q_residues))

    def test_slower_than_hps(self, lift_ctx):
        """The HPS lift is faster on mini's smaller basis too (> 5x).
        Sec. IV-C's 13x on the paper's six q primes is a
        ``PAPER_RECORD`` row."""
        hps = HpsLiftUnit(lift_ctx, CONFIG)
        trad = TraditionalLiftUnit(lift_ctx, replace(CONFIG, use_hps=False))
        assert trad.cycles(4096) > 5 * hps.cycles(4096)


class TestHpsScaleUnit:
    def test_functional_equals_rns_scale(self, scale_ctx, full_residues):
        unit = HpsScaleUnit(scale_ctx, CONFIG)
        result, _ = unit.run(full_residues)
        assert np.array_equal(result, scale_hps(scale_ctx, full_residues))

    def test_scale_time_close_to_lift(self, paper_params):
        """Paper: Scale ~ Lift thanks to the block-level pipeline."""
        lctx = lift_context(paper_params.q_primes, paper_params.p_primes)
        sctx = scale_context(paper_params.q_primes, paper_params.p_primes,
                             2)
        lift_cycles = HpsLiftUnit(lctx, CONFIG).cycles(4096)
        scale_cycles = HpsScaleUnit(sctx, CONFIG).cycles(4096)
        assert abs(scale_cycles - lift_cycles) / lift_cycles < 0.01


class TestTraditionalScaleUnit:
    def test_functional_equals_exact(self, scale_ctx, full_residues):
        unit = TraditionalScaleUnit(scale_ctx, slow_coprocessor_config())
        result, _ = unit.run(full_residues)
        assert np.array_equal(
            result, scale_traditional(scale_ctx, full_residues)
        )

class TestMemoryFile:
    def test_smaller_ring_needs_less(self, paper_params, mini_params):
        big = MemoryFile(paper_params, CONFIG).total_bram36k()
        small = MemoryFile(mini_params, CONFIG).total_bram36k()
        assert small < big


class TestIsa:
    def test_emit_and_histogram(self):
        program = Program(name="test")
        program.emit(Opcode.NTT, dst="a", srcs=("a",), rows=(0, 1))
        program.emit(Opcode.CADD, dst="c", srcs=("a", "b"), rows=(0,))
        program.emit(Opcode.NTT, dst="b", srcs=("b",), rows=(0, 1))
        histogram = program.opcode_histogram()
        assert histogram[Opcode.NTT] == 2
        assert histogram[Opcode.CADD] == 1
        assert len(program) == 3

    def test_instruction_requires_destination(self):
        with pytest.raises(IsaError):
            Instruction(op=Opcode.CMUL, dst=None, srcs=("a", "b"))

    def test_load_rlk_needs_no_destination(self):
        Instruction(op=Opcode.LOAD_RLK, meta={"component": 0})

