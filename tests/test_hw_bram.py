"""Tests for the BRAM models and port-conflict detection (Sec. V-A3)."""

import numpy as np
import pytest

from repro.errors import HardwareModelError, MemoryConflictError
from repro.hw.bram import BramBlock, PairedPolyMemory


class TestBramBlock:
    def test_read_write_roundtrip(self):
        block = BramBlock(16)
        block.write(3, (11, 22))
        assert block.read(3) == (11, 22)

    def test_one_read_per_cycle_ok(self):
        block = BramBlock(16)
        block.read(0, cycle=0)
        block.read(1, cycle=1)  # different cycle: fine

    def test_second_read_same_cycle_conflicts(self):
        block = BramBlock(16)
        block.read(0, cycle=5)
        with pytest.raises(MemoryConflictError):
            block.read(1, cycle=5)

    def test_second_write_same_cycle_conflicts(self):
        block = BramBlock(16)
        block.write(0, (1, 2), cycle=5)
        with pytest.raises(MemoryConflictError):
            block.write(1, (3, 4), cycle=5)

    def test_read_and_write_same_cycle_ok(self):
        """One port reads while the other writes (the NTT usage)."""
        block = BramBlock(16)
        block.read(0, cycle=5)
        block.write(1, (1, 2), cycle=5)

    def test_reset_ports_clears_history(self):
        block = BramBlock(16)
        block.read(0, cycle=5)
        block.reset_ports()
        block.read(1, cycle=5)  # no conflict after reset

    def test_address_bounds(self):
        block = BramBlock(16)
        with pytest.raises(HardwareModelError):
            block.read(16)
        with pytest.raises(HardwareModelError):
            block.write(-1, (0, 0))


class TestPairedPolyMemory:
    def test_paper_geometry(self):
        """n = 4096: 2048 words in two 1024-deep blocks."""
        memory = PairedPolyMemory(4096)
        assert memory.words == 2048
        assert memory.block_depth == 1024

    def test_block_routing(self):
        memory = PairedPolyMemory(64)
        block, local = memory.block_of(0)
        assert block is memory.lower and local == 0
        block, local = memory.block_of(memory.block_depth)
        assert block is memory.upper and local == 0

    def test_word_roundtrip(self):
        memory = PairedPolyMemory(64)
        memory.write_word(5, (7, 9))
        memory.write_word(20, (1, 3))
        assert memory.read_word(5) == (7, 9)
        assert memory.read_word(20) == (1, 3)

    def test_cross_block_no_conflict(self):
        """Accesses to different blocks in one cycle are free."""
        memory = PairedPolyMemory(64)
        memory.read_word(0, cycle=0)
        memory.read_word(memory.block_depth, cycle=0)

    def test_same_block_conflict(self):
        memory = PairedPolyMemory(64)
        memory.read_word(0, cycle=0)
        with pytest.raises(MemoryConflictError):
            memory.read_word(1, cycle=0)

    def test_bulk_load_dump(self, rng):
        memory = PairedPolyMemory(64)
        pairs = rng.integers(0, 100, (32, 2))
        memory.load_pairs(pairs)
        assert np.array_equal(memory.dump_pairs(), pairs)

    def test_bulk_load_shape_check(self):
        memory = PairedPolyMemory(64)
        with pytest.raises(HardwareModelError):
            memory.load_pairs(np.zeros((31, 2), dtype=np.int64))

    def test_rejects_tiny_degree(self):
        with pytest.raises(HardwareModelError):
            PairedPolyMemory(4)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(HardwareModelError):
            PairedPolyMemory(100)
