"""Dual-core NTT engine with the paper's Fig. 3 memory access scheme.

This module turns the paper's prose and Fig. 3 into executable structure:

* :class:`NttSchedule` generates, for every stage, the exact per-cycle
  word addresses each butterfly core reads and writes — sequential and
  block-exclusive while the re-pairing distance stays inside a block,
  the *order-inverted alternation* at the second-to-last stage (the trick
  the paper introduces to avoid conflicts at m = 2048), and the
  in-place final stage executed "one memory word at a time".
* :class:`DualCoreNttUnit` prices a transform with the closed form the
  coprocessor charges (:meth:`~DualCoreNttUnit.transform_cycles`) and
  executes the schedule cycle by cycle through the port-checked BRAM
  blocks (:meth:`~DualCoreNttUnit.run_strict`). The stepped run is the
  oracle, not the datapath: the coprocessor's values come from the
  engine's batched transform, and the tests hold the stepped run to
  those values and to the closed form's cycles, prime by prime (conflict-
  freedom and the paired-operand invariant come with it).

Index bookkeeping (:meth:`~DualCoreNttUnit.run_strict` asserts the
paired-operand invariant it implies): at entry of stage s
(butterflies pair indices differing in bit s-1), coefficient index i
lives in word ``drop_bit(i, s-1)`` at slot ``bit(i, s-1)``. Stage-s
writes re-pair outputs for stage s+1: index i moves to word
``drop_bit(i, s)``, slot ``bit(i, s)``. The re-pairing partner of word w
is ``w XOR 2^(s-1)`` — inside one block while 2^(s-1) < W/2, across
blocks exactly at the second-to-last stage, absent at the last stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import HardwareModelError
from ..nttmath.ntt import NegacyclicTransformer
from ..utils import log2_exact
from .bram import PairedPolyMemory
from .butterfly import ButterflyCore
from .config import STAGE_SYNC_OVERHEAD, TWIDDLE_BUBBLE_FRACTION, HardwareConfig


def _drop_bit(value: int, bit: int) -> int:
    """Remove bit position `bit` from `value`, closing the gap."""
    high = value >> (bit + 1)
    low = value & ((1 << bit) - 1)
    return (high << bit) | low


def _insert_zero(value: int, bit: int) -> int:
    """Inverse of :func:`_drop_bit` with a zero at position `bit`."""
    high = value >> bit
    low = value & ((1 << bit) - 1)
    return (high << (bit + 1)) | low


@dataclass(frozen=True)
class StageAccess:
    """One stage's schedule: per-core read and write address sequences.

    ``reads[c]`` / ``writes[c]`` list (cycle, word) tuples for core c.
    ``pair_lag`` is the distance (in issue cycles) between re-pairing
    partners, which sets when the write stream can start.
    """

    stage: int
    reads: tuple[tuple[tuple[int, int], ...], ...]
    writes: tuple[tuple[tuple[int, int], ...], ...]
    pair_lag: int
    issue_cycles: int

    def span(self, pipeline_depth: int) -> int:
        """Total cycles from first read to last write of the stage."""
        return self.issue_cycles + self.pair_lag + pipeline_depth


class NttSchedule:
    """Fig. 3 schedule generator for a ring of degree n with 1 or 2 cores."""

    def __init__(self, n: int, cores: int = 2) -> None:
        self.n = n
        self.log_n = log2_exact(n)
        if n < 8:
            raise HardwareModelError("schedule needs degree >= 8")
        if cores not in (1, 2):
            raise HardwareModelError("schedule supports one or two cores")
        self.cores = cores
        self.words = n // 2
        self.block = self.words // 2  # boundary between lower/upper block

    # -- placement algebra -----------------------------------------------------------

    def butterfly_indices(self, word: int, stage: int) -> tuple[int, int]:
        """Coefficient indices stored (slot0, slot1) in `word` at `stage`."""
        i0 = _insert_zero(word, stage - 1)
        return i0, i0 | (1 << (stage - 1))

    def dest_of(self, index: int, stage: int) -> tuple[int, int]:
        """(word, slot) where `index` lands after stage `stage`."""
        if stage == self.log_n:
            # Final stage writes in place; the exit placement keeps the
            # operand pair (i, i + n/2) in its word.
            return _drop_bit(index, stage - 1), (index >> (stage - 1)) & 1
        return _drop_bit(index, stage), (index >> stage) & 1

    def twiddle_exponent(self, word: int, stage: int) -> int:
        """Exponent j of w_m^j for the butterfly housed at `word`."""
        i0, _ = self.butterfly_indices(word, stage)
        return i0 & ((1 << (stage - 1)) - 1)

    # -- stage classification ----------------------------------------------------------

    def is_interleave_stage(self, stage: int) -> bool:
        """The one stage whose re-pairing partner crosses the block split."""
        return stage == self.log_n - 1

    def pair_lag(self, stage: int) -> int:
        if stage == self.log_n:
            return 0
        if self.is_interleave_stage(stage):
            return 1
        return 1 << (stage - 1)

    # -- read/write orders -------------------------------------------------------------

    def read_order(self, stage: int) -> list[list[int]]:
        """Per-core word address sequence (one address per issue cycle)."""
        words, block = self.words, self.block
        if self.cores == 1:
            if self.is_interleave_stage(stage):
                # Alternate blocks so re-pairing partners are adjacent in
                # time (same trick as the dual-core order, single stream).
                order = []
                for c in range(words // 2):
                    order.append(c)
                    order.append(block + c)
                return [order]
            return [list(range(words))]
        if self.is_interleave_stage(stage):
            # Fig. 3, m = 2048: both cores touch both blocks, the second
            # core with the access order inverted (upper first).
            quarter = words // 4
            core0, core1 = [], []
            for c in range(quarter):
                core0.append(c)                      # lower
                core0.append(block + c)              # upper
                core1.append(block + quarter + c)    # upper (inverted order)
                core1.append(quarter + c)            # lower
            return [core0, core1]
        # Block-exclusive stages (m <= 1024 and the final m = 4096).
        return [list(range(block)), list(range(block, words))]

    def write_order(self, stage: int) -> list[list[int]]:
        """Per-core write address sequence ("same pattern" as reads).

        Derived in the module docstring: for block-exclusive stages the
        destination words of sequentially processed butterflies are again
        sequential; at the interleave stage each core alternates
        lower/upper (mirroring its read alternation); the last stage
        writes in place.
        """
        words, block = self.words, self.block
        if self.cores == 1:
            if self.is_interleave_stage(stage):
                order = []
                for c in range(words // 2):
                    order.append(c)
                    order.append(block + c)
                return [order]
            return [list(range(words))]
        if self.is_interleave_stage(stage):
            quarter = words // 4
            core0, core1 = [], []
            for c in range(quarter):
                core0.append(c)                      # u-pair, lower
                core0.append(block + c)              # t-pair, upper
                core1.append(block + quarter + c)    # t-pair, upper
                core1.append(quarter + c)            # u-pair, lower
            return [core0, core1]
        return [list(range(block)), list(range(block, words))]

    def stage_access(self, stage: int, pipeline_depth: int) -> StageAccess:
        """Full cycle-stamped schedule of one stage."""
        reads = self.read_order(stage)
        writes = self.write_order(stage)
        lag = self.pair_lag(stage)
        issue = len(reads[0])
        stamped_reads = tuple(
            tuple((cycle, word) for cycle, word in enumerate(order))
            for order in reads
        )
        start = lag + pipeline_depth
        stamped_writes = tuple(
            tuple((start + cycle, word) for cycle, word in enumerate(order))
            for order in writes
        )
        return StageAccess(
            stage=stage,
            reads=stamped_reads,
            writes=stamped_writes,
            pair_lag=lag,
            issue_cycles=issue,
        )

    def total_cycles(self, pipeline_depth: int,
                     bubble_fraction: float = 0.0) -> int:
        """Cycle count of a full transform under this schedule: each
        stage pays :data:`STAGE_SYNC_OVERHEAD` besides its issue, pair
        lag and pipeline depth."""
        total = 0
        for stage in range(1, self.log_n + 1):
            issue = self.words // self.cores
            if bubble_fraction:
                issue = int(round(issue * (1.0 + bubble_fraction)))
            total += issue + self.pair_lag(stage) + pipeline_depth
            total += STAGE_SYNC_OVERHEAD
        return total


class DualCoreNttUnit:
    """Executable NTT engine for one residue ring (one RPAU channel)."""

    def __init__(self, n: int, modulus: int, config: HardwareConfig) -> None:
        self.n = n
        self.modulus = modulus
        self.config = config
        self.cores = config.butterfly_cores_per_rpau
        self.schedule = NttSchedule(n, self.cores)
        self.memory = PairedPolyMemory(n)
        self.butterflies = [
            ButterflyCore(modulus) for _ in range(self.cores)
        ]
        self.transformer = NegacyclicTransformer(n, modulus)
        self._depth = self.butterflies[0].pipeline_depth

    # -- cycle model ------------------------------------------------------------------

    def transform_cycles(self) -> int:
        """Closed-form cycles of one transform under the Fig. 3 schedule.

        With the twiddle ROM this is exactly what :meth:`run_strict`
        steps through. Without it, ``TWIDDLE_BUBBLE_FRACTION`` stretches
        every stage's issue: a calibrated term of the closed form (prior
        work's on-the-fly twiddle generation), not a stepped one.
        """
        bubble = 0.0 if self.config.twiddle_rom else TWIDDLE_BUBBLE_FRACTION
        return self.schedule.total_cycles(self._depth, bubble)

    def scale_pass_cycles(self) -> int:
        """Final multiply-by-(n^-1 psi^-i) pass of the inverse transform.

        Each core owns one block and has one multiplier: two coefficients
        per word means one word per two cycles, so n / cores issue cycles.
        """
        issue = self.n // self.cores
        return issue + self._depth + STAGE_SYNC_OVERHEAD

    # -- strict executor ---------------------------------------------------------------

    def run_strict(self, coeffs: np.ndarray,
                   inverse: bool = False) -> tuple[np.ndarray, int]:
        """Cycle-by-cycle execution with BRAM port checking.

        The oracle for the coprocessor model: proves the schedule
        conflict-free and the paired-operand invariant, and that the
        values are the engine's transform and the cycle count the closed
        form of :meth:`transform_cycles` (plus :meth:`scale_pass_cycles`
        for the inverse) for the twiddle-ROM design.
        """
        n, modulus = self.n, self.modulus
        values = np.asarray(coeffs, dtype=np.int64) % modulus
        if values.shape != (n,):
            raise HardwareModelError(f"expected {n} coefficients")
        if inverse:
            work = values.copy()
            tables = self.transformer.inverse_tables
        else:
            work = (values * self.transformer.psi_powers) % modulus
            tables = self.transformer.forward_tables
        # Load in bit-reversed stage-1 placement (cost carried by the
        # Memory Rearrange instruction at the coprocessor level).
        self._load_stage1(work)
        total_cycles = 0
        for stage in range(1, self.schedule.log_n + 1):
            total_cycles += self._run_stage_strict(stage, tables[stage - 1])
            total_cycles += STAGE_SYNC_OVERHEAD
        result = self._unload_final()
        if inverse:
            post = (self.transformer.inv_n
                    * self.transformer.inv_psi_powers) % modulus
            result = (result * post) % modulus
            total_cycles += self.scale_pass_cycles()
        return result, total_cycles

    def _load_stage1(self, values: np.ndarray) -> None:
        from ..nttmath.bitrev import bit_reverse_indices

        rev = bit_reverse_indices(self.n)
        permuted = values[rev]
        pairs = permuted.reshape(self.schedule.words, 2)
        self.memory.load_pairs(pairs)
        self.memory.reset_ports()

    def _unload_final(self) -> np.ndarray:
        pairs = self.memory.dump_pairs()
        out = np.empty(self.n, dtype=np.int64)
        out[: self.schedule.words] = pairs[:, 0]
        out[self.schedule.words:] = pairs[:, 1]
        return out

    def _run_stage_strict(self, stage: int, twiddles: np.ndarray) -> int:
        schedule = self.schedule
        access = schedule.stage_access(stage, self._depth)
        # Pending word contents keyed by destination address.
        pending: dict[int, dict] = {}
        results: dict[int, tuple[int, int]] = {}
        ready: dict[int, int] = {}
        for core_idx in range(self.cores):
            core = self.butterflies[core_idx]
            for cycle, word in access.reads[core_idx]:
                u, t = self.memory.read_word(word, cycle)
                i0, i1 = schedule.butterfly_indices(word, stage)
                exponent = schedule.twiddle_exponent(word, stage)
                hi, lo = core.compute(u, t, int(twiddles[exponent]))
                for index, value in ((i0, hi), (i1, lo)):
                    dest, slot = schedule.dest_of(index, stage)
                    entry = pending.setdefault(dest, {})
                    entry[slot] = value
                    if len(entry) == 2:
                        results[dest] = (entry[0], entry[1])
                        ready[dest] = cycle + self._depth
        self.memory.reset_ports()
        last_cycle = 0
        for core_idx in range(self.cores):
            for cycle, word in access.writes[core_idx]:
                if word not in results:
                    raise HardwareModelError(
                        f"schedule writes word {word} with incomplete pair"
                    )
                if cycle < ready[word]:
                    raise HardwareModelError(
                        f"write of word {word} at cycle {cycle} precedes "
                        f"data readiness at {ready[word]}"
                    )
                self.memory.write_word(word, results.pop(word), cycle)
                last_cycle = max(last_cycle, cycle)
        if results:
            raise HardwareModelError(
                f"{len(results)} computed words never written"
            )
        self.memory.reset_ports()
        span = access.span(self._depth)
        if last_cycle + 1 != span:
            raise HardwareModelError(
                f"stage {stage}: schedule span {last_cycle + 1} != analytic "
                f"span {span}"
            )
        return span
