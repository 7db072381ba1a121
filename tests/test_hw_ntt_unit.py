"""Tests for the dual-core NTT engine and the Fig. 3 access schedule.

These are the executable form of the paper's Sec. V-A3 correctness
argument: every stage's schedule is conflict-free on the BRAM ports,
reads cover every word exactly once, the stepped (cycle-by-cycle,
port-checked) executor computes the engine's transform in exactly the
closed-form cycles the coprocessor charges, and the m = 2048
order-inversion trick appears exactly as printed in the paper's figure.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import HardwareModelError
from repro.hw.config import HardwareConfig
from repro.hw.ntt_unit import DualCoreNttUnit, NttSchedule
from repro.nttmath.batch import intt_rows, ntt_rows
from repro.nttmath.ntt import NegacyclicTransformer
from repro.nttmath.primes import find_ntt_primes
from repro.params import mini
from scaffolding import toy

CONFIG = HardwareConfig()

#: The q+p bases the stepped oracle covers, prime by prime.
ORACLE_BASES = {"toy": toy(), "mini": mini()}
ORACLE_ROWS = [(name, row) for name, params in ORACLE_BASES.items()
               for row in range(params.k_total)]


def _placement(index: int, stage: int) -> tuple[int, int]:
    """(word, slot) of coefficient ``index`` entering ``stage``: the
    slot is bit ``stage - 1`` of the index, the word the index with that
    bit removed."""
    bit = stage - 1
    word = (index >> (bit + 1)) << bit | index & ((1 << bit) - 1)
    return word, (index >> bit) & 1


def prime_for(n: int) -> int:
    return find_ntt_primes(30, n, 1)[0]


def assert_stepped_oracle(unit: DualCoreNttUnit, values: np.ndarray,
                          engine: np.ndarray, inverse: bool) -> None:
    """The stepped run computes ``engine`` (the engine's transform of
    ``values``) in the closed-form cycles of :meth:`transform_cycles`,
    plus :meth:`scale_pass_cycles` for the inverse (a pass the unit
    counts, not one it steps)."""
    result, cycles = unit.run_strict(values, inverse=inverse)
    assert np.array_equal(result, engine)
    closed = unit.transform_cycles()
    if inverse:
        closed += unit.scale_pass_cycles()
    assert cycles == closed


@pytest.fixture(scope="module")
def engine_transforms():
    """Per oracle basis: its q+p primes, a random residue matrix, and the
    engine's forward and inverse transforms of it."""
    rng = np.random.default_rng(36)
    out = {}
    for name, params in ORACLE_BASES.items():
        primes = params.q_primes + params.p_primes
        matrix = np.stack([rng.integers(0, p, params.n) for p in primes])
        out[name] = (primes, matrix, ntt_rows(primes, matrix),
                     intt_rows(primes, matrix))
    return out


class TestScheduleStructure:
    def test_stage_classification(self):
        schedule = NttSchedule(4096, 2)
        assert not schedule.is_interleave_stage(10)
        assert schedule.is_interleave_stage(11)
        assert not schedule.is_interleave_stage(12)

    def test_pair_lags(self):
        schedule = NttSchedule(4096, 2)
        assert schedule.pair_lag(1) == 1
        assert schedule.pair_lag(10) == 512
        assert schedule.pair_lag(11) == 1   # interleave stage
        assert schedule.pair_lag(12) == 0   # in-place final stage

    def test_paper_fig3_m2048_read_order(self):
        """The exact address sequences printed in Fig. 3 for m = 2048."""
        schedule = NttSchedule(4096, 2)
        reads = schedule.read_order(11)
        assert reads[0][:6] == [0, 1024, 1, 1025, 2, 1026]
        assert reads[1][:6] == [1536, 512, 1537, 513, 1538, 514]

    def test_paper_fig3_exclusive_stages(self):
        """m <= 1024 and m = 4096: core 0 lower block, core 1 upper."""
        schedule = NttSchedule(4096, 2)
        for stage in (1, 5, 10, 12):
            reads = schedule.read_order(stage)
            assert reads[0][0] == 0 and reads[0][-1] == 1023
            assert reads[1][0] == 1024 and reads[1][-1] == 2047

    @pytest.mark.parametrize("n", [16, 64, 256, 4096])
    def test_reads_cover_every_word_once(self, n):
        schedule = NttSchedule(n, 2)
        for stage in range(1, schedule.log_n + 1):
            seen = [w for order in schedule.read_order(stage) for w in order]
            assert sorted(seen) == list(range(schedule.words)), stage

    @pytest.mark.parametrize("n", [16, 64, 256, 4096])
    def test_writes_cover_every_word_once(self, n):
        schedule = NttSchedule(n, 2)
        for stage in range(1, schedule.log_n + 1):
            seen = [w for order in schedule.write_order(stage)
                    for w in order]
            assert sorted(seen) == list(range(schedule.words)), stage

    @pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096])
    def test_conflict_freedom_every_stage(self, n):
        """No two cores touch the same block's same port in any cycle —
        the property Fig. 3's access scheme exists to guarantee."""
        schedule = NttSchedule(n, 2)
        block = schedule.block
        for stage in range(1, schedule.log_n + 1):
            access = schedule.stage_access(stage, pipeline_depth=11)
            for stamped in (access.reads, access.writes):
                used: dict[tuple[int, int], int] = {}
                for core_accesses in stamped:
                    for cycle, word in core_accesses:
                        key = (cycle, word >= block)
                        assert key not in used, (
                            f"stage {stage} cycle {cycle}: double access "
                            f"to block {word >= block}"
                        )
                        used[key] = word

    def test_paired_operand_invariant(self):
        """At every stage, each word holds exactly one butterfly's two
        operands (indices differing in bit stage-1)."""
        schedule = NttSchedule(256, 2)
        for stage in range(1, schedule.log_n + 1):
            for word in range(schedule.words):
                i0, i1 = schedule.butterfly_indices(word, stage)
                assert i1 == i0 + (1 << (stage - 1))
                assert _placement(i0, stage) == (word, 0)
                assert _placement(i1, stage) == (word, 1)

    def test_destination_invariant(self):
        """Stage-s writes place every index where stage s+1 expects it."""
        schedule = NttSchedule(256, 2)
        for stage in range(1, schedule.log_n):
            for index in range(256):
                assert schedule.dest_of(index, stage) == \
                    _placement(index, stage + 1)

    def test_twiddle_exponents(self):
        schedule = NttSchedule(64, 2)
        for stage in range(1, 7):
            g = 1 << (stage - 1)
            for word in range(32):
                i0, _ = schedule.butterfly_indices(word, stage)
                assert schedule.twiddle_exponent(word, stage) == i0 % g

    def test_single_core_schedule(self):
        schedule = NttSchedule(64, 1)
        for stage in range(1, 7):
            assert len(schedule.read_order(stage)) == 1
            assert sorted(schedule.read_order(stage)[0]) == list(range(32))

    def test_rejects_bad_configuration(self):
        with pytest.raises(HardwareModelError):
            NttSchedule(4, 2)
        with pytest.raises(HardwareModelError):
            NttSchedule(64, 3)

    def test_conflict_freedom_at_table5_size(self):
        """The schedule stays conflict-free at the (2^13, ...) design
        point the scaling study instantiates."""
        schedule = NttSchedule(8192, 2)
        for stage in (1, schedule.log_n - 2, schedule.log_n - 1,
                      schedule.log_n):
            access = schedule.stage_access(stage, pipeline_depth=11)
            for stamped in (access.reads, access.writes):
                used = set()
                for core_accesses in stamped:
                    for cycle, word in core_accesses:
                        key = (cycle, word >= schedule.block)
                        assert key not in used, (stage, cycle)
                        used.add(key)


class TestExecutors:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_strict_matches_reference_forward(self, n, rng):
        prime = prime_for(n)
        unit = DualCoreNttUnit(n, prime, CONFIG)
        reference = NegacyclicTransformer(n, prime)
        values = rng.integers(0, prime, n)
        result, _ = unit.run_strict(values)
        assert np.array_equal(result, reference.forward(values))

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_strict_matches_reference_inverse(self, n, rng):
        prime = prime_for(n)
        unit = DualCoreNttUnit(n, prime, CONFIG)
        reference = NegacyclicTransformer(n, prime)
        values = rng.integers(0, prime, n)
        result, _ = unit.run_strict(values, inverse=True)
        assert np.array_equal(result, reference.inverse(values))

    def test_roundtrip_through_hardware(self, rng):
        prime = prime_for(128)
        unit = DualCoreNttUnit(128, prime, CONFIG)
        values = rng.integers(0, prime, 128)
        forward, _ = unit.run_strict(values)
        back, _ = unit.run_strict(forward, inverse=True)
        assert np.array_equal(back, values % prime)

    def test_rejects_wrong_length(self):
        unit = DualCoreNttUnit(64, prime_for(64), CONFIG)
        with pytest.raises(HardwareModelError):
            unit.run_strict(np.zeros(32, dtype=np.int64))

    def test_single_core_functional(self, engine_transforms):
        """The one-core schedule at toy: the engine's values in its own
        (longer) closed form."""
        primes, matrix, forward, backward = engine_transforms["toy"]
        n = matrix.shape[1]
        config = replace(CONFIG, butterfly_cores_per_rpau=1)
        unit = DualCoreNttUnit(n, primes[0], config)
        assert_stepped_oracle(unit, matrix[0], forward[0], inverse=False)
        assert_stepped_oracle(unit, matrix[0], backward[0], inverse=True)
        assert unit.transform_cycles() > DualCoreNttUnit(
            n, primes[0], CONFIG).transform_cycles()

    def test_paper_size_schedule_computes_the_transform(self, paper_params):
        """The Fig. 3 schedule at n = 4096 on the paper's first prime:
        the right transform, both directions, in 12 stages x 1,024 issue
        cycles plus the pipeline overheads (the Table II NTT row)."""
        primes = paper_params.q_primes + paper_params.p_primes
        rng = np.random.default_rng(8)
        matrix = np.stack([rng.integers(0, p, paper_params.n)
                           for p in primes])
        unit = DualCoreNttUnit(paper_params.n, primes[0], CONFIG)
        for inverse, engine in ((False, ntt_rows), (True, intt_rows)):
            assert_stepped_oracle(unit, matrix[0],
                                  engine(primes, matrix)[0], inverse)
        assert 12_288 < unit.transform_cycles() < 16_000


class TestSteppedOracle:
    """The stepped unit is the oracle for the coprocessor model, one
    unit per prime: :meth:`~DualCoreNttUnit.run_strict` must compute
    the engine's ``ntt_rows`` / ``intt_rows`` (what the coprocessor's
    NTT / INTT instructions run on) in exactly the closed-form cycles
    those instructions are charged.

    The cycle equality is the twiddle-ROM design's. Without the ROM,
    ``TWIDDLE_BUBBLE_FRACTION`` is a calibrated term of the closed form,
    not one the stepper executes, so the no-ROM design has no stepped
    oracle for its cycles.
    """

    @pytest.mark.parametrize("inverse", [False, True],
                             ids=["forward", "inverse"])
    @pytest.mark.parametrize(("basis", "row"), ORACLE_ROWS,
                             ids=[f"{b}-{r}" for b, r in ORACLE_ROWS])
    def test_stepped_unit_is_the_engine_in_closed_form_cycles(
            self, basis, row, inverse, engine_transforms):
        primes, matrix, forward, backward = engine_transforms[basis]
        unit = DualCoreNttUnit(matrix.shape[1], primes[row], CONFIG)
        engine = backward if inverse else forward
        assert_stepped_oracle(unit, matrix[row], engine[row], inverse)


class TestCycleModel:
    def test_two_cores_nearly_halve_cycles(self):
        """Fig. 3's dual-core scheme: 1.88x of the ideal 2x at n = 4096."""
        for n, floor in ((256, 1.4), (4096, 1.5)):
            prime = prime_for(n)
            dual = DualCoreNttUnit(n, prime, CONFIG)
            single = DualCoreNttUnit(
                n, prime, replace(CONFIG, butterfly_cores_per_rpau=1)
            )
            ratio = single.transform_cycles() / dual.transform_cycles()
            assert floor < ratio < 2.0, n

    def test_twiddle_rom_removes_bubbles(self):
        """Without the ROM a transform pays bubble cycles at a small
        ring too. Sec. V-A4's ~20 % at the paper's n = 4096 is a
        ``PAPER_RECORD`` row."""
        prime = prime_for(256)
        with_rom = DualCoreNttUnit(256, prime, CONFIG)
        without = DualCoreNttUnit(256, prime,
                                  replace(CONFIG, twiddle_rom=False))
        assert without.transform_cycles() > with_rom.transform_cycles()

    def test_strict_cycles_scale_with_n(self):
        prime64, prime256 = prime_for(64), prime_for(256)
        small = DualCoreNttUnit(64, prime64, CONFIG).transform_cycles()
        large = DualCoreNttUnit(256, prime256, CONFIG).transform_cycles()
        assert large > small
