"""Deterministic fault schedules for the cluster chaos harness.

A :class:`FaultPlan` is a *pre-drawn*, time-sorted list of
:class:`FaultEvent`\\s that the cluster's stepping loop replays against
its shards: board crashes and recoveries, transient in-queue job
failures, and DMA stalls that multiply a board's service times until
the matching resume. Everything is drawn up front from one
``numpy`` generator seeded by the plan seed, so two clusters driven by
the same plan observe byte-identical fault timelines — the property
the chaos determinism tests gate on.

The plan is pure data: it knows nothing about shards or jobs. The
cluster interprets the events (:mod:`repro.cluster.cluster`); the
guarantees about *surviving* them — zero accepted-job loss, bounded
p99 inflation — live in ``tests/test_faults.py``, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class FaultKind(Enum):
    """What breaks (or heals) at one instant of the schedule."""

    #: The board dies: state UP -> DOWN, every queued and in-flight job
    #: spills back to the cluster edge for retry.
    SHARD_CRASH = "shard_crash"
    #: The board returns to service with empty queues and cold caches.
    SHARD_RECOVER = "shard_recover"
    #: One queued job on the board fails transiently (bit flip, DMA
    #: CRC error) and re-enters the retry path.
    JOB_FAIL = "job_fail"
    #: The board's DMA engine degrades: service times multiply by
    #: ``factor`` until the matching resume.
    DMA_STALL = "dma_stall"
    #: The stall clears; service times return to nominal.
    DMA_RESUME = "dma_resume"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: when, what, and which board."""

    time_seconds: float
    kind: FaultKind
    shard: int
    #: Service-time multiplier for DMA_STALL events (ignored elsewhere).
    factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.time_seconds < math.inf:
            raise ValueError(f"a fault event's time must be finite and "
                             f"cannot predate the run, not "
                             f"{self.time_seconds}")
        if self.shard < 0:
            raise ValueError("shard index must be non-negative")
        if self.kind is FaultKind.DMA_STALL and self.factor < 1.0:
            raise ValueError("a DMA stall cannot speed the board up")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, time-sorted schedule of fault events (pure data)."""

    events: tuple[FaultEvent, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        times = [e.time_seconds for e in self.events]
        if times != sorted(times):
            raise ValueError("fault events must be time-sorted")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- constructors ------------------------------------------------------------------

    @classmethod
    def none(cls) -> FaultPlan:
        """The empty plan (a faultless run, for twin-run comparisons)."""
        return cls(events=(), seed=None)

    @classmethod
    def board_kill(cls, shard: int, at_seconds: float,
                   recover_at: float | None = None) -> FaultPlan:
        """The board-kill chaos scenario: one board dies mid-run.

        With ``recover_at`` set the board comes back (cold) at that
        instant; otherwise it stays down for the rest of the run.
        """
        events = [FaultEvent(at_seconds, FaultKind.SHARD_CRASH, shard)]
        if recover_at is not None:
            if recover_at <= at_seconds:
                raise ValueError("recovery must follow the crash")
            events.append(
                FaultEvent(recover_at, FaultKind.SHARD_RECOVER, shard))
        return cls(events=tuple(events), seed=None)

    @classmethod
    def seeded(cls, seed: int, num_shards: int, duration_seconds: float,
               *, crashes: int = 1, transient_failures: int = 0,
               dma_stalls: int = 0) -> FaultPlan:
        """Draw a random-but-reproducible schedule from one seed.

        Crash/recover pairs never overlap on one board and never take
        the *last* healthy board down — the plan models partial
        failure, not total outage. Outages last a quarter of the
        duration on average, DMA stalls an eighth, and a stall slows
        its board's transfers 4x. All randomness comes from a single
        ``default_rng(seed)``, so the schedule is a pure function of
        its arguments.
        """
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if duration_seconds <= 0:
            raise ValueError("duration must be positive")
        if crashes >= num_shards:
            raise ValueError(
                "refusing to schedule crashes on every shard — the plan "
                "must leave at least one board standing"
            )
        rng = np.random.default_rng(seed)
        outage = duration_seconds / 4.0
        stall = duration_seconds / 8.0
        events: list[FaultEvent] = []
        # Crash/recover pairs on distinct boards.
        crash_shards = rng.choice(num_shards, size=crashes, replace=False)
        for shard in crash_shards:
            at = float(rng.uniform(0.2, 0.6) * duration_seconds)
            events.append(FaultEvent(at, FaultKind.SHARD_CRASH, int(shard)))
            back = at + float(rng.exponential(outage))
            if back < duration_seconds:
                events.append(
                    FaultEvent(back, FaultKind.SHARD_RECOVER, int(shard)))
        for _ in range(transient_failures):
            at = float(rng.uniform(0.0, duration_seconds))
            shard = int(rng.integers(num_shards))
            events.append(FaultEvent(at, FaultKind.JOB_FAIL, shard))
        for _ in range(dma_stalls):
            at = float(rng.uniform(0.0, 0.8) * duration_seconds)
            shard = int(rng.integers(num_shards))
            events.append(FaultEvent(at, FaultKind.DMA_STALL, shard,
                                     factor=4.0))
            back = at + float(rng.exponential(stall))
            if back < duration_seconds:
                events.append(
                    FaultEvent(back, FaultKind.DMA_RESUME, shard))
        events.sort(key=lambda e: (e.time_seconds, e.kind.value, e.shard))
        return cls(events=tuple(events), seed=seed)
