"""Pluggable dispatch policies for the serving runtime.

Each scheduler owns the ready queue(s) between job arrival and
coprocessor dispatch. The engine funnels every admitted job through
:meth:`Scheduler.enqueue` and asks :meth:`Scheduler.next_entry`
whenever a coprocessor frees up; a policy must hand back every entry
exactly once (conservation) but is free to choose the order and, for
partitioned policies, may prefer the asking coprocessor's own queue.

Policies:

* :class:`FifoScheduler` — global arrival-order queue (with no batching,
  the earliest-free list schedule behind the 400 Mult/s headline);
* :class:`ShortestJobFirstScheduler` — minimises mean latency for mixed
  Add/Mult traffic by letting the ~80x-cheaper Adds overtake Mults;
* :class:`WeightedFairScheduler` — per-tenant virtual-finish-time
  queueing, weighted by the runtime's tenant set, so no tenant can
  starve another regardless of offered load;
* :class:`WorkStealingScheduler` — statically partitioned
  per-coprocessor queues (one Arm core per coprocessor, as in Fig. 11)
  with idle coprocessors stealing from the longest backlog.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass

from ..system.workloads import Job, JobKind


@dataclass(frozen=True)
class QueueEntry:
    """One admitted job waiting for a coprocessor."""

    job: Job
    cost_seconds: float
    seq: int

    @property
    def arrival_seconds(self) -> float:
        return self.job.arrival_seconds

    @property
    def tenant(self) -> str:
        return self.job.tenant

    @property
    def kind(self) -> JobKind:
        return self.job.kind


class Scheduler(ABC):
    """Base class: a queue between admission and dispatch."""

    name = "scheduler"

    def __init__(self) -> None:
        self._backlog_seconds = 0.0
        self._queued = 0

    def bind(self, num_coprocessors: int) -> None:
        """Called once before a run; partitioned policies size queues."""

    def enqueue(self, entry: QueueEntry) -> None:
        self._queued += 1
        self._backlog_seconds += entry.cost_seconds
        self._push(entry)

    def next_entry(self, coprocessor: int, now: float) -> QueueEntry | None:
        entry = self._pop(coprocessor, now)
        if entry is not None:
            self._queued -= 1
            self._backlog_seconds -= entry.cost_seconds
        return entry

    @property
    def backlog_seconds(self) -> float:
        """Total service time of all queued work (admission signal)."""
        return max(self._backlog_seconds, 0.0)

    def __len__(self) -> int:
        return self._queued

    @abstractmethod
    def _push(self, entry: QueueEntry) -> None: ...

    @abstractmethod
    def _pop(self, coprocessor: int, now: float) -> QueueEntry | None: ...


class FifoScheduler(Scheduler):
    """First-in-first-out: jobs dispatch strictly in arrival order."""

    name = "fifo"

    def __init__(self) -> None:
        super().__init__()
        self._queue: deque[QueueEntry] = deque()

    def _push(self, entry: QueueEntry) -> None:
        self._queue.append(entry)

    def _pop(self, coprocessor: int, now: float) -> QueueEntry | None:
        return self._queue.popleft() if self._queue else None


class ShortestJobFirstScheduler(Scheduler):
    """Dispatch the cheapest queued job first (ties by arrival order)."""

    name = "sjf"

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[float, int, QueueEntry]] = []

    def _push(self, entry: QueueEntry) -> None:
        heapq.heappush(self._heap, (entry.cost_seconds, entry.seq, entry))

    def _pop(self, coprocessor: int, now: float) -> QueueEntry | None:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]


class WeightedFairScheduler(Scheduler):
    """Per-tenant weighted fair queueing via virtual finish times.

    Each tenant's jobs are stamped with a virtual finish tag
    ``start + cost / weight`` where ``start`` continues the tenant's
    previous tag or the current virtual time, whichever is later; the
    queue always dispatches the smallest tag. A tenant with weight 2
    therefore receives twice the service share of a weight-1 tenant
    while both are backlogged, and an idle tenant's unused share is
    redistributed rather than banked. The weights are the runtime's
    :class:`~repro.serve.tenants.TenantSet`'s; an unknown tenant weighs 1.
    """

    name = "wfq"

    def __init__(self) -> None:
        super().__init__()
        self.weights: dict[str, float] = {}
        self._heap: list[tuple[float, int, float, QueueEntry]] = []
        self._last_finish: dict[str, float] = {}
        self._virtual = 0.0

    def weight_of(self, tenant: str) -> float:
        return self.weights.get(tenant, 1.0)

    def _push(self, entry: QueueEntry) -> None:
        start = max(self._virtual,
                    self._last_finish.get(entry.tenant, 0.0))
        finish = start + entry.cost_seconds / self.weight_of(entry.tenant)
        self._last_finish[entry.tenant] = finish
        heapq.heappush(self._heap, (finish, entry.seq, start, entry))

    def _pop(self, coprocessor: int, now: float) -> QueueEntry | None:
        if not self._heap:
            return None
        finish, _, start, entry = heapq.heappop(self._heap)
        # Advance virtual time to the dispatched job's start tag so a
        # tenant returning from idle does not replay its unused share.
        self._virtual = max(self._virtual, start)
        return entry


class WorkStealingScheduler(Scheduler):
    """Per-coprocessor queues (one Arm core each) with work stealing.

    Arrivals are sprayed round-robin across the coprocessor queues —
    the static partitioning of Fig. 11, where each application core
    feeds its own coprocessor. An idle coprocessor first drains its own
    queue in FIFO order and otherwise steals the *newest* entry from
    the longest other queue, bounding the imbalance a round-robin spray
    produces under heterogeneous job costs.
    """

    name = "steal"

    def __init__(self) -> None:
        super().__init__()
        self._queues: list[deque[QueueEntry]] = []
        self._next = 0

    def bind(self, num_coprocessors: int) -> None:
        if not self._queues:
            self._queues = [deque() for _ in range(num_coprocessors)]

    def _push(self, entry: QueueEntry) -> None:
        if not self._queues:
            raise RuntimeError("bind() must run before enqueue()")
        self._queues[self._next].append(entry)
        self._next = (self._next + 1) % len(self._queues)

    def _pop(self, coprocessor: int, now: float) -> QueueEntry | None:
        own = self._queues[coprocessor % len(self._queues)]
        if own:
            return own.popleft()
        victim = max(self._queues, key=len)
        return victim.pop() if victim else None


def default_schedulers() -> list[Scheduler]:
    """Fresh instances of every built-in policy (for sweeps)."""
    return [FifoScheduler(), ShortestJobFirstScheduler(),
            WeightedFairScheduler(), WorkStealingScheduler()]
