"""The event heap: the one queue and the one clock of a simulation.

A simulation — one board, or a cluster of boards — advances a simulated
clock through a single priority queue of timestamped events. Board
events are a job ARRIVAL, the DISPATCH of batches onto free
coprocessors, and the COMPLETION that frees a coprocessor; a cluster
adds the FAULTs of its fault plan and the RETRY of a failed job.

Events pop in (time, rank, insertion) order: at one instant FAULT and
RETRY events rank before every board event, and events of one rank
keep the order they were pushed in, so runs are fully deterministic.
Every event names an ``owner`` whose ``handle(event)`` processes it;
:meth:`EventHeap.advance` is the one loop that pops and hands them
over, and :attr:`EventHeap.now` is the one clock every owner reads.
"""

from __future__ import annotations

import heapq
import itertools
import math
from enum import Enum
from typing import Any, NamedTuple


class EventKind(Enum):
    ARRIVAL = "arrival"
    DISPATCH = "dispatch"
    COMPLETION = "completion"
    FAULT = "fault"
    RETRY = "retry"


_FAULT = EventKind.FAULT
_RETRY = EventKind.RETRY


class Event(NamedTuple):
    """One timestamped occurrence; (time, rank, seq) is unique."""

    time_seconds: float
    rank: int
    seq: int
    kind: EventKind
    payload: Any = None
    owner: Any = None


class EventHeap:
    """A deterministic min-heap of events and the clock it advances."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()
        #: The clock: the later of the last event and the last deadline.
        self.now = 0.0

    def push(self, time_seconds: float, kind: EventKind,
             payload: Any = None, owner: Any = None) -> Event:
        if not 0.0 <= time_seconds < math.inf:
            raise ValueError(
                f"event time must be finite and non-negative, "
                f"not {time_seconds}")
        event = Event(time_seconds,
                      0 if kind is _FAULT or kind is _RETRY else 1,
                      next(self._seq), kind, payload, owner)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        return self._heap[0]

    def advance(self, time_seconds: float = math.inf, *,
                inclusive: bool = True) -> None:
        """Hand every event due by ``time_seconds`` to its owner.

        With ``inclusive=False`` the FAULT and RETRY events at the
        deadline run but its board events stay queued. The clock ends
        at the deadline when that is finite; the default drains the heap.
        """
        heap = self._heap
        while heap:
            event = heap[0]
            due = event.time_seconds
            if due > time_seconds or (due == time_seconds and event.rank
                                      and not inclusive):
                break
            heapq.heappop(heap)
            self.now = due
            event.owner.handle(event)
        if self.now < time_seconds < math.inf:
            self.now = time_seconds

    def take(self, owner: Any) -> list[Event]:
        """Remove and return `owner`'s events, in processing order."""
        heap = self._heap
        taken = sorted(e for e in heap if e.owner is owner)
        # In place: a running advance() holds a reference to the list.
        heap[:] = [e for e in heap if e.owner is not owner]
        heapq.heapify(heap)
        return taken

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
