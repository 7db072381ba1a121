"""Event primitives of the discrete-event serving runtime.

The engine advances a simulated clock through a priority queue of
timestamped events. Three kinds exist: a job ARRIVAL from a client
stream, the DISPATCH of a batch onto a coprocessor (sampled for the
report's queue-depth trace), and the COMPLETION that frees the coprocessor.
Events at equal timestamps are ordered by insertion sequence so runs
are fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum
from typing import Any, NamedTuple


class EventKind(Enum):
    ARRIVAL = "arrival"
    DISPATCH = "dispatch"
    COMPLETION = "completion"


class Event(NamedTuple):
    """One timestamped occurrence in the simulation."""

    time_seconds: float
    seq: int
    kind: EventKind
    payload: Any = None


class EventHeap:
    """A deterministic min-heap of events (time, then insertion order)."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()

    def push(self, time_seconds: float, kind: EventKind,
             payload: Any = None) -> Event:
        if time_seconds < 0:
            raise ValueError("event time must be non-negative")
        event = Event(time_seconds, next(self._seq), kind, payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        return self._heap[0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
