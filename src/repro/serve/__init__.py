"""Discrete-event serving runtime for the Arm+FPGA server (Fig. 11).

One :class:`ServingRuntime` simulates one board, priced by the board's
:class:`~repro.system.server.CostModel`:

* :mod:`~repro.serve.events` — event heap and simulated clock;
* :mod:`~repro.serve.engine` — the arrival/dispatch/completion loop,
  the board's crash/recover lifecycle and its report (the job results
  plus busy time, queue depth and SLA misses);
* :mod:`~repro.serve.schedulers` — FIFO, shortest-job-first, weighted
  fair queueing, and per-coprocessor work stealing;
* :mod:`~repro.serve.batching` — DMA upload coalescing that amortises
  the Table I Arm setup cost across a backlog;
* :mod:`~repro.serve.tenants` — multi-tenant clients, SLA deadlines,
  admission control;
* :mod:`~repro.serve.telemetry` — every reduction of a report, written
  once: latency percentiles, busy window, throughput, rejections.
"""

from .batching import BatchPolicy, DmaBatcher
from .engine import JobResult, RuntimeReport, ServingRuntime
from .events import Event, EventHeap, EventKind
from .schedulers import (
    FifoScheduler,
    Scheduler,
    ShortestJobFirstScheduler,
    WeightedFairScheduler,
    WorkStealingScheduler,
    default_schedulers,
)
from .telemetry import LatencySummary
from .tenants import AdmissionController, Rejection, Tenant, TenantSet

__all__ = [
    "BatchPolicy",
    "DmaBatcher",
    "JobResult",
    "RuntimeReport",
    "ServingRuntime",
    "Event",
    "EventHeap",
    "EventKind",
    "Scheduler",
    "FifoScheduler",
    "ShortestJobFirstScheduler",
    "WeightedFairScheduler",
    "WorkStealingScheduler",
    "default_schedulers",
    "LatencySummary",
    "AdmissionController",
    "Rejection",
    "Tenant",
    "TenantSet",
]
