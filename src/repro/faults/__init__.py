"""Deterministic fault injection for the serving stack.

The cluster layer models a fleet of FPGA boards; this package models
the fleet *breaking*: seeded schedules of board crashes, recoveries,
transient job failures and DMA stalls (:class:`FaultPlan`), the retry
policy that recovers spilled work (:class:`RetryPolicy`), and the
structured ledger of what happened (:class:`FailureReport`). The
cluster interprets the plans (:mod:`repro.cluster.cluster`) and checks
on every drain that each arrival completed or was rejected;
``tests/test_faults.py`` gates that a mid-run board kill under
replication loses zero accepted jobs, and ``python -m repro cluster
--faults <seed>`` prints the failure report of a seeded chaos run.

Every fault event also increments the process-wide obs counters below,
so fault activity shows up in registry snapshots (and therefore in
``ClusterReport.registry_snapshot``) next to the engine's transform
and cache counters.
"""

from ..obs import counter as _obs_counter
from .plan import FaultEvent, FaultKind, FaultPlan
from .report import FailureReport
from .retry import RetryPolicy

__all__ = [
    "FAULT_EVENTS_COUNTER",
    "FAULT_FAILOVERS_COUNTER",
    "FAULT_JOBS_LOST_COUNTER",
    "FAULT_REHYDRATIONS_COUNTER",
    "FAULT_RETRIES_COUNTER",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FailureReport",
    "RetryPolicy",
]

FAULT_EVENTS_COUNTER = _obs_counter(
    "fault_events_total",
    "Fault-plan events applied to the cluster, by kind.",
    labels=("kind",),
)
FAULT_RETRIES_COUNTER = _obs_counter(
    "fault_retries_total",
    "Failed or spilled jobs re-injected through the retry path.",
)
FAULT_JOBS_LOST_COUNTER = _obs_counter(
    "fault_jobs_lost_total",
    "Accepted jobs abandoned after exhausting the retry budget.",
)
FAULT_FAILOVERS_COUNTER = _obs_counter(
    "fault_failovers_total",
    "Jobs served by a replica board while their primary was down.",
)
FAULT_REHYDRATIONS_COUNTER = _obs_counter(
    "fault_rehydrations_total",
    "Jobs priced with the cold-replica key-rehydration penalty.",
)
