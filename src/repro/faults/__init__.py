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

The :class:`FailureReport` is the one record of a run's faults; under
an active tracer the cluster also emits ``fault.*`` and ``shard.down``
spans, the same events on a timeline.
"""

from .plan import FaultEvent, FaultKind, FaultPlan
from .report import FailureReport
from .retry import RetryPolicy

__all__ = [
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FailureReport",
    "RetryPolicy",
]
