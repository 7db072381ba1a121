"""Multi-FPGA cluster over the serving runtime.

Scales the single Arm+FPGA board of the paper out to a cluster: a board
is one :class:`~repro.serve.engine.ServingRuntime` (its up/down
lifecycle included), and a cluster is N of them behind a placement
router on one shared simulated clock —

* :mod:`~repro.cluster.routing` — round-robin, least-outstanding-work,
  tenant-affinity (rendezvous hashing, optionally bounded-load), and
  power-of-two-choices placement;
* :mod:`~repro.cluster.placement` — replicated tenant key-state
  placement (R boards per tenant, rendezvous-pinned, warmth-tracked);
* :mod:`~repro.cluster.cluster` — the shared-clock run loop, the one
  placement walk every arrival and retry takes, and the fault/retry
  interleaving driven by :mod:`repro.faults` plans;
* :mod:`~repro.cluster.report` — the shards' records side by side: the
  shared reductions over their concatenation, per-shard utilization
  and imbalance, and the :class:`~repro.faults.FailureReport` ledger of
  any chaos run.
"""

from .cluster import FpgaCluster
from .placement import ReplicatedPlacement
from .report import ClusterReport
from .routing import (
    LeastOutstandingWorkRouter,
    PowerOfTwoChoicesRouter,
    RoundRobinRouter,
    Router,
    TenantAffinityRouter,
    default_routers,
)

__all__ = [
    "FpgaCluster",
    "ClusterReport",
    "ReplicatedPlacement",
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingWorkRouter",
    "TenantAffinityRouter",
    "PowerOfTwoChoicesRouter",
    "default_routers",
]
