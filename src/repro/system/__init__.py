"""System level: the Arm+FPGA server of paper Fig. 11 and its baselines.

* :mod:`~repro.system.arm` — cost model of the baremetal Arm software;
* :mod:`~repro.system.baseline` — instrumented software FV mapped onto
  the Intel i5 / FV-NFLlib reference of Sec. VI-E;
* :mod:`~repro.system.related_work` — the comparison points of Sec. VI-E;
* :mod:`~repro.system.server` — :class:`~repro.system.server.CostModel`,
  the per-job price list of the dual-coprocessor cloud server;
* :mod:`~repro.system.workloads` — homomorphic job streams (saturating,
  Poisson, multi-tenant, closed-loop) for the throughput experiments.

The discrete-event serving runtime built on these models lives in
:mod:`repro.serve`.
"""

from .baseline import SoftwareBaseline
from .server import CostModel
from .workloads import (
    Job,
    JobKind,
    merge_streams,
    multi_tenant_stream,
    poisson_stream,
)

__all__ = [
    "SoftwareBaseline",
    "CostModel",
    "Job",
    "JobKind",
    "merge_streams",
    "multi_tenant_stream",
    "poisson_stream",
]
