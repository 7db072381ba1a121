"""The public client facade: sessions, handles, and lazy HE programs.

This package is the bridge the repository's two halves meet on. The
functional FV layer (:mod:`repro.fv`) computes on real ciphertexts; the
serving/cluster simulation (:mod:`repro.serve`, :mod:`repro.cluster`)
prices abstract job streams against the paper's hardware cost models.
The facade lets one client program drive both:

>>> from repro.api import Session, SimulatedBackend, sum_slots
>>> from repro.params import mini
>>> s = Session(mini(t=257), seed=7)
>>> a, b = s.encrypt([1, 2, 3, 4]), s.encrypt([5, 6, 7, 8])
>>> dot = s.compile(sum_slots(a * b), name="dot-product")

Functionally (real FV arithmetic, verified noise budget):

>>> int(Session.decrypt(s, LocalBackend(s).run(dot)["out"])[0])

And through the simulated serving stack (latency under load):

>>> run = SimulatedBackend.over_cluster(s.params, 4).run(
...     dot, requests=200, rate_per_second=300.0)
>>> run.latency_summary().p99

The modules:

* :mod:`~repro.api.session` — :class:`Session`: keys, encoder
  selection, encrypt/decrypt, Galois key caching, program compilation;
* :mod:`~repro.api.program` — :class:`CiphertextHandle` operator
  algebra, the expression DAG, :class:`HEProgram` with static
  depth/noise checks and job-stream lowering;
* :mod:`~repro.api.backends` — the functional :class:`LocalBackend`,
  whose ciphertexts all live in the evaluation (NTT) domain;
* :mod:`~repro.api.simulated` — :class:`SimulatedBackend` with
  future-style request handles and latency telemetry; it remembers the
  last 64 INPUT handles the simulated server ingested and prices their
  uploads at zero transfer (:attr:`SimulatedRun.cache_hits`).
"""

from .backends import LocalBackend, ProgramResult
from .program import (
    CiphertextHandle,
    HEProgram,
    LoweredOp,
    OpKind,
    rotate,
    sum_slots,
)
from .session import Session
from .simulated import (
    LoweredProgram,
    ProgramFuture,
    SimulatedBackend,
    SimulatedRun,
)

__all__ = [
    "Session",
    "CiphertextHandle",
    "HEProgram",
    "OpKind",
    "LoweredOp",
    "LoweredProgram",
    "rotate",
    "sum_slots",
    "LocalBackend",
    "ProgramResult",
    "SimulatedBackend",
    "SimulatedRun",
    "ProgramFuture",
]
