"""Placement policies: which shard serves which arriving job.

The router sees every arrival once, with all shards (one
:class:`~repro.serve.engine.ServingRuntime` per board) advanced to the
arrival instant, and names a primary shard by reading their load
signals and names. Policies trade three goods off against each other:

* **balance** — equalise outstanding work so the slowest shard (which
  sets cluster makespan) stays close to the mean;
* **affinity** — keep one tenant's jobs on one board so its DMA
  descriptor trains stay batchable (the server-side amortisation of
  :mod:`repro.serve.batching` only coalesces co-located jobs) and its
  relinearisation keys stay cached on that board's DDR;
* **decision cost** — a real dispatcher touches per-shard state under
  a lock; cheaper signals scale further.

:class:`RoundRobinRouter` and :class:`LeastOutstandingWorkRouter` are
the balance extremes; :class:`TenantAffinityRouter` is rendezvous
(highest-random-weight) hashing with an optional bounded-load spill;
:class:`PowerOfTwoChoicesRouter` is the classic two-sample compromise.
"""

from __future__ import annotations

import functools
import hashlib
from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from ..serve.engine import ServingRuntime
from ..system.workloads import Job


class Router(ABC):
    """Base class: maps each arrival to a primary shard index."""

    name = "router"

    @abstractmethod
    def choose(self, job: Job, shards: Sequence[ServingRuntime]) -> int:
        """Index of the shard that should serve `job`."""


class RoundRobinRouter(Router):
    """Cycle through shards in order, blind to load and tenant."""

    name = "rr"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, job: Job, shards: Sequence[ServingRuntime]) -> int:
        index = self._next % len(shards)
        self._next += 1
        return index


class LeastOutstandingWorkRouter(Router):
    """Send each job to the shard that would drain soonest.

    Compares :meth:`ServingRuntime.drain_estimate_seconds`, which prices the
    backlog in *that shard's own* service seconds — so in a
    heterogeneous cluster a slow board reports a longer drain for the
    same queue and naturally receives proportionally less work.
    """

    name = "low"

    def choose(self, job: Job, shards: Sequence[ServingRuntime]) -> int:
        return min(range(len(shards)),
                   key=lambda i: (shards[i].drain_estimate_seconds(), i))


def _rendezvous_score(tenant: str, shard_name: str) -> int:
    digest = hashlib.blake2b(f"{tenant}|{shard_name}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


@functools.lru_cache(maxsize=1 << 16)
def rendezvous_order(tenant: str, names: tuple[str, ...]) -> tuple[int, ...]:
    """Indices into `names`, best rendezvous (HRW) score for `tenant`
    first — keyed by the board names themselves, so a masked view of
    the same size but other boards gets its own order."""
    return tuple(sorted(range(len(names)),
                        key=lambda i: _rendezvous_score(tenant, names[i]),
                        reverse=True))


class TenantAffinityRouter(Router):
    """Consistent tenant placement via rendezvous (HRW) hashing.

    Every (tenant, shard) pair gets a deterministic score; a tenant
    lives on its highest-scoring shard. Adding or removing one shard
    relocates only the tenants whose top choice changed (~1/N of the
    population) — the consistent-hashing property that keeps a
    scale-out event from reshuffling every tenant's cached keys.

    With ``bounded_load_factor`` set, the router walks the tenant's
    rendezvous preference order and takes the first shard whose
    outstanding jobs stay within ``factor x cluster mean + 1`` — the
    consistent-hashing-with-bounded-loads refinement: near-perfect
    affinity at low load, a hard cap on hot-shard imbalance at
    saturation. ``None`` means pure affinity, never spill.
    """

    name = "affinity"

    def __init__(self, bounded_load_factor: float | None = None) -> None:
        if bounded_load_factor is not None and bounded_load_factor < 1.0:
            raise ValueError("bounded load factor must be >= 1")
        self.bounded_load_factor = bounded_load_factor
        if bounded_load_factor is not None:
            self.name = "affinity-bl"

    def choose(self, job: Job, shards: Sequence[ServingRuntime]) -> int:
        order = rendezvous_order(job.tenant,
                                 tuple(shard.name for shard in shards))
        if self.bounded_load_factor is None:
            return order[0]
        loads = [shard.outstanding_jobs() for shard in shards]
        cap = self.bounded_load_factor * (sum(loads) / len(shards)) + 1.0
        for index in order:
            if loads[index] <= cap:
                return index
        return order[0]


class PowerOfTwoChoicesRouter(Router):
    """Sample two shards uniformly, keep the one with less work.

    The classic balls-into-bins result: two random choices shrink the
    expected maximum load from Theta(log n / log log n) to
    Theta(log log n), at the cost of probing two shards instead of
    zero. Deterministic per seed so simulations replay exactly.
    """

    name = "p2c"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def choose(self, job: Job, shards: Sequence[ServingRuntime]) -> int:
        if len(shards) == 1:
            return 0
        first, second = self._rng.choice(len(shards), size=2,
                                         replace=False)
        if (shards[int(second)].drain_estimate_seconds()
                < shards[int(first)].drain_estimate_seconds()):
            return int(second)
        return int(first)


def default_routers(seed: int = 0) -> list[Router]:
    """Fresh instances of every built-in policy (for sweeps)."""
    return [RoundRobinRouter(), LeastOutstandingWorkRouter(),
            TenantAffinityRouter(),
            TenantAffinityRouter(bounded_load_factor=1.25),
            PowerOfTwoChoicesRouter(seed=seed)]
