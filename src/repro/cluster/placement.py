"""Replicated tenant key-state placement via rendezvous hashing.

A tenant's Galois/relin key material is the expensive resident state
on a board (Medha's framing: megabytes of key polynomials staged in
DDR). With replication factor R, each tenant's keys are pinned to its
R highest-scoring shards under the same rendezvous (HRW) hash the
affinity router uses — so placement is consistent: a board joining or
leaving moves only the tenants whose top-R set changed.

The placement also tracks *warmth*: which replicas currently hold the
tenant's keys staged. A crash evicts every warmth bit on that board;
a job that fails over to a cold replica pays a key-rehydration
penalty (priced by the cluster as extra polynomial transfers through
the existing DMA cost model) and warms the replica for its tenant.
"""

from __future__ import annotations

from collections.abc import Sequence

from .routing import rendezvous_order


class ReplicatedPlacement:
    """Which boards hold (and have staged) each tenant's key state."""

    def __init__(self, shard_names: Sequence[str], replicas: int) -> None:
        if not 1 <= replicas <= len(shard_names):
            raise ValueError(
                f"replication factor must be in [1, {len(shard_names)}], "
                f"got {replicas}"
            )
        self.shard_names = tuple(shard_names)
        self.replicas = replicas
        #: tenant -> set of shard indices with the keys currently warm.
        self._warm: dict[str, set[int]] = {}

    def preference(self, tenant: str) -> tuple[int, ...]:
        """All shards in descending rendezvous order for `tenant`."""
        return rendezvous_order(tenant, self.shard_names)

    def replica_set(self, tenant: str) -> tuple[int, ...]:
        """The R boards pinned to hold `tenant`'s key state."""
        return self.preference(tenant)[: self.replicas]

    def primary(self, tenant: str) -> int:
        return self.preference(tenant)[0]

    def _warm_set(self, tenant: str) -> set[int]:
        warm = self._warm.get(tenant)
        if warm is None:
            # First sight of the tenant: its whole replica set starts
            # warm — steady-state key distribution happened before the
            # run window we simulate.
            warm = self._warm[tenant] = set(self.replica_set(tenant))
        return warm

    def is_warm(self, tenant: str, shard: int) -> bool:
        return shard in self._warm_set(tenant)

    def warm(self, tenant: str, shard: int) -> None:
        """Mark `tenant`'s keys staged on `shard` (rehydration done)."""
        self._warm_set(tenant).add(shard)

    def evict_shard(self, shard: int) -> None:
        """A board crashed: every tenant's keys there are gone."""
        for warm in self._warm.values():
            warm.discard(shard)

    def primary_tenants(self, shard: int) -> list[str]:
        """Tenants (seen so far) whose rendezvous-primary is `shard`."""
        return sorted(t for t in self._warm
                      if self.preference(t)[0] == shard)
