"""Retry policy: exponential backoff with deterministic jitter.

When a shard crash spills a job (or a transient fault kills one in the
queue), the cluster re-routes it after a backoff delay, up to
``max_attempts`` tries per job; a retried job keeps its own deadline.
The delay doubles per attempt and carries a small multiplicative
jitter so a board's whole spilled queue does not re-arrive as one
thundering herd at an identical instant — but the jitter is drawn from
``default_rng((seed, token, attempt))``, a pure function of the policy
seed and the job's identity, so replaying a run reproduces every
backoff to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for the cluster's failure-recovery path."""

    #: Total tries per job including the first routing (so 4 means the
    #: original attempt plus up to three retries).
    max_attempts: int = 4
    #: Backoff before the first retry; doubles per subsequent attempt.
    #: The default is on the order of a few Mult service times — long
    #: enough to clear a transient, short enough to stay inside a
    #: request deadline.
    base_backoff_seconds: float = 0.002
    #: Jitter fraction: the drawn delay is uniform in
    #: ``[backoff * (1 - jitter), backoff * (1 + jitter)]``.
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.base_backoff_seconds < 0:
            raise ValueError("backoff cannot be negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff_seconds(self, attempt: int, token: int = 0) -> float:
        """Deterministic jittered delay before retry ``attempt``.

        ``attempt`` counts retries from 1; ``token`` identifies the job
        (its index) so two jobs spilled by one crash fan back in at
        distinct instants instead of a synchronised herd.
        """
        if attempt < 1:
            raise ValueError("attempts count from 1")
        base = self.base_backoff_seconds * 2.0 ** (attempt - 1)
        if self.jitter == 0.0 or base == 0.0:
            return base
        rng = np.random.default_rng((self.seed, token, attempt))
        return base * float(rng.uniform(1.0 - self.jitter,
                                        1.0 + self.jitter))
