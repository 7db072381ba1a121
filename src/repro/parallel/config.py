"""Executor selection: one small config object, checked at the door.

The functional engine picks its execution strategy from an
:class:`ExecutionConfig` — ``mode`` names the executor family
(``serial`` | ``threads``) and ``workers`` sizes the pool — left
unspecified, a thread pool is sized from the affinity mask, the one
default-worker rule every entry point shares. A config is chosen in
code (``use_executor``, ``LocalBackend(executor=...)``, the CLI's
``--executor/--workers``); one that names an unknown mode or fewer
than one worker raises :class:`~repro.errors.ParameterError` when it
is constructed, so nothing ever runs on a configuration nobody asked
for. :data:`PARALLEL_MIN_WORK` is the one size gate every fan-out
shares.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import ParameterError

__all__ = ["EXECUTOR_MODES", "ExecutionConfig", "PARALLEL_MIN_WORK",
           "available_cores"]

#: The executor families :func:`build_executor` knows how to build.
EXECUTOR_MODES = ("serial", "threads")

#: Pool-size ceiling when no worker count is given: enough to cover
#: the limb/channel tiling sweet spot without oversubscribing small
#: CI runners.
_DEFAULT_WORKER_CAP = 8

PARALLEL_MIN_WORK = 1 << 14
"""Smallest fan-out (array elements one dispatch touches: rows x n for
a batched transform, rows x columns for a band kernel) worth spreading
over a pool. Below it thread dispatch overhead beats the kernel time.
Readers go through :func:`repro.parallel.fans_out`, which reads the
attribute per call, so a test can lower it to force every fan-out
through the tiled path."""


def available_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ExecutionConfig:
    """How the functional engine should spread its work.

    ``mode`` is one of :data:`EXECUTOR_MODES`; ``workers`` is the pool
    size — ``serial`` ignores it, the thread executor treats it as the
    number of concurrently running tiles, and ``None`` resolves to the
    affinity mask (capped) for a non-serial mode. Anything else raises
    :class:`~repro.errors.ParameterError` here.
    """

    mode: str = "serial"
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in EXECUTOR_MODES:
            raise ParameterError(
                f"unknown executor mode {self.mode!r}; expected one of "
                f"{', '.join(EXECUTOR_MODES)}")
        if self.workers is None:
            object.__setattr__(
                self, "workers",
                1 if self.mode == "serial"
                else min(_DEFAULT_WORKER_CAP, available_cores()),
            )
        elif self.workers < 1:
            raise ParameterError(
                f"executor workers must be at least 1, got {self.workers}")
