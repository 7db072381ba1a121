"""Executor selection: one small config object, sourced from the env.

The functional engine picks its execution strategy from an
:class:`ExecutionConfig` — ``mode`` names the executor family
(``serial`` | ``threads``) and ``workers`` sizes the pool — left
unspecified, a thread pool is sized from the affinity mask, the one
default-worker rule every entry point shares. The default config
comes from the environment (``REPRO_EXECUTOR``, ``REPRO_WORKERS``) so
the CI parallel leg, the bench sweep, and a user shell can switch the
whole stack without touching call sites; `LocalBackend` / the CLI
override it per run.

Parsing here is deliberately forgiving: an unknown mode or a garbled
worker count is *kept* in the config and rejected loudly later by
:func:`repro.parallel.executors.build_executor`, which records a
structured :class:`~repro.parallel.executors.ExecutorFallback` and
degrades to serial — a typo in an env var must never crash a run,
and must never silently change the numbers either.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["EXECUTOR_MODES", "ExecutionConfig", "available_cores"]

#: The executor families :func:`build_executor` knows how to build.
EXECUTOR_MODES = ("serial", "threads")

#: Pool-size ceiling when no worker count is given: enough to cover
#: the limb/channel tiling sweet spot without oversubscribing small
#: CI runners.
_DEFAULT_WORKER_CAP = 8


def available_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ExecutionConfig:
    """How the functional engine should spread its work.

    ``mode`` is one of :data:`EXECUTOR_MODES` (anything else survives
    parsing and triggers the loud serial fallback at build time);
    ``workers`` is the pool size — ``serial`` ignores it, the thread
    executor treats it as the number of concurrently running tiles,
    and ``None`` resolves to the affinity mask (capped) for a
    non-serial mode.
    """

    mode: str = "serial"
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.workers is None:
            object.__setattr__(
                self, "workers",
                1 if self.mode == "serial"
                else min(_DEFAULT_WORKER_CAP, available_cores()),
            )

    @classmethod
    def from_env(cls, env: dict[str, str] | None = None) -> ExecutionConfig:
        """Read ``REPRO_EXECUTOR`` / ``REPRO_WORKERS``.

        A malformed ``REPRO_WORKERS`` is carried through as
        ``workers=0`` so the builder can report it instead of raising
        mid-parse.
        """
        env = os.environ if env is None else env
        mode = env.get("REPRO_EXECUTOR", "serial").strip().lower() or "serial"
        workers: int | None = None
        if "REPRO_WORKERS" in env:
            try:
                workers = int(env["REPRO_WORKERS"])
            except ValueError:
                workers = 0  # flagged by build_executor
        return cls(mode=mode, workers=workers)
