"""Executor selection: one small config object, sourced from the env.

The functional engine picks its execution strategy from an
:class:`ExecutionConfig` — ``mode`` names the executor family
(``serial`` | ``threads``) and ``workers`` sizes the pool — left
unspecified, a thread pool is sized from the affinity mask, the one
default-worker rule every entry point shares. The default config
comes from the environment (``REPRO_EXECUTOR``, ``REPRO_WORKERS``) so
the CI parallel leg, the bench sweep, and a user shell can switch the
whole stack without touching call sites; `LocalBackend` / the CLI
override it per run. ``REPRO_PARALLEL_MIN_WORK`` sets
:data:`PARALLEL_MIN_WORK`, the one size gate every fan-out shares.

Parsing here is deliberately forgiving: an unknown mode, a garbled
worker count or a garbled work threshold is *kept* and rejected
loudly later by :func:`repro.parallel.executors.build_executor`,
which records a structured diagnostic and degrades (to serial, or to
the default threshold) — a typo in an env var must never crash a
run, and must never silently change the numbers either.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["EXECUTOR_MODES", "ExecutionConfig", "PARALLEL_MIN_WORK",
           "available_cores", "parse_min_work"]

#: The executor families :func:`build_executor` knows how to build.
EXECUTOR_MODES = ("serial", "threads")

#: Pool-size ceiling when no worker count is given: enough to cover
#: the limb/channel tiling sweet spot without oversubscribing small
#: CI runners.
_DEFAULT_WORKER_CAP = 8

_DEFAULT_MIN_WORK = 1 << 14


def parse_min_work(raw: str | None) -> tuple[int, str | None]:
    """``REPRO_PARALLEL_MIN_WORK`` as ``(threshold, problem)``.

    Unset gives the default; a value that is not an integer gives the
    default too, with the complaint :func:`build_executor` reports.
    """
    if raw is None:
        return _DEFAULT_MIN_WORK, None
    try:
        return int(raw), None
    except ValueError:
        return _DEFAULT_MIN_WORK, (
            f"REPRO_PARALLEL_MIN_WORK={raw!r} is not an integer; using "
            f"the default {_DEFAULT_MIN_WORK}")


PARALLEL_MIN_WORK, MIN_WORK_PROBLEM = parse_min_work(
    os.environ.get("REPRO_PARALLEL_MIN_WORK"))
"""Smallest fan-out (array elements one dispatch touches: rows x n for
a batched transform, rows x columns for a band kernel) worth spreading
over a pool. Below it thread dispatch overhead beats the kernel time;
the parallel CI leg sets ``REPRO_PARALLEL_MIN_WORK=1`` to force every
fan-out in the suite through the tiled path. Readers go through
:func:`repro.parallel.fans_out`, which reads the attribute per call."""


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
