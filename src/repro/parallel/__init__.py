"""True wall-clock parallelism for the functional engine.

The paper's architecture is parallel by construction — residue
channels and NTT cores advance in lockstep over one shared memory —
and this layer is the software analogue: disjoint tiles of the
caller's own arrays — channel bands of the transforms, tensor
products and keyswitch folds, coefficient-column bands of the
Lift/Scale/decrypt kernels — run on worker threads.

* :mod:`.executors` — one :class:`~.executors.Executor` protocol
  (``name``, ``workers``, ``blas``, ``map``, ``close``) with a serial
  baseline and a GIL-releasing thread pool, and :func:`map_tiles`,
  the one instrumented fan-out;
* :mod:`.blas` — the thread budget has one owner: a live pool holds
  OpenBLAS at one thread, process-wide, and ``close()`` restores it;
* :mod:`.config` — :class:`~.config.ExecutionConfig`, sourced from
  ``REPRO_EXECUTOR`` / ``REPRO_WORKERS``, and the size gate
  ``REPRO_PARALLEL_MIN_WORK`` every fan-out shares.

Call sites read :func:`active_executor` — an explicitly scoped
executor (:func:`use_executor`, used by ``LocalBackend`` and the
CLI's ``--executor/--workers`` flags), else the process default built
lazily from the environment. Inside a pool worker the resolution is
pinned to serial so tiles can call back into the engine without
re-entering the pool. Parallel execution is bit-identical to serial:
tiles inherit the parent transform's stage geometry and write
disjoint slices, so only the wall clock changes.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar

from .blas import BlasDecision
from .config import EXECUTOR_MODES, ExecutionConfig, available_cores
from .executors import (
    Executor,
    ExecutorFallback,
    ParallelDiagnostic,
    SerialExecutor,
    ThreadPoolExecutor,
    build_executor,
    executor_fallbacks,
    fans_out,
    in_worker,
    map_tiles,
    parallel_diagnostics,
    reset_executor_fallbacks,
    split_range,
)

__all__ = [
    "BlasDecision",
    "EXECUTOR_MODES",
    "ExecutionConfig",
    "Executor",
    "ExecutorFallback",
    "ParallelDiagnostic",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "active_executor",
    "available_cores",
    "build_executor",
    "executor_fallbacks",
    "fans_out",
    "in_worker",
    "map_bands",
    "map_tiles",
    "parallel_diagnostics",
    "reset_default_executor",
    "reset_executor_fallbacks",
    "split_range",
    "use_executor",
]

_SERIAL = SerialExecutor()
_ACTIVE: ContextVar[Executor | None] = ContextVar(
    "repro_active_executor", default=None
)
_DEFAULT: Executor | None = None
_DEFAULT_LOCK = threading.Lock()


def active_executor() -> Executor:
    """The executor engine dispatchers fan out on right now.

    Resolution order: the in-worker serial pin (tasks never nest
    pools), the innermost :func:`use_executor` scope, then the
    process-wide default built once from the environment.
    """
    if in_worker():
        return _SERIAL
    scoped = _ACTIVE.get()
    if scoped is not None:
        return scoped
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = build_executor(ExecutionConfig.from_env())
    return _DEFAULT


def reset_default_executor() -> None:
    """Drop (and close) the env-derived default executor.

    The next :func:`active_executor` call rebuilds it from the current
    environment — the hook tests and long-lived processes use after
    changing ``REPRO_EXECUTOR`` / ``REPRO_WORKERS``.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        closing, _DEFAULT = _DEFAULT, None
    if closing is not None:
        closing.close()


@contextmanager
def use_executor(executor: Executor | ExecutionConfig | str,
                 workers: int | None = None) -> Iterator[Executor]:
    """Scope an executor over a block.

    Accepts a live :class:`Executor` (caller keeps ownership), an
    :class:`ExecutionConfig`, or a mode string plus ``workers`` — the
    latter two are built here (with the loud serial fallback) and
    closed when the block exits.
    """
    owned: Executor | None = None
    if isinstance(executor, str):
        executor = ExecutionConfig(
            mode=executor.strip().lower() or "serial", workers=workers
        )
    if isinstance(executor, ExecutionConfig):
        executor = owned = build_executor(executor)
    token = _ACTIVE.set(executor)
    try:
        yield executor
    finally:
        _ACTIVE.reset(token)
        if owned is not None:
            owned.close()


def map_bands(name: str, fn: Callable[[int, int], None], size: int,
              work: int) -> None:
    """Run ``fn(lo, hi)`` over disjoint bands covering ``[0, size)``.

    The engine's element-wise fan-outs write one band of the caller's
    arrays per call: channel bands for the tensor products and the
    keyswitch accumulation, coefficient-column bands for the
    Lift/Scale/decrypt kernels. ``work`` is the number of array
    elements the whole range touches; below the shared threshold (or
    with a single worker) the range runs inline. Banded runs go
    through :func:`map_tiles`, so they feed the dispatch instruments
    and, traced, appear as ``name`` tile spans.
    """
    executor = active_executor()
    if size < 2 or not fans_out(executor, work):
        fn(0, size)
    else:
        map_tiles(executor, name, lambda band: fn(*band),
                  split_range(size, 2 * executor.workers))
