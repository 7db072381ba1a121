"""True wall-clock parallelism for the functional engine.

The paper's architecture is parallel by construction — residue
channels and NTT cores advance in lockstep over one shared memory —
and this layer is the software analogue: disjoint channel-band tiles
of the caller's own arrays, run on worker threads.

* :mod:`.executors` — one :class:`~.executors.Executor` protocol
  (``name``, ``workers``, ``map``, ``close``) with a serial baseline
  and a GIL-releasing thread pool;
* :mod:`.config` — :class:`~.config.ExecutionConfig`, sourced from
  ``REPRO_EXECUTOR`` / ``REPRO_WORKERS``.

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

from .config import EXECUTOR_MODES, ExecutionConfig, available_cores
from .executors import (
    Executor,
    ExecutorFallback,
    SerialExecutor,
    ThreadPoolExecutor,
    TileTiming,
    build_executor,
    executor_fallbacks,
    in_worker,
    map_tiles,
    reset_executor_fallbacks,
    split_range,
)

__all__ = [
    "EXECUTOR_MODES",
    "ExecutionConfig",
    "Executor",
    "ExecutorFallback",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "TileTiming",
    "active_executor",
    "available_cores",
    "build_executor",
    "executor_fallbacks",
    "in_worker",
    "map_bands",
    "map_tiles",
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


def map_bands(fn: Callable[[int, int], None], size: int) -> None:
    """Run ``fn(lo, hi)`` over disjoint bands covering ``[0, size)``.

    The evaluator's element-wise fan-outs (tensor products, keyswitch
    accumulation) write one channel band of the caller's arrays per
    call; with a single worker the whole range runs inline.
    """
    executor = active_executor()
    if executor.workers == 1:
        fn(0, size)
    else:
        executor.map(lambda band: fn(*band),
                     split_range(size, 2 * executor.workers))
