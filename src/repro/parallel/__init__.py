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
* :mod:`.config` — :class:`~.config.ExecutionConfig`, refused at
  construction unless it names a known mode and at least one worker,
  and :data:`~.config.PARALLEL_MIN_WORK`, the size gate every fan-out
  shares.

Call sites read :func:`active_executor` — the innermost
:func:`use_executor` scope (``LocalBackend`` and the CLI's
``--executor/--workers`` flags open one), else serial. Selection is in
code: nothing here reads the environment. Inside a pool worker the
resolution is pinned to serial so tiles can call back into the engine
without re-entering the pool. Parallel execution is bit-identical to
serial: tiles inherit the parent transform's stage geometry and write
disjoint slices, so only the wall clock changes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar

from .blas import BlasDecision
from .config import EXECUTOR_MODES, ExecutionConfig, available_cores
from .executors import (
    Executor,
    SerialExecutor,
    ThreadPoolExecutor,
    build_executor,
    executor_fallbacks,
    fans_out,
    in_worker,
    map_tiles,
    split_range,
)

__all__ = [
    "BlasDecision",
    "EXECUTOR_MODES",
    "ExecutionConfig",
    "Executor",
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
    "split_range",
    "use_executor",
]

_SERIAL = SerialExecutor()
_ACTIVE: ContextVar[Executor] = ContextVar(
    "repro_active_executor", default=_SERIAL
)


def active_executor() -> Executor:
    """The executor engine dispatchers fan out on right now.

    Resolution order: the in-worker serial pin (tasks never nest
    pools), the innermost :func:`use_executor` scope, then serial.
    """
    return _SERIAL if in_worker() else _ACTIVE.get()


def _resolve(spec: Executor | ExecutionConfig | str,
             workers: int | None = None) -> tuple[Executor, bool]:
    """``spec`` as a live executor, and whether this call built it.

    A mode string (plus ``workers``) or an :class:`ExecutionConfig` is
    built here, so the caller owns the result and must close it; a
    live :class:`Executor` stays its owner's.
    """
    if isinstance(spec, str):
        spec = ExecutionConfig(spec, workers)
    if isinstance(spec, ExecutionConfig):
        return build_executor(spec), True
    return spec, False


@contextmanager
def use_executor(executor: Executor | ExecutionConfig | str,
                 workers: int | None = None) -> Iterator[Executor]:
    """Scope an executor over a block.

    Accepts a live :class:`Executor` (caller keeps ownership), an
    :class:`ExecutionConfig`, or a mode string plus ``workers`` — the
    latter two are built before the block runs (a bad one raises
    :class:`~repro.errors.ParameterError` there) and closed when it
    exits.
    """
    executor, owned = _resolve(executor, workers)
    token = _ACTIVE.set(executor)
    try:
        yield executor
    finally:
        _ACTIVE.reset(token)
        if owned:
            executor.close()


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
