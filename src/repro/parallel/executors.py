"""Pluggable executors: serial, and GIL-releasing threads.

One :class:`Executor` protocol — ``name``, ``workers``, ``map``,
``close`` — and two implementations:

* :class:`SerialExecutor` — the do-nothing baseline; ``workers == 1``
  makes every dispatcher take its untiled fast path, so default runs
  are byte-identical to the pre-parallel engine.
* :class:`ThreadPoolExecutor` — worker threads over closures on the
  caller's arrays. The engine's hot loops are dgemms and wide numpy
  ufuncs, which drop the GIL for the duration of the kernel, so
  threads buy real multi-core wall-clock on the dominant cost without
  any pickling or copying. A pool with more than one worker owns the
  process's whole thread budget: it holds OpenBLAS at one thread from
  construction to :meth:`~ThreadPoolExecutor.close` (:mod:`.blas`),
  so every core runs one of our tiles instead of a share of someone
  else's gemm.

Executors never decide *what* is parallel — the engine plans disjoint
(polynomial, channel) tiles and hands them over — and they never
change results: tiles write disjoint slices and each tile's
arithmetic is bit-identical to its serial counterpart, so scheduling
order is unobservable. :func:`map_tiles` is the one instrumented
fan-out: it records utilisation and tile-shape instruments in the
active metrics registry and, under a tracer, one named span per tile
on its worker's lane.

:func:`build_executor` turns an :class:`~.config.ExecutionConfig` into
the executor it names. There is no degrade path: a config that could
not be served was refused when it was constructed. The one thing a
pool can fail to get — a BLAS library it cannot steer — costs the
speedup, not the pool: :attr:`ThreadPoolExecutor.blas` says why, and
the pool logs one warning.
"""

from __future__ import annotations

import logging
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent import futures
from typing import Any, Protocol

from ..obs import active_tracer
from ..obs import Counter as _ObsCounter
from ..obs import Gauge as _ObsGauge
from ..obs import Histogram as _ObsHistogram
from . import blas as _blas
from . import config as _config
from .config import ExecutionConfig

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "build_executor",
    "executor_fallbacks",
    "fans_out",
    "in_worker",
    "map_tiles",
    "split_range",
]

logger = logging.getLogger(__name__)

PARALLEL_DISPATCHES = _ObsCounter(
    "parallel_dispatch_total",
    "Tile fan-outs dispatched by the functional engine.",
    labels=("executor",),
)
PARALLEL_TILE_QUEUE = _ObsHistogram(
    "parallel_tiles_per_dispatch",
    "Tile-queue length of each engine fan-out.",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128),
)
WORKER_UTILISATION = _ObsGauge(
    "parallel_worker_utilisation",
    "Busy fraction of the worker pool over the last dispatch.",
    labels=("executor",),
)


def executor_fallbacks() -> tuple[()]:
    """Always empty: no executor request degrades any more.

    Kept only because the perf ledger's ``parallel`` probe reads
    ``len(executor_fallbacks())`` as ``parallel.executor_fallbacks``;
    delete it together with that probe.
    """
    return ()


class Executor(Protocol):
    """What the engine needs from an execution strategy."""

    #: Human-readable family name ("serial" | "threads").
    name: str
    #: Concurrently running tiles; 1 means dispatchers skip tiling.
    workers: int
    #: What the executor did about BLAS threading.
    blas: _blas.BlasDecision

    def map(self, fn: Callable[[Any], Any],
            items: Iterable[Any]) -> list[Any]:
        """Apply ``fn`` to every item, results in input order."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release pool resources; the executor is dead afterwards."""
        ...  # pragma: no cover - protocol


#: Set while a pool worker is executing a task, so nested engine calls
#: made from inside a task resolve to the serial executor instead of
#: re-entering (and deadlocking or forking) the pool.
_IN_WORKER = threading.local()


def in_worker() -> bool:
    return getattr(_IN_WORKER, "flag", False)


def _run_as_worker(fn: Callable[..., Any], *args: Any) -> Any:
    _IN_WORKER.flag = True
    try:
        return fn(*args)
    finally:
        _IN_WORKER.flag = False


def split_range(size: int, parts: int) -> list[tuple[int, int]]:
    """``size`` positions as ``min(parts, size)`` contiguous chunks.

    Deterministic and as even as possible (remainder spread over the
    leading chunks) — the channel-tiling primitive shared by the NTT
    dispatcher and the evaluator's element-wise fan-outs.
    """
    parts = max(1, min(parts, size))
    base, rem = divmod(size, parts)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class SerialExecutor:
    """In-thread execution; the engine's untiled default."""

    name = "serial"
    workers = 1
    blas = _blas.NO_POOL

    def map(self, fn: Callable[[Any], Any],
            items: Iterable[Any]) -> list[Any]:
        return [fn(item) for item in items]

    def close(self) -> None:
        pass


class ThreadPoolExecutor:
    """Worker threads that release the GIL into BLAS gemms.

    The engine tiles are dominated by dgemm and wide int64/float64
    ufunc passes; numpy releases the GIL for both, so a thread pool
    gets real concurrency on the expensive part while sharing the
    caller's arrays (no copies, no pickling). Tasks run with the
    in-worker flag set, so any engine call a task makes internally is
    forced serial rather than re-entering this pool.

    With more than one worker the pool holds BLAS at a single thread
    for its whole lifetime (see :mod:`.blas` for why not per
    dispatch) — process-wide, so serial code sharing the process runs
    its gemms single-threaded meanwhile; :meth:`close` gives the
    count back. Where the library cannot be steered the pool runs
    anyway, :attr:`blas` says why, and the pool logs one warning.
    """

    name = "threads"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self._pool = futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-w"
        )
        self.blas = _blas.pin() if workers > 1 else _blas.NO_POOL
        self._holds_blas = self.blas.steered
        if workers > 1 and not self.blas.steered:
            logger.warning("BLAS library cannot be steered: %s",
                           self.blas.reason)

    def map(self, fn: Callable[[Any], Any],
            items: Iterable[Any]) -> list[Any]:
        jobs = [self._pool.submit(_run_as_worker, fn, item)
                for item in items]
        return [job.result() for job in jobs]

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        if self._holds_blas:
            self._holds_blas = False
            _blas.release()


def fans_out(executor: Executor, work: int) -> bool:
    """Whether ``work`` array elements are worth ``executor``'s pool:
    real workers, and the shared :data:`~.config.PARALLEL_MIN_WORK`."""
    return executor.workers > 1 and work >= _config.PARALLEL_MIN_WORK


def map_tiles(executor: Executor, name: str,
              fn: Callable[[tuple], None],
              tiles: Sequence[tuple]) -> None:
    """Run ``fn`` over disjoint tiles on ``executor``, with accounting.

    Each tile is timed on the thread that ran it; the dispatch bumps
    the fan-out counter, the tile-queue histogram and the pool's
    utilisation gauge in the active metrics registry. Under a tracer
    every tile becomes a ``name`` span of kind ``tile`` — real,
    possibly overlapping intervals, which the timeline exporter
    spreads over per-worker lanes and the transform/op rollups skip.
    """

    def run(tile: tuple) -> tuple[str, float, float]:
        t0 = time.perf_counter()
        fn(tile)
        return threading.current_thread().name, t0, time.perf_counter()

    started = time.perf_counter()
    timings = executor.map(run, tiles)
    wall = time.perf_counter() - started
    PARALLEL_DISPATCHES.inc(executor=executor.name)
    PARALLEL_TILE_QUEUE.observe(len(tiles))
    capacity = wall * max(1, executor.workers)
    if capacity > 0:
        busy = sum(end - start for _, start, end in timings)
        WORKER_UTILISATION.set(min(1.0, busy / capacity),
                               executor=executor.name)
    tracer = active_tracer()
    if tracer is not None:
        for tile, (worker, start, end) in zip(tiles, timings, strict=True):
            tracer.add(name, "tile", start, end, clock="wall",
                       worker=worker, tile=list(tile))


def build_executor(config: ExecutionConfig) -> Executor:
    """The executor ``config`` names; the caller owns (and closes) it."""
    if config.mode == "serial":
        return SerialExecutor()
    return ThreadPoolExecutor(config.workers)
