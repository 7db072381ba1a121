"""The process's BLAS thread count, held at one while a pool is alive.

Our tiles are single dgemms and wide ufunc passes on worker threads;
OpenBLAS's own pool, left at its default, splits each of those gemms
over every core again and keeps its workers spinning afterwards, so
two pools fight over the same cores (``threads@2`` at 0.8x serial on
two cores, 1.6x with BLAS single-threaded). A live
:class:`~repro.parallel.executors.ThreadPoolExecutor` therefore owns
the one thread budget: :func:`pin` sets every loaded OpenBLAS to a
single thread, :func:`release` restores what was found, counted over
live pools so the last one out restores.

The hold lasts the pool's *lifetime*, not a dispatch. Toggling around
each fan-out was prototyped and buys nothing (215-248 ms per request
against a 214-218 ms parent on the ``mult_n8192_threads`` ledger
workload, where the lifetime hold gives 157-169 ms and 138-147 ms
with the column bands): a set/restore pair costs a microsecond, but
every untiled gemm between two dispatches wakes OpenBLAS's workers,
which then spin into the next dispatch and take the core from our
tiles.

The library is found the way the ledger stamp reads it: the shared
objects named in ``/proc/self/maps``, opened with ctypes. No
threadpoolctl, no environment variable.
"""

from __future__ import annotations

import ctypes
import threading
from collections.abc import Callable
from dataclasses import asdict, dataclass

__all__ = ["BlasDecision", "NO_POOL", "pin", "release"]

_PREFIXES = ("openblas", "scipy_openblas")
_SUFFIXES = ("", "64_")


@dataclass(frozen=True)
class BlasDecision:
    """What a pool did about BLAS threading, and why not if it did not."""

    steered: bool
    threads_before: int | None = None
    reason: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        if self.steered:
            return f"BLAS pinned to 1 thread, was {self.threads_before}"
        return f"BLAS not steered: {self.reason}"


#: The decision of everything that is not a pool with real workers.
NO_POOL = BlasDecision(False, reason="no multi-worker pool")

Accessors = tuple[Callable[[], int], Callable[[int], None]]


def _bind(lib: ctypes.CDLL) -> Accessors | None:
    """``lib``'s thread-count getter and setter, when it exports both."""
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def _locate() -> list[Accessors] | str:
    """Accessors of every loaded OpenBLAS, or the reason there are none."""
    import numpy  # noqa: F401 - maps the BLAS the engine's gemms call

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError as exc:
        return f"cannot list the loaded libraries ({exc})"
    if not paths:
        return "no OpenBLAS library is loaded in this process"
    found = []
    for path in paths:
        try:
            accessors = _bind(ctypes.CDLL(path))
        except OSError:
            continue
        if accessors is not None:
            found.append(accessors)
    if not found:
        return ("no loaded OpenBLAS exports a get/set_num_threads pair: "
                + ", ".join(paths))
    return found


_LOCK = threading.Lock()
_holders = 0
_held: list[tuple[Callable[[int], None], int]] = []


def pin() -> BlasDecision:
    """Hold BLAS at one thread on behalf of one more pool.

    A steered decision must be paired with one :func:`release`; an
    unsteered one holds nothing.
    """
    global _holders, _held
    with _LOCK:
        if _holders == 0:
            located = _locate()
            if isinstance(located, str):
                return BlasDecision(False, reason=located)
            _held = [(setter, getter()) for getter, setter in located]
            for setter, _ in _held:
                setter(1)
        _holders += 1
        return BlasDecision(True, threads_before=_held[0][1])


def release() -> None:
    """Drop one pool's hold; the last one restores the counts found."""
    global _holders, _held
    with _LOCK:
        _holders -= 1
        if _holders == 0:
            for setter, before in _held:
                setter(before)
            _held = []
