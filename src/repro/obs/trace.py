"""Request tracing: span trees over both execution paths.

A :class:`Span` covers one timed region — a whole ``HEProgram`` run, a
single lowered op, a restore/boundary phase, one engine transform call,
or one simulated runtime job. Spans nest into a tree, carry a
``clock`` tag ("wall" for the functional path's measured seconds,
"sim" for the priced path's simulated seconds), and hold free-form
``attrs`` (op kind, node id, transform-count diffs, bytes moved).

A :class:`Tracer` builds the tree. The functional backend opens spans
with the :meth:`Tracer.span` context manager (wall clock, measured
via ``perf_counter``); the simulated backend records already-priced
intervals with :meth:`Tracer.add`. :meth:`Tracer.activate` publishes
the tracer through a context variable so deep layers — the gemm NTT
engine in :mod:`repro.nttmath.batch` — can attach transform spans via
:func:`maybe_span` without threading a tracer argument through every
call; when no tracer is active :func:`maybe_span` is a no-op, keeping
the untraced hot path free of bookkeeping.

:class:`TraceReport` reduces a finished tree into the queryable
shapes the ISSUE asks for: per-op-kind rollups, exact transform-count
totals (summed from the per-op registry diffs), and the critical path
through the program DAG.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Span",
    "Tracer",
    "TraceReport",
    "active_tracer",
    "maybe_span",
]


@dataclass
class Span:
    """One timed region of a request.

    ``kind`` tags the layer: "program" (a whole run), "op" (one
    lowered HEProgram op), "phase" (restore / verification /
    output-boundary work), "transform" (one engine NTT batch),
    "kernel" (a named step inside a phase that is not a transform —
    the decryption phase, scale-to-t and mixed-radix noise steps of
    output verification), "job" (a simulated runtime job), "lane"
    bookkeeping, etc. ``clock`` says which timebase
    ``start``/``end`` live on — "wall" seconds from ``perf_counter``
    or "sim" seconds from the discrete-event clock; the two are never
    mixed inside one subtree reduction.
    """

    name: str
    kind: str = "span"
    clock: str = "wall"
    start: float = 0.0
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list[Span] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def walk(self) -> Iterator[Span]:
        """This span, then every descendant, depth-first preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


_ACTIVE: ContextVar[Tracer | None] = ContextVar(
    "repro_active_tracer", default=None
)


def active_tracer() -> Tracer | None:
    """The tracer published by the innermost :meth:`Tracer.activate`."""
    return _ACTIVE.get()


class Tracer:
    """Builds one span tree for one program run, under a
    ``heprogram.run`` root span."""

    def __init__(self) -> None:
        self.root = Span(name="heprogram.run", kind="program",
                         start=time.perf_counter())
        self._stack: list[Span] = [self.root]

    @property
    def current(self) -> Span:
        return self._stack[-1]

    def finish(self) -> Span:
        """Close the root span (wall clock) and return it."""
        if self.root.end == 0.0:
            self.root.end = time.perf_counter()
        return self.root

    @contextmanager
    def span(self, name: str, kind: str = "phase",
             **attrs: Any) -> Iterator[Span]:
        """Open a wall-clock child span for the duration of the block.

        The yielded span is live — callers set ``attrs`` on it while
        the block runs (e.g. the transform-count diff measured across
        the op).
        """
        child = Span(name=name, kind=kind, attrs=dict(attrs),
                     start=time.perf_counter())
        self.current.children.append(child)
        self._stack.append(child)
        try:
            yield child
        finally:
            child.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, kind: str, start: float, end: float,
            clock: str = "sim", **attrs: Any) -> Span:
        """Record an already-timed interval under the current span
        (simulated clock path)."""
        child = Span(name=name, kind=kind, clock=clock, start=start,
                     end=end, attrs=dict(attrs))
        self.current.children.append(child)
        return child

    @contextmanager
    def activate(self) -> Iterator[Tracer]:
        """Publish this tracer to :func:`active_tracer` for the block."""
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    def report(self) -> TraceReport:
        return TraceReport(self.finish())


def maybe_span(name: str, kind: str = "transform", **attrs: Any):
    """A span on the active tracer, or a free no-op when untraced.

    The engine hot paths call this unconditionally; the single
    context-variable read is the entire cost when tracing is off.
    """
    tracer = active_tracer()
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, kind=kind, **attrs)


@dataclass
class TraceReport:
    """Structured reductions over one finished span tree."""

    root: Span

    def op_spans(self) -> list[Span]:
        """The ``"op"`` spans, one per executed program node."""
        return [s for s in self.root.walk() if s.kind == "op"]

    @property
    def total_seconds(self) -> float:
        return self.root.duration

    def rollup(self) -> dict[str, dict[str, float]]:
        """Per-op-kind totals over the "op" spans.

        Keyed by the span's ``op`` attr (falling back to its name):
        count, total seconds, summed transform rows/calls, and bytes
        moved — the per-stage accounting the accelerator papers argue
        the story lives in.
        """
        out: dict[str, dict[str, float]] = {}
        for span in self.op_spans():
            key = str(span.attrs.get("op", span.name))
            row = out.setdefault(key, {
                "count": 0.0,
                "seconds": 0.0,
                "transform_rows": 0.0,
                "transform_calls": 0.0,
                "bytes_moved": 0.0,
            })
            row["count"] += 1
            row["seconds"] += span.duration
            transforms = span.attrs.get("transforms", {})
            row["transform_rows"] += (transforms.get("forward_rows", 0)
                                      + transforms.get("inverse_rows", 0))
            row["transform_calls"] += (transforms.get("forward_calls", 0)
                                       + transforms.get("inverse_calls", 0))
            row["bytes_moved"] += span.attrs.get("bytes_moved", 0)
        return out

    def transform_totals(self) -> dict[str, int]:
        """Summed per-op transform-count diffs across the whole run.

        Only "op" and "phase" spans contribute: their ``transforms``
        attrs are registry diffs measured *across* each region, so
        they already include the nested engine "transform" spans —
        summing those too would double count.
        """
        totals: dict[str, int] = {}
        for span in self.root.walk():
            if span.kind not in ("op", "phase"):
                continue
            for key, value in span.attrs.get("transforms", {}).items():
                totals[key] = totals.get(key, 0) + int(value)
        return {k: v for k, v in totals.items() if v}

    def critical_path(self) -> list[Span]:
        """Longest-duration dependency chain through the program DAG.

        "op" spans carry ``node`` (their HEProgram node id) and
        ``deps`` (ids of argument nodes). Ops execute in topological
        order, so one pass of longest-path DP over the recorded order
        suffices; nodes without a recorded span (program inputs) cost
        nothing. Returns the chain input-side first.
        """
        ops = [s for s in self.op_spans() if "node" in s.attrs]
        if not ops:
            return []
        cost: dict[int, float] = {}
        prev: dict[int, int | None] = {}
        span_of: dict[int, Span] = {}
        for span in ops:
            node = span.attrs["node"]
            span_of[node] = span
            best_dep, best_cost = None, 0.0
            for dep in span.attrs.get("deps", ()):  # inputs have no span
                if dep in cost and cost[dep] > best_cost:
                    best_dep, best_cost = dep, cost[dep]
            cost[node] = best_cost + span.duration
            prev[node] = best_dep
        tail = max(cost, key=cost.__getitem__)
        path: list[Span] = []
        at: int | None = tail
        while at is not None:
            path.append(span_of[at])
            at = prev[at]
        path.reverse()
        return path

    def critical_path_seconds(self) -> float:
        return sum(s.duration for s in self.critical_path())
