"""Timeline export: spans and simulated runs as Chrome trace events.

Everything here emits the Chrome trace-event JSON format (the
``traceEvents`` array of ``ph: "X"`` complete events), which loads
directly in Perfetto / ``chrome://tracing``:

* :func:`spans_to_chrome` — a functional-path :class:`~.trace.Span`
  tree (wall-clock, nested ops and engine transforms) as one process;
* :func:`runtime_timeline` — a simulated
  :class:`~repro.serve.engine.RuntimeReport`: one thread lane per
  coprocessor, one slice per job (batch-mates share their DMA train's
  interval), and a ``queue_depth`` counter track from the report's
  queue-depth trace;
* :func:`cluster_timeline` — a multi-shard
  :class:`~repro.cluster.report.ClusterReport`: one *process* per
  shard so Perfetto groups each shard's lanes together.

:func:`validate_chrome_trace` is the schema gate the tests (and the
CLI before writing a file) run exports through: required keys per
event phase, non-negative timestamps and durations, and proper
nesting per (pid, tid) lane — slices may contain each other but never
partially overlap.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .trace import Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..cluster.report import ClusterReport
    from ..serve.engine import RuntimeReport

__all__ = [
    "spans_to_chrome",
    "runtime_timeline",
    "cluster_timeline",
    "validate_chrome_trace",
    "write_chrome_trace",
]

_US = 1e6  # trace-event timestamps are microseconds


def _meta(pid: int, name: str, tid: int | None = None,
          thread_name: str | None = None) -> list[dict[str, Any]]:
    events: list[dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": name},
    }]
    if tid is not None:
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": thread_name or f"lane {tid}"},
        })
    return events


def spans_to_chrome(root: Span,
                    process_name: str | None = None) -> list[dict[str, Any]]:
    """One span tree as nested complete events on a single lane
    (process 0, thread 0).

    Timestamps are re-based to the root span's start so wall-clock
    (``perf_counter``) trees begin at t=0. Single-lane means the tree
    must be sequential — sibling spans may not overlap in time, which
    a :class:`~.trace.Tracer` guarantees by construction. Concurrent
    simulated runs (overlapping requests, parallel coprocessors) are
    exported with :func:`runtime_timeline` / :func:`cluster_timeline`
    instead, which spread jobs over per-coprocessor lanes.

    The one sanctioned source of concurrency in a functional trace is
    the parallel executor: tile spans carry a ``worker`` attribute and
    overlap each other across workers. Each distinct worker gets its
    own thread lane (named after the worker) so the main lane stays
    sequential and every worker lane is sequential by construction —
    a pool worker runs its tiles one at a time.
    """
    base = root.start
    events = _meta(0, process_name or root.name, 0, f"{root.clock} clock")
    worker_tids: dict[str, int] = {}
    for span in root.walk():
        lane = 0
        worker = span.attrs.get("worker")
        if worker is not None:
            label = str(worker)
            if label not in worker_tids:
                worker_tids[label] = 1 + len(worker_tids)
                events.extend(_meta(0, process_name or root.name,
                                    worker_tids[label], label)[1:])
            lane = worker_tids[label]
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.kind,
            "ts": max(0.0, (span.start - base) * _US),
            "dur": span.duration * _US,
            "pid": 0,
            "tid": lane,
            "args": _json_safe(span.attrs),
        })
    return events


def _json_safe(attrs: dict[str, Any]) -> dict[str, Any]:
    return json.loads(json.dumps(attrs, default=str))


def runtime_timeline(report: RuntimeReport, pid: int = 0,
                     name: str = "runtime") -> list[dict[str, Any]]:
    """A simulated run as per-coprocessor lanes plus a queue counter.

    Jobs dispatched in one DMA train share a start/finish interval;
    they render stacked inside the same slice bounds, which is exactly
    the batching structure the timeline should show. The queue-depth
    counter track is the report's queue-depth trace.
    """
    lanes = sorted({r.coprocessor for r in report.results})
    events: list[dict[str, Any]] = _meta(pid, name)
    for lane in lanes:
        events.extend(_meta(pid, name, lane, f"coprocessor {lane}")[1:])
    for result in report.results:
        job = result.job
        events.append({
            "ph": "X",
            "name": f"{job.kind.name.lower()}#{job.index}",
            "cat": "job",
            "ts": result.start_seconds * _US,
            "dur": max(0.0, result.finish_seconds * _US
                       - result.start_seconds * _US),
            "pid": pid,
            "tid": result.coprocessor,
            "args": {
                "tenant": job.tenant,
                "kind": job.kind.name,
                "arrival_seconds": job.arrival_seconds,
                "latency_seconds": result.latency_seconds,
            },
        })
    for now, depth in report.queue_depth_trace:
        events.append({
            "ph": "C",
            "name": "queue_depth",
            "ts": max(0.0, now * _US),
            "pid": pid,
            "tid": 0,
            "args": {"depth": depth},
        })
    return events


def cluster_timeline(report: ClusterReport) -> list[dict[str, Any]]:
    """A multi-shard run: one trace process per shard."""
    events: list[dict[str, Any]] = []
    for pid, (shard_name, shard_report) in enumerate(
            zip(report.shard_names, report.shard_reports, strict=True)):
        events.extend(runtime_timeline(shard_report, pid=pid,
                                       name=shard_name))
    return events


def validate_chrome_trace(events: list[dict[str, Any]] | dict[str, Any],
                          ) -> bool:
    """Check an export against the trace-event schema; raise on failure.

    Enforces what a viewer needs to render sanely: every event has a
    phase; complete events carry name/ts/dur/pid/tid with non-negative
    times; and within each (pid, tid) lane slices nest — an event
    either contains its successor or is disjoint from it, never a
    partial overlap.
    """
    if isinstance(events, dict):
        events = events.get("traceEvents", [])
    slices: dict[tuple[Any, Any], list[tuple[float, float]]] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict) or "ph" not in event:
            raise ValueError(f"event {i}: not a trace event (missing 'ph')")
        ph = event["ph"]
        if ph == "M":
            if "name" not in event or "pid" not in event:
                raise ValueError(f"event {i}: metadata needs name and pid")
            continue
        for key in ("name", "ts", "pid"):
            if key not in event:
                raise ValueError(f"event {i} ({ph}): missing {key!r}")
        if event["ts"] < 0:
            raise ValueError(f"event {i}: negative timestamp {event['ts']}")
        if ph == "C":
            continue
        if ph != "X":
            raise ValueError(f"event {i}: unsupported phase {ph!r}")
        if "dur" not in event or "tid" not in event:
            raise ValueError(f"event {i}: complete event needs dur and tid")
        if event["dur"] < 0:
            raise ValueError(f"event {i}: negative duration {event['dur']}")
        slices.setdefault((event["pid"], event["tid"]), []).append(
            (event["ts"], event["ts"] + event["dur"])
        )
    # Nesting: sweep each lane in (start asc, end desc) order with a
    # stack of open intervals; a slice starting inside an open interval
    # must also end inside it. The tolerance absorbs the last-ulp
    # jitter of seconds-to-microseconds scaling (~1e-12 us on adjacent
    # slices) without masking any real overlap.
    eps = 1e-6
    for lane, intervals in slices.items():
        intervals.sort(key=lambda se: (se[0], -se[1]))
        stack: list[tuple[float, float]] = []
        for start, end in intervals:
            while stack and stack[-1][1] <= start + eps:
                stack.pop()
            if stack and end > stack[-1][1] + eps:
                raise ValueError(
                    f"lane {lane}: slice [{start}, {end}] partially "
                    f"overlaps open slice {stack[-1]}"
                )
            stack.append((start, end))
    return True


def write_chrome_trace(path: str | Path,
                       events: list[dict[str, Any]]) -> Path:
    """Validate and write one export as a Perfetto-loadable JSON file."""
    validate_chrome_trace(events)
    path = Path(path)
    path.write_text(json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}, indent=None,
        separators=(",", ":"),
    ) + "\n")
    return path
