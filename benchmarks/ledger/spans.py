"""The harness's own in-memory span recorder.

Spans are recorded from the benchmark's files, around the calls into
each layer; the op / phase / ``ntt.*`` spans ``LocalBackend.run`` already
publishes on ``ProgramResult.trace`` are adopted under the harness's
``api.run`` span (both clocks are ``time.perf_counter``). Nothing is
written until :meth:`Recorder.dump`; a span's self time is its duration
minus the part its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


def no_span(name, **attrs):
    """The untraced pass's stand-in for :meth:`Recorder.span`."""
    return nullcontext()


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "request": self.request, "start": time.perf_counter(),
                  "end": None, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, root, parent: dict) -> None:
        """Graft a ``repro.obs`` span tree's children under ``parent``.

        Per-tile spans of a parallel dispatch are left out: they run
        side by side, so they do not partition their parent's interval.
        """
        for child in root.children:
            if child.kind == "tile":
                continue
            record = {"id": len(self.spans),
                      "name": (child.name if child.kind == "transform"
                               else f"{child.kind}.{child.name}"),
                      "parent": parent["id"], "request": self.request,
                      "start": child.start, "end": child.end, "attrs": {}}
            self.spans.append(record)
            self.adopt(child, record)

    def dump(self, path, workload: str) -> None:
        with open(path, "w") as handle:
            json.dump({"workload": workload, "clock": "perf_counter",
                       "spans": self.spans}, handle)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    covered: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = (covered.get(span["parent"], 0.0)
                                       + duration(span))
    return {s["id"]: duration(s) - covered.get(s["id"], 0.0) for s in spans}


def validate(spans: list[dict]) -> list[str]:
    """Structural problems of a span list (empty when well-formed):
    every span closed, children inside their parents, and every span of
    one request tree carrying that request's id."""
    problems: list[str] = []
    by_id = {s["id"]: s for s in spans}
    slack = 1e-6
    for span in spans:
        if span["end"] is None or span["end"] < span["start"]:
            problems.append(f"span {span['id']} ({span['name']}) not closed")
            continue
        parent = by_id.get(span["parent"])
        if span["parent"] is not None and parent is None:
            problems.append(f"span {span['id']} has no parent record")
        elif parent is not None:
            if (span["start"] < parent["start"] - slack
                    or span["end"] > parent["end"] + slack):
                problems.append(
                    f"span {span['id']} ({span['name']}) leaves its parent"
                )
            if span["request"] != parent["request"]:
                problems.append(
                    f"span {span['id']} changes request id under its parent"
                )
    roots = [s for s in spans if s["parent"] is None]
    ids = [s["request"] for s in roots]
    if len(set(ids)) != len(ids) or None in ids:
        problems.append("request roots do not carry one id each")
    return problems
