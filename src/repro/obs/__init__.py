"""Unified observability: metrics registry, request tracing, timelines.

The stack's signals come in two shapes, each fact with one writer:
process-level engine facts that have no other record (the transform
counters in :mod:`repro.nttmath.batch`, parallel dispatch, decrypt-guard
fallbacks), and the record of a run (a board's
:class:`~repro.serve.engine.RuntimeReport`, a cluster's
:class:`~repro.cluster.report.ClusterReport` with its
:class:`~repro.faults.FailureReport`, an optimiser's
:class:`~repro.optim.stats.OptimizationReport`, a
:class:`~repro.api.simulated.SimulatedRun`'s resident-operand counts).
The registry holds the first and never copies the second. This package
is the substrate the counters report through and the exporter of the
records:

* :mod:`~repro.obs.registry` — a process-wide **metrics registry**
  (counters, gauges, histograms with labels) with read/reset
  semantics, a Prometheus-style text exposition, and
  :func:`scoped_metrics`, the context manager that gives each test or
  concurrent backend its own counter plane instead of a shared
  mutable global;
* :mod:`~repro.obs.trace` — **request tracing**: a :class:`Span` tree
  propagated from ``Session`` / ``HEProgram`` execution through both
  backends down to individual engine transform calls, reduced by
  :class:`TraceReport` into per-op rollups and a critical path over
  the program DAG;
* :mod:`~repro.obs.timeline` — **timeline export**: spans and
  simulated runtime/cluster reports serialised to Chrome trace-event
  JSON (loadable in Perfetto / ``chrome://tracing``) plus a validator
  the tests gate exports on.

Everything here is dependency-free (stdlib only) so the hot paths in
:mod:`repro.nttmath` can import it without cycles.
"""

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    current_registry,
    gauge,
    histogram,
    render_prometheus,
    scoped_metrics,
)
from .timeline import (
    cluster_timeline,
    runtime_timeline,
    spans_to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from .trace import (
    Span,
    TraceReport,
    Tracer,
    active_tracer,
    maybe_span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "current_registry",
    "scoped_metrics",
    "render_prometheus",
    "Span",
    "Tracer",
    "TraceReport",
    "active_tracer",
    "maybe_span",
    "spans_to_chrome",
    "runtime_timeline",
    "cluster_timeline",
    "validate_chrome_trace",
    "write_chrome_trace",
]
