"""The process-wide metrics registry: counters, gauges, histograms.

Before this module existed the repo's counters were bare module
globals (``TRANSFORM_STATS`` in :mod:`repro.nttmath.batch`): one
backend resetting the transform counters silently corrupted every
other backend's telemetry in the same process, and tests had to be
careful not to observe each other. The registry holds process-level
engine facts that have no other record (transforms, parallel
dispatch, decrypt-guard fallbacks); what one run did is recorded by
that run's report, not copied here.

The registry fixes the sharing model, not just the bookkeeping:

* **Instruments are declared once, values live per registry.** A
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` object is a
  lightweight handle; constructing it registers the instrument in a
  process-wide catalogue. Every
  ``inc``/``set``/``observe`` resolves :func:`current_registry` *at
  call time*, so the same instrument writes to whichever registry is
  active.
* **Scoped contexts.** :func:`scoped_metrics` installs a fresh (or
  caller-supplied) registry for the duration of a ``with`` block —
  the pytest fixture in ``tests/conftest.py`` wraps every test in one,
  and concurrent backends can isolate their counter planes the same
  way. The context variable makes the scope thread- and task-local.
* **Read.** :meth:`MetricsRegistry.value` reads one counter or gauge
  series of one registry; a fresh scope starts from zero.
* **Exposition.** :func:`render_prometheus` serialises a registry in
  the Prometheus text format, ``# HELP`` / ``# TYPE`` comments
  included.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "current_registry",
    "scoped_metrics",
    "render_prometheus",
]

#: Ordered (label, value) pairs — the hashable identity of one series.
LabelKey = tuple[tuple[str, str], ...]

@dataclass(frozen=True)
class InstrumentSpec:
    """One declared instrument: its identity across every registry."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    label_names: tuple[str, ...] = ()
    buckets: tuple[float, ...] = ()


_CATALOG: dict[str, InstrumentSpec] = {}
_CATALOG_LOCK = threading.Lock()


def _register(spec: InstrumentSpec) -> InstrumentSpec:
    with _CATALOG_LOCK:
        existing = _CATALOG.get(spec.name)
        if existing is not None:
            if existing != spec:
                raise ValueError(
                    f"instrument {spec.name!r} already registered with a "
                    f"different spec ({existing.kind}, labels "
                    f"{existing.label_names})"
                )
            return existing
        _CATALOG[spec.name] = spec
        return spec


def _label_key(label_names: tuple[str, ...],
               labels: dict[str, object]) -> LabelKey:
    if tuple(sorted(labels)) != tuple(sorted(label_names)):
        raise ValueError(
            f"expected labels {label_names}, got {tuple(sorted(labels))}"
        )
    return tuple((name, str(labels[name])) for name in label_names)


def series_name(name: str, key: LabelKey) -> str:
    """Exposition-style series id: ``name{label="value",...}``."""
    if not key:
        return name
    inner = ",".join(f'{label}="{value}"' for label, value in key)
    return f"{name}{{{inner}}}"


@dataclass
class _HistogramData:
    """Mutable state of one histogram series."""

    buckets: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)  # +Inf tail

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """One isolated plane of metric values.

    Values are keyed ``(instrument name, label key)``; the instrument
    metadata (kind, help, label names) lives in the process-wide
    catalogue so every registry renders the same schema. All methods
    are thread-safe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelKey], float] = {}
        self._gauges: dict[tuple[str, LabelKey], float] = {}
        self._histograms: dict[tuple[str, LabelKey], _HistogramData] = {}

    # -- mutation (called through the instrument handles) ------------------------------

    def _add(self, name: str, key: LabelKey, amount: float) -> None:
        with self._lock:
            slot = (name, key)
            self._counters[slot] = self._counters.get(slot, 0.0) + amount

    def _set(self, name: str, key: LabelKey, value: float) -> None:
        with self._lock:
            self._gauges[(name, key)] = value

    def _observe(self, name: str, key: LabelKey, value: float,
                 buckets: tuple[float, ...]) -> None:
        with self._lock:
            slot = (name, key)
            data = self._histograms.get(slot)
            if data is None:
                data = self._histograms[slot] = _HistogramData(buckets)
            data.observe(value)

    # -- reads -------------------------------------------------------------------------

    def value(self, name: str, **labels: object) -> float:
        """Current value of one counter/gauge series (0.0 if unseen)."""
        spec = _CATALOG.get(name)
        label_names = spec.label_names if spec else tuple(sorted(labels))
        key = _label_key(label_names, labels)
        with self._lock:
            if (name, key) in self._counters:
                return self._counters[(name, key)]
            return self._gauges.get((name, key), 0.0)


# -- the active-registry context ------------------------------------------------------

_DEFAULT_REGISTRY = MetricsRegistry()
_ACTIVE: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_metrics_registry", default=None
)


def current_registry() -> MetricsRegistry:
    """The registry instrument writes resolve against right now."""
    active = _ACTIVE.get()
    return _DEFAULT_REGISTRY if active is None else active


@contextmanager
def scoped_metrics():
    """Install a fresh registry for the ``with`` block.

    Everything recorded inside the block — by this thread/task and by
    anything it calls — lands in the scoped registry and becomes
    invisible to the enclosing scope when the block exits. This is
    the isolation primitive: the per-test pytest fixture, and any
    backend that must not stomp a sibling's counters, wrap their work
    in one.
    """
    scoped = MetricsRegistry()
    token = _ACTIVE.set(scoped)
    try:
        yield scoped
    finally:
        _ACTIVE.reset(token)


# -- instrument handles ---------------------------------------------------------------


class Counter:
    """Monotone counter handle. Constructing it declares the instrument
    in the process-wide catalogue (or re-fetches the same declaration);
    its values live in the current registry, as every handle's do."""

    def __init__(self, name: str, help: str,
                 labels: tuple[str, ...] = ()) -> None:
        self.spec = _register(InstrumentSpec(name, "counter", help,
                                             tuple(labels)))

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        current_registry()._add(
            self.spec.name, _label_key(self.spec.label_names, labels),
            amount,
        )

    def value(self, **labels: object) -> float:
        return current_registry().value(self.spec.name, **labels)


class Gauge:
    """Set-to-current-value handle (queue depths, cache occupancy)."""

    def __init__(self, name: str, help: str,
                 labels: tuple[str, ...]) -> None:
        self.spec = _register(InstrumentSpec(name, "gauge", help,
                                             tuple(labels)))

    def set(self, value: float, **labels: object) -> None:
        current_registry()._set(
            self.spec.name, _label_key(self.spec.label_names, labels),
            float(value),
        )

    def value(self, **labels: object) -> float:
        return current_registry().value(self.spec.name, **labels)


class Histogram:
    """Bucketed distribution handle (latencies, batch sizes), unlabelled;
    ``buckets`` are its upper bounds."""

    def __init__(self, name: str, help: str,
                 buckets: tuple[float, ...]) -> None:
        self.spec = _register(InstrumentSpec(name, "histogram", help,
                                             buckets=tuple(buckets)))

    def observe(self, value: float) -> None:
        current_registry()._observe(self.spec.name, (), float(value),
                                    self.spec.buckets)


# -- exposition ----------------------------------------------------------------------


def _sample(value: float) -> str:
    """A sample value, exactly: integral values as integers, the rest
    as the shortest repr that round-trips."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """Prometheus text exposition of one registry (default: current).

    Series are grouped per instrument under ``# HELP`` / ``# TYPE``
    headers; instruments with no recorded series are omitted, so the
    exposition shows exactly what this registry observed.
    """
    registry = registry if registry is not None else current_registry()
    with registry._lock:
        counters = dict(registry._counters)
        gauges = dict(registry._gauges)
        histograms = {
            slot: (data.buckets, tuple(data.counts), data.total, data.count)
            for slot, data in registry._histograms.items()
        }
    lines: list[str] = []
    seen: set[str] = set()

    def header(name: str, kind: str) -> None:
        if name in seen:
            return
        seen.add(name)
        spec = _CATALOG.get(name)
        if spec is not None and spec.help:
            lines.append(f"# HELP {name} {spec.help}")
        lines.append(f"# TYPE {name} {kind}")

    for (name, key), value in sorted(counters.items()):
        header(name, "counter")
        lines.append(f"{series_name(name, key)} {_sample(value)}")
    for (name, key), value in sorted(gauges.items()):
        header(name, "gauge")
        lines.append(f"{series_name(name, key)} {_sample(value)}")
    for (name, key), (buckets, counts, total, count) in sorted(
            histograms.items()):
        header(name, "histogram")
        cumulative = 0
        for bound, bucket in zip(buckets, counts[:-1], strict=True):
            cumulative += bucket
            bucket_key = key + (("le", f"{bound:g}"),)
            lines.append(
                f"{series_name(name + '_bucket', bucket_key)} {cumulative}"
            )
        inf_key = key + (("le", "+Inf"),)
        lines.append(f"{series_name(name + '_bucket', inf_key)} {count}")
        lines.append(f"{series_name(name + '_sum', key)} {_sample(total)}")
        lines.append(f"{series_name(name + '_count', key)} {count}")
    return "\n".join(lines) + ("\n" if lines else "")
