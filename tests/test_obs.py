"""The observability layer: registry, tracing, timeline export.

Covers the :mod:`repro.obs` substrate itself (scoped registries,
span trees, Chrome trace validation) plus the ISSUE's acceptance
criterion: a Mult-heavy program run on both backends yields a
TraceReport whose per-op transform counts reconcile exactly with the
registry's counter diff, and both exports validate against the
trace-event schema.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import LocalBackend, Session, SimulatedBackend
from repro.cli import main
from repro.nttmath.batch import TRANSFORM_COUNTER, transform_counts
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    Span,
    TraceReport,
    Tracer,
    active_tracer,
    cluster_timeline,
    current_registry,
    maybe_span,
    render_prometheus,
    scoped_metrics,
    spans_to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.serve.telemetry import LatencySummary
from scaffolding import exposed_series, spans_of
from test_cluster import cluster_of, shard_record


def mult_tree_program(session: Session):
    """A Mult-heavy balanced product tree: (a*b)*(c*d) + a*b."""
    leaves = [session.encrypt([i + 1, i + 2]) for i in range(4)]
    t0 = leaves[0] * leaves[1]
    t1 = leaves[2] * leaves[3]
    return session.compile(t0 * t1 + t0, name="mult-tree")


# -- metrics registry ------------------------------------------------------------------


class TestRegistry:
    def test_counter_labels_and_value(self):
        c = Counter("test_obs_events_total", "events", labels=("kind",))
        c.inc(kind="a")
        c.inc(2, kind="a")
        c.inc(5, kind="b")
        assert c.value(kind="a") == 3
        assert c.value(kind="b") == 5
        assert c.value(kind="unseen") == 0.0

    def test_counter_rejects_negative(self):
        c = Counter("test_obs_neg_total", "monotone")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_label_mismatch_rejected(self):
        c = Counter("test_obs_lbl_total", "labelled", labels=("kind",))
        with pytest.raises(ValueError):
            c.inc(1)  # missing the declared label
        with pytest.raises(ValueError):
            c.inc(1, kind="x", extra="y")

    def test_conflicting_registration_rejected(self):
        Counter("test_obs_clash_total", "first", labels=("a",))
        with pytest.raises(ValueError):
            Gauge("test_obs_clash_total", "different kind", labels=("a",))

    def test_scoped_registry_isolates(self):
        c = Counter("test_obs_scope_total", "scoped")
        c.inc(1)
        outer = current_registry()
        with scoped_metrics() as inner:
            assert current_registry() is inner
            assert c.value() == 0.0  # fresh plane
            c.inc(10)
            assert c.value() == 10
        assert current_registry() is outer
        assert c.value() == 1  # inner writes never leaked out

    def test_each_scope_starts_fresh(self):
        c = Counter("test_obs_fresh_total", "fresh")
        with scoped_metrics() as first:
            c.inc(7)
        with scoped_metrics() as second:
            assert second is not first
            assert c.value() == 0.0  # nothing carried over
        assert first.value("test_obs_fresh_total") == 7

    def test_gauge_sets_current_value(self):
        g = Gauge("test_obs_depth", "depth", labels=())
        g.set(3)
        g.set(1.5)
        assert g.value() == 1.5

    def test_histogram_series(self):
        h = Histogram("test_obs_lat", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)  # lands in +Inf
        snap = exposed_series()
        assert snap["test_obs_lat_count"] == 3
        assert snap["test_obs_lat_sum"] == pytest.approx(5.55)
        assert snap['test_obs_lat_bucket{le="0.1"}'] == 1
        assert snap['test_obs_lat_bucket{le="1"}'] == 2
        assert snap['test_obs_lat_bucket{le="+Inf"}'] == 3

    def test_prometheus_exposition(self):
        c = Counter("test_obs_prom_total", "help text", labels=("kind",))
        c.inc(2, kind="x")
        g = Gauge("test_obs_prom_depth", "queue depth", labels=())
        g.set(4)
        text = render_prometheus()
        assert "# HELP test_obs_prom_total help text" in text
        assert "# TYPE test_obs_prom_total counter" in text
        assert 'test_obs_prom_total{kind="x"} 2' in text
        assert "# TYPE test_obs_prom_depth gauge" in text
        assert "test_obs_prom_depth 4" in text

    def test_prometheus_histogram_cumulative_buckets(self):
        h = Histogram("test_obs_prom_hist", "hist", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        text = render_prometheus()
        assert 'test_obs_prom_hist_bucket{le="1"} 1' in text
        assert 'test_obs_prom_hist_bucket{le="2"} 2' in text
        assert 'test_obs_prom_hist_bucket{le="+Inf"} 2' in text
        assert "test_obs_prom_hist_count 2" in text

    def test_prometheus_samples_are_exact(self):
        c = Counter("test_obs_prom_big_total", "big")
        c.inc(1234567)
        h = Histogram("test_obs_prom_big_hist", "big sum", buckets=(1.0,))
        h.observe(1234567.891)
        text = render_prometheus().splitlines()
        assert "test_obs_prom_big_total 1234567" in text
        assert "test_obs_prom_big_hist_sum 1234567.891" in text

    def test_catalogue_is_the_engine_facts(self):
        """Every instrument ``repro`` declares, across all its modules.

        The registry holds process-level engine facts with no other
        record; what a run did lives in its report. A new instrument
        must be added here on purpose.
        """
        script = (
            "import importlib, pkgutil, repro\n"
            "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(m.name)\n"
            "from repro.obs.registry import _CATALOG\n"
            "print(' '.join(sorted(_CATALOG)))\n"
        )
        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True,
                             env=env).stdout
        assert out.split() == [
            "parallel_dispatch_total",
            "parallel_tiles_per_dispatch",
            "parallel_worker_utilisation",
            "repro_decrypt_guard_fallbacks_total",
            "repro_ntt_transforms_total",
        ]


# -- span trees and reports ------------------------------------------------------------


class TestTracer:
    def test_span_nesting_and_walk_order(self):
        tracer = Tracer()
        with tracer.span("outer", kind="op"), \
                tracer.span("inner", kind="transform"):
            pass
        root = tracer.finish()
        names = [s.name for s in root.walk()]
        assert names == ["heprogram.run", "outer", "inner"]
        assert root.children[0].children[0].name == "inner"
        assert all(s.duration >= 0 for s in root.walk())
        assert root.start <= root.children[0].start
        assert root.children[0].end <= root.end

    def test_live_span_attrs(self):
        tracer = Tracer()
        with tracer.span("op", kind="op", op="MULTIPLY") as sp:
            sp.attrs["transforms"] = {"forward_rows": 3}
        report = tracer.report()
        (op,) = report.op_spans()
        assert op.attrs["transforms"] == {"forward_rows": 3}

    def test_maybe_span_noop_without_tracer(self):
        assert active_tracer() is None
        with maybe_span("ntt.forward", rows=4) as sp:
            assert sp is None

    def test_maybe_span_attaches_to_active_tracer(self):
        tracer = Tracer()
        with tracer.activate():
            assert active_tracer() is tracer
            with maybe_span("ntt.forward", rows=4) as sp:
                assert sp is not None
        assert active_tracer() is None
        (t,) = spans_of(tracer.report(), "transform")
        assert t.name == "ntt.forward" and t.attrs["rows"] == 4

    def test_add_records_sim_interval(self):
        tracer = Tracer()
        tracer.add("job", "job", start=1.0, end=3.0, coprocessor=0)
        (job,) = spans_of(tracer.report(), "job")
        assert job.clock == "sim"
        assert job.duration == 2.0

    def test_rollup_groups_by_op(self):
        root = Span("run", kind="program", start=0, end=10)
        root.children = [
            Span("multiply", kind="op", start=0, end=4,
                 attrs={"op": "MULTIPLY", "bytes_moved": 100,
                        "transforms": {"forward_rows": 6,
                                       "forward_calls": 2}}),
            Span("multiply", kind="op", start=4, end=6,
                 attrs={"op": "MULTIPLY", "bytes_moved": 100}),
            Span("add", kind="op", start=6, end=7, attrs={"op": "ADD"}),
        ]
        rollup = TraceReport(root).rollup()
        assert rollup["MULTIPLY"]["count"] == 2
        assert rollup["MULTIPLY"]["seconds"] == pytest.approx(6.0)
        assert rollup["MULTIPLY"]["transform_rows"] == 6
        assert rollup["MULTIPLY"]["transform_calls"] == 2
        assert rollup["MULTIPLY"]["bytes_moved"] == 200
        assert rollup["ADD"]["count"] == 1

    def test_transform_totals_skip_nested_transform_spans(self):
        # The op span's diff already covers its nested engine span;
        # counting both would double the rows.
        op = Span("multiply", kind="op", start=0, end=2,
                  attrs={"transforms": {"forward_rows": 6}})
        op.children = [Span("ntt.forward", kind="transform", start=0,
                            end=1, attrs={"rows": 6})]
        root = Span("run", kind="program", start=0, end=2,
                    children=[op])
        assert TraceReport(root).transform_totals() == {"forward_rows": 6}

    def test_critical_path_follows_longest_chain(self):
        # Diamond: 0 -> (1 slow, 2 fast) -> 3; the path goes via 1.
        mk = lambda name, node, deps, start, end: Span(  # noqa: E731
            name, kind="op", start=start, end=end,
            attrs={"op": name, "node": node, "deps": deps},
        )
        root = Span("run", kind="program", start=0, end=10, children=[
            mk("a", 10, (), 0, 1),
            mk("slow", 11, (10,), 1, 5),
            mk("fast", 12, (10,), 1, 2),
            mk("join", 13, (11, 12), 5, 6),
        ])
        report = TraceReport(root)
        assert [s.name for s in report.critical_path()] \
            == ["a", "slow", "join"]
        assert report.critical_path_seconds() == pytest.approx(6.0)

    def test_critical_path_empty_without_ops(self):
        report = TraceReport(Span("run", kind="program"))
        assert report.critical_path() == []
        assert report.critical_path_seconds() == 0.0


# -- chrome trace export and validation ------------------------------------------------


class TestTimeline:
    def test_tracer_tree_exports_and_validates(self):
        tracer = Tracer()
        with tracer.span("op", kind="op", op="MULTIPLY"), \
                tracer.span("ntt.forward", kind="transform"):
            pass
        events = spans_to_chrome(tracer.finish())
        assert validate_chrome_trace(events)
        slices = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in slices] == [
            "heprogram.run", "op", "ntt.forward"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in slices)

    def test_validator_rejects_negative_duration(self):
        events = [{"ph": "X", "name": "bad", "ts": 0.0, "dur": -1.0,
                   "pid": 0, "tid": 0}]
        with pytest.raises(ValueError, match="negative duration"):
            validate_chrome_trace(events)

    def test_validator_rejects_partial_overlap(self):
        events = [
            {"ph": "X", "name": "a", "ts": 0.0, "dur": 10.0,
             "pid": 0, "tid": 0},
            {"ph": "X", "name": "b", "ts": 5.0, "dur": 10.0,
             "pid": 0, "tid": 0},
        ]
        with pytest.raises(ValueError, match="partially"):
            validate_chrome_trace(events)

    def test_validator_allows_disjoint_and_nested(self):
        events = [
            {"ph": "X", "name": "a", "ts": 0.0, "dur": 10.0,
             "pid": 0, "tid": 0},
            {"ph": "X", "name": "nested", "ts": 2.0, "dur": 3.0,
             "pid": 0, "tid": 0},
            {"ph": "X", "name": "later", "ts": 20.0, "dur": 1.0,
             "pid": 0, "tid": 0},
            # A different lane may overlap lane 0 freely.
            {"ph": "X", "name": "other", "ts": 5.0, "dur": 100.0,
             "pid": 0, "tid": 1},
        ]
        assert validate_chrome_trace(events)

    def test_validator_rejects_missing_phase(self):
        with pytest.raises(ValueError, match="missing 'ph'"):
            validate_chrome_trace([{"name": "x"}])

    @pytest.mark.parametrize("event, match", [
        ({"ph": "M", "name": "process_name"}, "metadata needs"),
        ({"ph": "X", "name": "x", "pid": 0, "dur": 1.0, "tid": 0},
         "missing 'ts'"),
        ({"ph": "C", "name": "x", "ts": -1.0, "pid": 0},
         "negative timestamp"),
        ({"ph": "B", "name": "x", "ts": 0.0, "pid": 0}, "unsupported phase"),
        ({"ph": "X", "name": "x", "ts": 0.0, "pid": 0}, "needs dur and tid"),
    ], ids=["metadata", "timestamp", "negative-ts", "phase", "duration"])
    def test_validator_rejects_malformed_event(self, event, match):
        with pytest.raises(ValueError, match=match):
            validate_chrome_trace({"traceEvents": [event]})

    def test_write_chrome_trace_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("op", kind="op"):
            pass
        path = write_chrome_trace(tmp_path / "t.json",
                                  spans_to_chrome(tracer.finish()))
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert validate_chrome_trace(data)


# -- report edge cases (satellite) -----------------------------------------------------


def _queue_tracks(events):
    tracks: dict[int, list[tuple[float, int]]] = {}
    for event in events:
        if event["ph"] == "C":
            tracks.setdefault(event["pid"], []).append(
                (event["ts"] / 1e6, event["args"]["depth"]))
    return tracks


class TestTelemetryEdges:
    def test_merged_empty_is_valid(self):
        report = cluster_of()
        assert report.results == []
        assert report.latency_summary().count == 0
        events = cluster_timeline(report)
        assert events == []
        assert validate_chrome_trace(events)

    def test_merged_disjoint_parts(self):
        a = shard_record([("gold", 0.1)], queue_depth_trace=[(0.0, 2)])
        b = shard_record([("silver", 0.3)], coprocessors=2, busy=2.0,
                         sla_violations=1, queue_depth_trace=[(1.0, 4)])
        report = cluster_of(a, b)
        assert [r.latency_seconds for r in report.results] == [0.1, 0.3]
        assert report.latency_summary("gold") == LatencySummary.of([0.1])
        assert report.latency_summary("silver") == LatencySummary.of([0.3])
        assert report.sla_violations == 1
        # Each shard's busy time over the shared 0.3 s window, capped.
        assert report.utilization_by_shard() == [1.0, 0.5]
        events = cluster_timeline(report)
        assert validate_chrome_trace(events)
        assert _queue_tracks(events) == {0: [(0.0, 2)], 1: [(1.0, 4)]}

    def test_merged_with_idle_shard(self):
        busy = shard_record([("t", 0.2)])
        idle = shard_record([], busy=0.0)
        report = cluster_of(busy, idle)
        assert report.latency_summary().count == 1
        assert report.utilization_by_shard() == [1.0, 0.0]
        assert report.imbalance() == 2.0
        events = cluster_timeline(report)
        assert validate_chrome_trace(events)
        assert not [e for e in events if e["pid"] == 1 and e["ph"] != "M"]

    def test_latency_summary_single_sample(self):
        summary = LatencySummary.of([0.25])
        assert summary.count == 1
        assert summary.mean == summary.p50 == summary.p95 \
            == summary.p99 == summary.max == 0.25

    def test_zero_op_program_traces_cleanly(self, toy_params):
        # A program that is just an input: no lowered ops at all.
        session = Session(toy_params, seed=5)
        handle = session.encrypt([1, 2, 3])
        program = session.compile(handle, name="identity")
        assert program.num_ops == 0
        result = LocalBackend(session).run(program)
        trace = result.trace
        assert trace.op_spans() == []
        assert trace.rollup() == {}
        assert trace.critical_path() == []
        events = spans_to_chrome(trace.root)
        assert validate_chrome_trace(events)


# -- the acceptance criterion ----------------------------------------------------------


class TestAcceptance:
    def test_local_backend_trace_reconciles_with_registry(self,
                                                          toy_params):
        session = Session(toy_params, seed=11)
        program = mult_tree_program(session)
        backend = LocalBackend(session)
        before = exposed_series()
        result = backend.run(program)
        after = exposed_series()

        trace = result.trace
        assert trace is backend.last_trace
        totals = trace.transform_totals()
        assert totals  # a Mult-heavy program must transform

        # The per-op sums must equal the registry's counter diff and
        # the run-level counter window, exactly.
        name = TRANSFORM_COUNTER.spec.name
        registry_diff = {
            series.split('kind="')[1].rstrip('"}'):
                int(value - before.get(series, 0.0))
            for series, value in after.items()
            if series.startswith(name + "{")
            and value != before.get(series, 0.0)
        }
        assert totals == registry_diff
        assert totals == {k: v
                          for k, v in backend.last_transform_counts.items()
                          if v}

        # Every MULTIPLY is an op span with node/deps for the DAG.
        rollup = trace.rollup()
        assert rollup["MULTIPLY"]["count"] == 3
        assert rollup["MULTIPLY"]["bytes_moved"] > 0
        path = trace.critical_path()
        assert path, "mult tree has a non-trivial critical path"
        assert trace.critical_path_seconds() <= trace.total_seconds

        # And the functional export validates against the schema.
        assert validate_chrome_trace(spans_to_chrome(trace.root))

    def test_simulated_backend_trace_and_timeline(self, toy_params):
        session = Session(toy_params, seed=11)
        program = mult_tree_program(session)
        backend = SimulatedBackend.over_runtime(toy_params)
        run = backend.run(program, requests=3, seed=0)
        assert len(run.completed) == 3

        trace = run.trace()
        assert trace.root.clock == "sim"
        requests = spans_of(trace, "request")
        assert len(requests) == 3
        ops = trace.op_spans()
        assert len(ops) == 3 * program.num_ops
        assert all(s.clock == "sim" and s.duration >= 0 for s in ops)
        # Futures carry their own request span.
        assert all(f.trace in requests for f in run.futures)

        events = run.timeline()
        assert validate_chrome_trace(events)
        job_slices = [e for e in events if e["ph"] == "X"]
        assert len(job_slices) == 3 * program.num_ops


# -- the CLI surface -------------------------------------------------------------------


class TestTraceCli:
    def test_trace_command_writes_valid_exports(self, tmp_path, capsys):
        assert main(["trace", "mult", "--out", str(tmp_path),
                     "--requests", "5"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert "(OK)" in out
        assert "# TYPE repro_ntt_transforms_total counter" in out
        for stem in ("mult_functional", "mult_simulated"):
            data = json.loads((tmp_path / f"{stem}.json").read_text())
            assert validate_chrome_trace(data)
            assert data["traceEvents"], stem


# -- transform counters through the registry -------------------------------------------


class TestTransformCounters:
    def test_counts_resolve_against_active_registry(self, toy_context,
                                                    toy_keys):
        # The autouse fixture scopes this test; a nested scope must
        # see zeros while the outer counts stay put.
        from repro.nttmath.batch import basis_transformer

        outer_before = transform_counts()
        transformer = basis_transformer(
            toy_context.q_basis.primes, toy_context.params.n)
        rows = toy_context.q_basis.size
        import numpy as np

        values = np.ones((rows, toy_context.params.n), dtype=np.int64)
        transformer.forward(values)
        outer = transform_counts()
        assert outer["forward_rows"] \
            == outer_before["forward_rows"] + rows
        with scoped_metrics():
            assert transform_counts()["forward_rows"] == 0
            transformer.forward(values)
            assert transform_counts()["forward_rows"] == rows
        assert transform_counts() == outer
