"""One workload in one fresh process: set-up, timed pass, traced pass.

``run.py`` starts this file once per workload (and again, with
``--setup-only``, for the extra set-up samples), so ``setup_s``,
``peak_rss_mb`` and the engine's ``lru_cache``d plans are per workload.
Everything before the first timed request counts as set-up — interpreter
start and imports included, measured from the parent's spawn instant —
except generating inputs, computing their references and checking
outputs, which no metric includes. Every time is wall clock.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

from catalog import API_OPS, LOCAL
from probes import Probes
from spans import Recorder, duration, no_span, self_times, validate
from stamp import blas_stamp
from workloads import BUILDERS, paper_err_pct

WARMUPS = 3
#: Driver mode stops on the clock, but never before this many requests.
MIN_TIMED = 10
#: ``peak_rss_mb`` is read when this many timed requests have completed
#: (or at the end of a shorter pass): ``rotsum_n4096`` grows by about
#: 0.2 MB per request, so a high-water mark read when the clock stops
#: would move with the machine's speed.
RSS_REQUESTS = 40
#: ``noise_budget_bits`` is the median over the process's first requests,
#: warm-ups included: the same requests whatever the request count, so
#: the figure is a function of the seed alone.
NOISE_SAMPLES = 8


#: The functional workloads' two counter sources, each absent on its own
#: if it cannot be read.
COUNTERS = {
    "transform_counters": tuple(m.name for m in LOCAL if m.unit == "count"
                                and m.name.startswith("nttmath.")),
    "cache_counters": ("api.resident_cache_hits",),
}
#: Accounting checks that fail the run. ``multiply_parts_ok`` and the
#: derived self times compare separately timed calls, with noise the
#: size of their tolerance: printed, not gating.
GATING = ("counts_repeat", "spans_well_formed", "phases_sum_ok",
          "no_negative_self")
#: What is read off ``ProgramResult.trace``, absent if it cannot be.
ENGINE_TRACE = (*(f"api.op_ms.{op}" for op in API_OPS),
                "api.phase_ms.verify_outputs", "api.phase_ms.output_boundary",
                "api.run_overhead_ms", "nttmath.transform_ms",
                "nttmath.transform_share")


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_request(workload, item, span, failures: list[str], noise=None):
    """One closed-loop request: ``(seconds, correct)``. The check, and
    the noise measurement of the first ``NOISE_SAMPLES`` requests when
    ``noise`` is a list, run after the clock stops."""
    start = time.perf_counter()
    try:
        with span("request"):
            out = workload.request(item, span)
    except Exception:  # counted as a failed request, loop keeps going
        failures.append(traceback.format_exc(limit=4))
        return time.perf_counter() - start, False
    seconds = time.perf_counter() - start
    ok = bool(workload.correct(item, out))
    if not ok:
        failures.append(f"{workload.name}: output differs from reference")
    elif noise is not None and len(noise) < NOISE_SAMPLES:
        noise.append(workload.output_noise_bits())
    return seconds, ok


def timed_pass(workload, pool, start_index, requests, seconds, failures,
               noise):
    """Returns ``(latencies, failed, next index, peak RSS in MB)``."""
    latencies, failed, index = [], 0, start_index
    peak_rss_mb = None
    deadline = None if seconds is None else time.perf_counter() + seconds
    while True:
        done = index - start_index
        if deadline is None:
            if done >= requests:
                break
        elif done >= MIN_TIMED and time.perf_counter() >= deadline:
            break
        elapsed, ok = run_request(workload, pool[index % len(pool)],
                                  no_span, failures, noise)
        latencies.append(elapsed)
        if len(latencies) == RSS_REQUESTS:
            peak_rss_mb = max_rss_mb()
        failed += not ok
        index += 1
    return latencies, failed, index, peak_rss_mb or max_rss_mb()


def traced_pass(workload, pool, start_index, requests, seconds, failures,
                absent):
    """Fresh requests under the span recorder. Returns the recorder,
    per-request latencies, counter diffs and the failure count. The
    counters and the engine's own trace are read from outside the
    facade, so either may be gone: its metrics then turn absent."""

    def guarded(names, read, default):
        if not any(name in absent for name in names):
            try:
                return read()
            except Exception as exc:  # the boundary that must keep running
                for name in names:
                    absent[name] = f"{type(exc).__name__}: {exc}"
        return default

    def counters() -> dict[str, int]:
        counts: dict[str, int] = {}
        if workload.functional:
            for source, names in COUNTERS.items():
                counts.update(guarded(names, getattr(workload, source), {}))
        return counts

    recorder = Recorder()
    latencies, diffs, failed = [], [], 0
    deadline = None if seconds is None else time.perf_counter() + seconds
    for number in range(requests):
        if (deadline is not None and number >= 3
                and time.perf_counter() >= deadline):
            break
        recorder.request = number
        before = counters()
        elapsed, ok = run_request(
            workload, pool[(start_index + number) % len(pool)],
            recorder.span, failures)
        after = counters()
        # The span the engine already built for this run (op / phase /
        # ntt.*), grafted under the harness's own api.run span.
        if workload.functional and ok:
            _, result, run_span = workload.last
            guarded(ENGINE_TRACE,
                    lambda: recorder.adopt(result.trace.root, run_span), None)
        latencies.append(elapsed)
        diffs.append({key: after[key] - before[key]
                      for key in after if key in before})
        failed += not ok
    recorder.request = None
    return recorder, latencies, diffs, failed


def reduce_spans(recorder, functional: bool) -> tuple[dict, dict]:
    """Per-layer medians out of the traced pass, plus the accounting
    checks (phases sum to the request; no negative self time)."""
    spans = recorder.spans
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    per_request: dict[int, dict[str, float]] = {}
    for span in spans:
        row = per_request.setdefault(span["request"], {})
        name, ms = span["name"], duration(span) * 1e3
        parent = by_id.get(span["parent"])
        if name.startswith("ntt."):
            # Top-most transform spans only: nested ones are already
            # inside their parent's interval.
            if parent is None or not parent["name"].startswith("ntt."):
                row["ntt"] = row.get("ntt", 0.0) + ms
        elif name.startswith(("op.", "phase.")):
            row[name] = row.get(name, 0.0) + ms
            row["run_children"] = row.get("run_children", 0.0) + ms
        else:
            row[name] = row.get(name, 0.0) + ms

    phases = (("api.encrypt", "api.compile", "api.run", "api.decrypt")
              if functional else ("api.sim_run",))
    # A request that raised has no full set of phases: left out.
    rows = [row for row in per_request.values()
            if "request" in row and all(p in row for p in phases)]
    if not rows:
        return {}, {}

    def med(key):
        values = [row[key] for row in rows if key in row]
        return statistics.median(values) if values else None

    out: dict[str, float | None] = {f"{p}_ms": med(p) for p in phases}
    if functional:
        for op in API_OPS:
            out[f"api.op_ms.{op}"] = med(f"op.{op}")
        for phase in ("verify_outputs", "output_boundary"):
            out[f"api.phase_ms.{phase}"] = med(f"phase.{phase}")
        out["api.run_overhead_ms"] = statistics.median(
            row["api.run"] - row.get("run_children", 0.0) for row in rows)
        out["nttmath.transform_ms"] = med("ntt")
        out["nttmath.transform_share"] = statistics.median(
            row.get("ntt", 0.0) / row["api.run"] for row in rows)
    phase_gap = statistics.median(
        abs(sum(row[p] for p in phases) - row["request"]) / row["request"]
        for row in rows)
    checks = {
        "phases_sum_gap_frac": phase_gap,
        "phases_sum_ok": phase_gap <= 0.05,
        "min_self_ms": min(selfs.values()) * 1e3,
        "no_negative_self": min(selfs.values()) >= -1e-6,
    }
    return {k: v for k, v in out.items() if v is not None}, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--traced-seconds", type=float, default=None)
    parser.add_argument("--probe-reps", type=int, default=0)
    parser.add_argument("--extras", type=int, default=1)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--scratch", default=None)
    args = parser.parse_args(argv)

    workload = BUILDERS[args.workload]()
    workload.setup(args.seed)
    setup_s = time.time() - args.t0
    count = args.requests if args.requests else workload.requests
    pool = workload.make_inputs(args.seed, max(count, WARMUPS))
    workload.sample = pool[0]
    failures: list[str] = []
    failed = 0
    noise = ([] if args.extras and workload.functional
             and not args.setup_only else None)
    for item in pool[:WARMUPS]:
        seconds, ok = run_request(workload, item, no_span, failures, noise)
        setup_s += seconds
        failed += not ok
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "setup_s": setup_s}
    if args.setup_only:
        workload.close()
        _write(args.result, record)
        return 0

    latencies, timed_failed, index, peak_rss_mb = timed_pass(
        workload, pool, WARMUPS, count, args.seconds, failures, noise)
    failed += timed_failed
    busy = sum(latencies)
    p50 = statistics.median(latencies)
    end_to_end = {
        "setup_s": setup_s,
        "request_p50_ms": p50 * 1e3,
        "throughput_rps": len(latencies) / busy,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.extras:
        if not workload.functional:
            noise = [workload.twin_noise_budget_bits()]
        if noise:  # empty only if every request failed
            end_to_end["noise_budget_bits"] = statistics.median(noise)
        end_to_end["paper_err_pct"] = paper_err_pct()
    attempted = WARMUPS + len(latencies)
    per_layer: dict[str, float] = {
        "api.request_p90_ms":
            statistics.quantiles(latencies, n=10)[-1] * 1e3,
    }
    checks: dict = {}
    probes = Probes(workload, args.probe_reps, args.scratch)
    absent = probes.absent

    if args.traced:
        recorder, traced, diffs, traced_failed = traced_pass(
            workload, pool, index, args.traced, args.traced_seconds,
            failures, absent)
        failed += traced_failed
        attempted += len(traced)
        layer, checks = reduce_spans(recorder, workload.functional)
        per_layer.update(layer)
        per_layer["benchmarks.trace_overhead_frac"] = (
            statistics.median(traced) / p50 - 1.0)
        # Counts are per request and must repeat exactly.
        checks["counts_repeat"] = all(d == diffs[0] for d in diffs)
        per_layer.update(diffs[0])
        for name in absent:
            per_layer.pop(name, None)
        checks["span_problems"] = validate(recorder.spans)
        checks["spans_well_formed"] = not checks["span_problems"]
        if args.trace_file:
            recorder.dump(args.trace_file, args.workload)
    if args.probe_reps:
        probes.run_all()
        per_layer.update(probes.values)
        checks.update(probes.checks)

    # The accounting checks fail the run like a wrong output does.
    problems = workload.finish()
    problems += [f"check {name} failed" for name in GATING
                 if checks.get(name) is False]
    workload.close()
    record.update({
        "end_to_end": end_to_end, "per_layer": per_layer,
        "absent": absent, "checks": checks, "notes": probes.notes,
        "attempted": attempted,
        "failed": failed, "timed_requests": len(latencies),
        "timed_seconds": busy, "problems": problems,
        "failures": failures[:5],
        "correct": failed == 0 and not problems,
    })
    record["blas"] = blas_stamp()
    _write(args.result, record)
    return 0


def _write(path: str, record: dict) -> None:
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
