"""The ledger runs, and says what ``BENCHMARK.json`` says it says.

One ``--quick`` run of all four workloads (same code paths and checks as
the full run, 5 timed + 2 traced requests each), validated against the
names and units the benchmark declares, plus the span files' structure.
Timing-dependent accounting checks are printed by the run, not asserted
here: two traced requests are too few to hold a 5 % tolerance.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from catalog import BY_NAME, LOCAL, WORKLOADS  # noqa: E402
from spans import validate  # noqa: E402


@pytest.fixture(scope="module")
def bench() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(out / "ledger.json") as handle:
        return out, json.load(handle), done.stdout


def test_benchmark_json_keeps_the_contract(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/ledger"]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [m.name for m in LOCAL]
    assert len(set(names)) == len(names)  # each name is used once
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= (
        bench["end_to_end"][0].items())


def test_quick_run_reports_every_declared_metric(quick, bench):
    _, ledger, stdout = quick
    assert set(ledger["workloads"]) == set(WORKLOADS)
    for name, record in ledger["workloads"].items():
        assert record["correct"] and record["failed"] == 0, name
        assert record["attempted"] >= 8
        for metric in bench["end_to_end"]:
            value = record["end_to_end"][metric["name"]]
            assert value > 0, (name, metric["name"])
        for metric in bench["per_layer"]:
            assert (metric["name"] in record["per_layer"]
                    or metric["name"] in record["absent"]), (
                name, metric["name"])
        # Nothing is reported under a name the catalog does not know,
        # and every printed line carries the catalog's unit.
        for metric, value in {**record["end_to_end"],
                              **record["per_layer"]}.items():
            assert metric in BY_NAME, metric
            assert f"{metric:<38}" in stdout
        # The accounting checks that fail a run (worker.GATING) held.
        assert record["problems"] == [], name
        assert record["checks"]["counts_repeat"], name
        assert record["checks"]["spans_well_formed"], name


def test_a_metric_that_does_not_apply_is_omitted(quick):
    _, ledger, _ = quick
    records = ledger["workloads"]
    assert "api.sim_run_ms" not in records["mult_depth4_n4096"]["per_layer"]
    assert "api.run_ms" not in records["sim_cluster_faults"]["per_layer"]
    assert "api.op_ms.multiply" not in records["rotsum_n4096"]["per_layer"]
    assert "parallel.speedup_vs_serial" not in (
        records["rotsum_n4096"]["per_layer"])


def test_stamp_records_what_the_run_observed(quick):
    _, ledger, _ = quick
    stamp = ledger["stamp"]
    for key in ("git_sha", "python", "nproc", "affinity", "load_avg_1m",
                "noisy", "env", "blas"):
        assert key in stamp, key
    assert set(stamp["env"]) == {
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "REPRO_EXECUTOR", "REPRO_WORKERS"}


def test_span_files_are_well_formed(quick):
    out, ledger, _ = quick
    for name in WORKLOADS:
        with open(out / f"{name}.trace.json") as handle:
            spans = json.load(handle)["spans"]
        assert validate(spans) == [], name
        roots = [s for s in spans if s["parent"] is None]
        assert [s["request"] for s in roots] == list(range(len(roots)))
        assert all(s["name"] == "request" for s in roots)
        names = {s["name"] for s in spans}
        if name != "sim_cluster_faults":
            assert {"api.encrypt", "api.compile", "api.run",
                    "api.decrypt"} <= names
            assert any(n.startswith("ntt.") for n in names)
        else:
            assert "api.sim_run" in names
