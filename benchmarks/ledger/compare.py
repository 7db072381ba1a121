#!/usr/bin/env python3
"""Compare two result sets of the ledger against its own bounds.

    python3 benchmarks/ledger/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a ``ledger.json``
written by ``run.py`` or a directory holding several (one per run, at any
depth: ``--out A/run1``, ``--out A/run2``, ...). Per
workload x end-to-end metric this prints both medians with quartiles and
a verdict against the bound in ``BENCHMARK.json``:

* ``ok``         B's median is no worse than A's by more than the bound;
* ``regressed``  it is worse by more than the bound;
* ``unresolved`` the run-to-run spread of either set exceeds the bound,
  so a difference of that size cannot be told from noise — unless every
  run of B reads better than every run of A, which is ``ok``.

Every count and every "simulated, exact" metric must be identical in all
runs of both sets that share a seed. Exits non-zero on ``regressed`` or
on an exactness mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from catalog import BY_NAME, END_TO_END  # noqa: E402


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        with open(file) as handle:
            doc = json.load(handle)
        if isinstance(doc, dict) and "schema" in doc and "workloads" in doc:
            runs.append(doc)
    if not runs:
        raise SystemExit(f"compare.py: no ledger run files at {path}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float,
            better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    if max(sign * x for x in b) < min(sign * x for x in a):
        return "ok"  # every run of B reads better than every run of A
    if max((a3 - a1) / abs(a2), (b3 - b1) / abs(b2)) > bound:
        return "unresolved"
    return "regressed" if sign * (b2 - a2) / abs(a2) > bound else "ok"


def exact_mismatches(runs: list[dict]) -> list[str]:
    """Exact metrics that differ between runs sharing a seed."""
    problems = []
    seen: dict[tuple, tuple[float, str]] = {}
    for index, run in enumerate(runs):
        for workload, record in run["workloads"].items():
            values = {**record["end_to_end"], **record["per_layer"]}
            for name, value in values.items():
                metric = BY_NAME.get(name)
                if metric is None or not metric.exact:
                    continue
                key = (run["seed"], workload, name)
                first = seen.setdefault(key, (value, f"run {index}"))
                if first[0] != value:
                    problems.append(
                        f"{workload} {name} (seed {run['seed']}): "
                        f"{first[0]!r} in {first[1]} vs {value!r} in "
                        f"run {index}")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    set_a, set_b = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    failed = False
    workloads = [w for w in set_a[0]["workloads"]
                 if all(w in run["workloads"] for run in set_a + set_b)]
    print(f"A: {len(set_a)} run(s)   B: {len(set_b)} run(s)")
    print(f"{'workload':<22}{'metric':<20}{'A q1/median/q3':>34}"
          f"{'B q1/median/q3':>34}{'bound':>8}  verdict")
    for workload in workloads:
        for metric in END_TO_END:
            name, bound, better = metric.name, metric.bound, metric.better
            a = [run["workloads"][workload]["end_to_end"][name]
                 for run in set_a
                 if name in run["workloads"][workload]["end_to_end"]]
            b = [run["workloads"][workload]["end_to_end"][name]
                 for run in set_b
                 if name in run["workloads"][workload]["end_to_end"]]
            if not a or not b:
                continue
            result = verdict(a, b, bound, better)
            failed |= result == "regressed"
            cells = ["/".join(f"{x:.5g}" for x in quartiles(v))
                     for v in (a, b)]
            print(f"{workload:<22}{name:<20}{cells[0]:>34}{cells[1]:>34}"
                  f"{bound:>8.3f}  {result}")
    mismatches = exact_mismatches(set_a + set_b)
    for line in mismatches:
        print(f"EXACT MISMATCH {line}")
    if not mismatches:
        print("exact metrics (counts, simulated results): identical "
              "across all runs sharing a seed")
    return 1 if failed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
