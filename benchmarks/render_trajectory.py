"""Render the BENCH_fv_ops.json trajectory as markdown tables.

``bench_optimizer.py`` and ``bench_fault_tolerance.py`` append one
record per run to the trajectory file; this script reduces the chain
to one table per record kind for a workflow summary::

    python benchmarks/render_trajectory.py \
        benchmarks/results/BENCH_fv_ops.json >> "$GITHUB_STEP_SUMMARY"

One row per record (oldest first): when it was measured, at which
commit, and the record's numbers. Absolute engine timings live in the
perf ledger (``benchmarks/ledger/``), not here. An empty trajectory
renders a note, not an empty table.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def render(records: list[dict]) -> str:
    optim_records = [r for r in records if "optim" in r]
    fault_records = [r for r in records if "fault" in r]
    lines = ["## Benchmark trajectory"]
    if not optim_records and not fault_records:
        lines += ["", "_No trajectory records yet._"]
    if optim_records:
        lines += ["", "### Optimiser pass stack "
                      "(keyswitches saved, makespan speedup)", ""]
        programs = sorted({p["program"] for record in optim_records
                           for p in record["optim"]})
        header = (["date", "sha"]
                  + [f"{name} ks" for name in programs]
                  + [f"{name} makespan" for name in programs])
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for record in optim_records:
            meta = record.get("meta", {})
            by_program = {p["program"]: p for p in record["optim"]}
            row = [
                str(meta.get("recorded_at", "?")).split("T")[0],
                str(meta.get("git_sha", "?")),
            ]
            for name in programs:
                point = by_program.get(name)
                row.append(_percent(point["keyswitch_reduction"])
                           if point else "")
            for name in programs:
                point = by_program.get(name)
                row.append(_speedup(point["makespan_speedup"])
                           if point else "")
            lines.append("| " + " | ".join(row) + " |")
    if fault_records:
        lines += ["", "### Fault tolerance (mid-run board kill)", ""]
        header = ["date", "sha", "fleet", "lost", "spilled", "retried",
                  "failovers", "availability", "p99 inflation"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for record in fault_records:
            meta = record.get("meta", {})
            fault = record["fault"]
            row = [
                str(meta.get("recorded_at", "?")).split("T")[0],
                str(meta.get("git_sha", "?")),
                f"{fault.get('shards', '?')} boards / "
                f"R={fault.get('replicas', '?')}",
                str(fault.get("jobs_lost", "?")),
                str(fault.get("jobs_spilled", "?")),
                str(fault.get("jobs_retried", "?")),
                str(fault.get("failovers", "?")),
                _percent(fault.get("availability")),
                _speedup(fault.get("p99_inflation")),
            ]
            lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _percent(value) -> str:
    return f"{value:.0%}" if isinstance(value, (int, float)) else ""


def _speedup(value) -> str:
    return f"{value:.2f}x" if isinstance(value, (int, float)) else ""


def main(argv: list[str]) -> int:
    path = Path(argv[1] if len(argv) > 1
                else "benchmarks/results/BENCH_fv_ops.json")
    # The nightly summary must render something useful on every run:
    # a missing, empty or unparsable trajectory is a note in the
    # summary (exit 0), not a red workflow step.
    if not path.is_file():
        print("## Benchmark trajectory\n\n"
              f"_No trajectory file at `{path}` yet — run the bench "
              "to record one._")
        return 0
    text = path.read_text().strip()
    if not text:
        print("## Benchmark trajectory\n\n"
              f"_Trajectory file `{path}` is empty — run the bench "
              "to record the first entry._")
        return 0
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError as exc:
        print("## Benchmark trajectory\n\n"
              f"_Trajectory file `{path}` is not valid JSON "
              f"({exc}) — fix or regenerate it._")
        return 0
    records = loaded if isinstance(loaded, list) else [loaded]
    print(render(records), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
