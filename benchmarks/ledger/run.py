#!/usr/bin/env python3
"""The perf ledger: one command, four workloads, absolute numbers.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed S]
                                     [--out DIR] [--quick]

runs each workload in its own fresh subprocess with its fixed request
count, prints every end-to-end and per-layer metric by name with its
unit, checks every output against a plaintext reference, writes
``<out>/ledger.json`` (stamped) plus one span file per workload, and
exits non-zero if any check fails.

The driver form adds ``--seconds T --trace 0|1``: the timed pass then
stops on the clock instead of on a count, and the last line of standard
output is the one JSON object the ``BENCHMARK.json`` contract asks for —
every end-to-end metric with ``--trace 0``, every declared per-layer
metric with ``--trace 1``.

This process imports nothing but the standard library and sets no BLAS,
OpenMP or ``REPRO_*`` variable: the children measure what a user of the
package gets, and ``setup_s`` includes their imports.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from catalog import (  # noqa: E402
    BY_NAME,
    DECLARED_PER_LAYER,
    END_TO_END,
    HW_OPS,
    WORKLOADS,
)
from stamp import host_stamp  # noqa: E402

SCHEMA = 1
CHILD_TIMEOUT_S = 170


def child(workload: str, seed: int, out: Path, tag: str, *extra) -> dict:
    """Run ``worker.py`` in a fresh interpreter and read its record."""
    result = out / f"{workload}.{tag}.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--result", str(result), "--scratch", str(out),
               "--t0", repr(time.time()), *map(str, extra)]
    done = subprocess.run(command, env=env, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0 or not result.exists():
        raise RuntimeError(f"{workload}: worker exited {done.returncode}")
    with open(result) as handle:
        return json.load(handle)


def plan(args) -> dict:
    """How much each child does, for the mode the flags select."""
    if args.quick:
        return {"setups": 1, "timed": ("--requests", 5), "traced": 2,
                "traced_seconds": None, "probe_reps": 1, "extras": 1}
    if args.seconds is None:
        return {"setups": 3, "timed": (), "traced": 20,
                "traced_seconds": None, "probe_reps": 9, "extras": 1}
    if args.trace == 0:
        return {"setups": 3, "timed": ("--seconds", args.seconds),
                "traced": 0, "traced_seconds": None, "probe_reps": 0,
                "extras": 1}
    # A traced driver run splits its seconds: an untraced pass to compare
    # against, then the traced pass; the probes come on top.
    return {"setups": 1, "timed": ("--seconds", 0.4 * args.seconds),
            "traced": 20, "traced_seconds": 0.3 * args.seconds,
            "probe_reps": 9, "extras": 0}


def run_workload(workload: str, args, out: Path) -> dict:
    todo = plan(args)
    setups = [child(workload, args.seed, out, f"setup{i}",
                    "--setup-only")["setup_s"]
              for i in range(todo["setups"] - 1)]
    extra = [*todo["timed"], "--traced", todo["traced"],
             "--probe-reps", todo["probe_reps"], "--extras", todo["extras"]]
    if todo["traced_seconds"] is not None:
        extra += ["--traced-seconds", todo["traced_seconds"]]
    if todo["traced"]:
        extra += ["--trace-file", out / f"{workload}.trace.json"]
    record = child(workload, args.seed, out, "run", *extra)
    setups.append(record["setup_s"])
    record["setup_samples_s"] = setups
    record["end_to_end"]["setup_s"] = statistics.median(setups)
    return record


# -- printing ----------------------------------------------------------------------


def fmt(value) -> str:
    if isinstance(value, int):
        return f"{value:d}"
    return f"{value:.6g}"


def print_record(name: str, record: dict) -> None:
    print(f"\n== {name} (seed {record['seed']}): "
          f"{record['timed_requests']} timed requests in "
          f"{record['timed_seconds']:.2f} s, {record['attempted']} "
          f"attempted, {record['failed']} failed ==")
    for section in ("end_to_end", "per_layer"):
        for metric, value in sorted(record[section].items()):
            unit = BY_NAME[metric].unit if metric in BY_NAME else "?"
            print(f"  {metric:<38} {fmt(value):>14} {unit}")
    for metric, reason in sorted(record["absent"].items()):
        print(f"  {metric:<38} {'absent':>14} ({reason})")
    for check, value in sorted(record["checks"].items()):
        print(f"  check {check}: {value}")
    for problem in record["problems"] + record["failures"]:
        print(f"  PROBLEM {problem}")


#: op span -> the fv probes that price one call of it, nested.
OP_PARTS = {
    "multiply": [(3, "fv.multiply_ms"), (4, "fv.multiply_raw_ms"),
                 (5, "rns.lift_ntt_ms"), (5, "rns.scale_ntt_ms"),
                 (5, "fv.tensor_self_ms"), (4, "fv.relinearize_ms"),
                 (5, "fv.fold_self_ms")],
    "rotate": [(3, "fv.rotate_ms")],
    "sum_slots": [(3, "fv.sum_slots_ms")],
    "mul_plain": [(3, "fv.mul_plain_ms")],
    "add": [(3, "fv.add_ms")],
}


def layered_rows(record: dict) -> list[tuple[str, float]]:
    """request -> api phases -> ops -> fv parts -> rns / nttmath."""
    v = record["per_layer"]
    phases = ("api.encrypt_ms", "api.compile_ms", "api.run_ms",
              "api.decrypt_ms")
    layout = [(1, "api.encrypt_ms"), (1, "api.compile_ms"),
              (1, "api.run_ms")]
    for op, parts in OP_PARTS.items():
        if f"api.op_ms.{op}" in v:
            layout += [(2, f"api.op_ms.{op}"), *parts]
    layout += [(2, "api.phase_ms.verify_outputs"),
               (2, "api.phase_ms.output_boundary"),
               (2, "api.run_overhead_ms"), (2, "nttmath.transform_ms"),
               (1, "api.decrypt_ms")]
    rows = [("request (traced, sum of phases)",
             sum(v.get(p, 0.0) for p in phases))]
    rows += [("  " * depth + key, v[key]) for depth, key in layout
             if key in v]
    return rows


def print_layered(records: dict[str, dict]) -> None:
    """The functional engine's phase shares next to the coprocessor's
    Table II shares — the comparison the paper makes."""
    hw = next((r["per_layer"] for r in records.values()
               if "hw.instr_share.ntt" in r["per_layer"]), None)
    for name, record in records.items():
        if "api.run_ms" not in record["per_layer"]:
            continue
        rows = layered_rows(record)
        total = rows[0][1]
        left = [f"{label:<44}{ms:>10.3f}{ms / total:>8.1%}"
                for label, ms in rows]
        right = []
        if hw is not None:
            right = [f"{'hw.instr_share.' + op:<34}"
                     f"{hw[f'hw.instr_share.{op}']:>8.1%}" for op in HW_OPS]
        print(f"\n-- {name}: where a request goes (fv / rns rows are per "
              f"call, from the probes) --")
        print(f"{'layer':<44}{'ms':>10}{'share':>8}   "
              f"{'coprocessor, share of Mult compute cycles':<42}")
        for i in range(max(len(left), len(right))):
            print(f"{left[i] if i < len(left) else '':<62}   "
                  f"{right[i] if i < len(right) else ''}")


def contract_line(record: dict, trace: int) -> str:
    """The driver's JSON object. A declared per-layer metric whose probe
    target is gone is left out, not written as 0 (which "better: lower"
    would read as the best value there is); the record says why."""
    section, declared = (("end_to_end", END_TO_END) if trace == 0 else
                         ("per_layer", DECLARED_PER_LAYER))
    metrics = {m.name: record[section][m.name] for m in declared
               if m.name in record[section]}
    return json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": value, "unit": BY_NAME[name].unit}
                    for name, value in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--quick", action="store_true",
                        help="5 timed + 2 traced requests per workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver form: stop the timed pass on the clock")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: 0 end-to-end, 1 per-layer")
    args = parser.parse_args(argv)
    driver = args.seconds is not None
    if driver and (args.workload is None or args.trace is None):
        parser.error("--seconds needs --workload and --trace")
    if not (SRC / "repro").is_dir():
        print(f"run.py: no package to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2

    args.out.mkdir(parents=True, exist_ok=True)
    stamp = host_stamp(str(ROOT))
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = {name: run_workload(name, args, args.out) for name in names}
    for name, record in records.items():
        print_record(name, record)
    print_layered(records)
    stamp["blas"] = next(iter(records.values()))["blas"]
    print(f"\nstamp: {json.dumps(stamp, sort_keys=True)}")
    if stamp["noisy"]:
        print("stamp: load average exceeds the core count — record "
              "marked noisy")
    ledger = {"schema": SCHEMA, "seed": args.seed, "stamp": stamp,
              "mode": ("quick" if args.quick else
                       "driver" if driver else "full"),
              "workloads": records}
    with open(args.out / "ledger.json", "w") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
    correct = all(record["correct"] for record in records.values())
    print(f"\nledger: {'all outputs correct' if correct else 'FAILED'}; "
          f"wrote {args.out / 'ledger.json'}")
    if driver:
        print(contract_line(records[args.workload], args.trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
