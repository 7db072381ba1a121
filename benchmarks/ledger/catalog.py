"""Every metric the ledger can report: name, unit, direction, bound.

``BENCHMARK.json`` is the one source for the workloads, the end-to-end
metrics with their bounds and the *declared* per-layer metrics — the
ones on the driver's ``--trace 1`` line, measured on every workload.
This file adds only the workload-specific ones (:data:`LOCAL`), which
live in the per-workload record files, where a metric that does not
apply is omitted, never reported as 0.

Units name the timebase: ``s``/``ms``/``us`` are host time as measured;
``count``, ``cycles``, ``bits`` and every ``sim_*`` unit (simulated time
or a ratio of simulated quantities) repeat exactly under a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HW_OPS = ("ntt", "intt", "coeff_mul", "coeff_add", "memory_rearrange",
          "lift_q_to_Q", "scale_Q_to_q")
API_OPS = ("multiply", "rotate", "sum_slots", "mul_plain", "add")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    #: Share of the parent's median it may worsen by (end-to-end only).
    bound: float | None = None

    @property
    def exact(self) -> bool:
        """Repeats exactly under a fixed seed (counts, simulated results)."""
        return (self.unit in ("count", "cycles", "bits")
                or "sim_" in self.unit or self.name == "paper_err_pct")


with open(Path(__file__).resolve().parents[2] / "BENCHMARK.json") as _handle:
    _BENCH = json.load(_handle)

WORKLOADS = tuple(w["name"] for w in _BENCH["workloads"])
END_TO_END = tuple(Metric(**m) for m in _BENCH["end_to_end"])
DECLARED_PER_LAYER = tuple(Metric(**m) for m in _BENCH["per_layer"])

#: Workload-specific per-layer metrics: record files only.
LOCAL = (
    # Traced pass of a functional workload.
    Metric("nttmath.transform_ms", "ms"),
    Metric("nttmath.transform_share", "frac"),
    Metric("nttmath.forward_rows", "count"),
    Metric("nttmath.inverse_rows", "count"),
    Metric("nttmath.forward_calls", "count"),
    Metric("nttmath.inverse_calls", "count"),
    Metric("nttmath.roundtrip_rows", "count"),
    Metric("nttmath.fallback_calls", "count"),
    Metric("api.encrypt_ms", "ms"),
    Metric("api.compile_ms", "ms"),
    Metric("api.run_ms", "ms"),
    Metric("api.decrypt_ms", "ms"),
    *(Metric(f"api.op_ms.{op}", "ms") for op in API_OPS),
    Metric("api.phase_ms.verify_outputs", "ms"),
    Metric("api.phase_ms.output_boundary", "ms"),
    Metric("api.run_overhead_ms", "ms"),
    Metric("api.resident_cache_hits", "count", "higher"),
    # The coefficient-operand datapath the ROADMAP wants gone: recorded
    # so its deletion can be priced, not declared so it can vanish.
    Metric("fv.multiply_coeff_ms", "ms"),
    # Only where set-up built the summation keys.
    Metric("fv.sum_slots_ms", "ms"),
    # mult_n8192_threads
    Metric("parallel.workers", "count", "higher"),
    Metric("parallel.speedup_vs_serial", "ratio", "higher"),
    Metric("parallel.executor_fallbacks", "count"),
    # sim_cluster_faults
    Metric("api.sim_lower_ms", "ms"),
    Metric("api.sim_run_ms", "ms"),
    Metric("serve.host_us_per_job", "us"),
    Metric("cluster.host_us_per_job", "us"),
    Metric("cluster.sim_p50_ms", "sim_ms"),
    Metric("cluster.sim_p99_ms", "sim_ms"),
    Metric("cluster.sim_goodput_rps", "1/sim_s", "higher"),
    Metric("cluster.imbalance", "sim_ratio"),
    Metric("faults.jobs_spilled", "count"),
    Metric("faults.jobs_retried", "count"),
    Metric("faults.failovers", "count"),
    Metric("faults.rehydrations", "count"),
    Metric("faults.jobs_lost", "count"),
    Metric("faults.host_overhead_frac", "frac"),
)

BY_NAME = {m.name: m for m in END_TO_END + DECLARED_PER_LAYER + LOCAL}
