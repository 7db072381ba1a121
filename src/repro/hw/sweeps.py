"""Design-space sweeps (paper Sec. VII: cost/performance trade-offs).

The paper closes by noting the architecture "offers trade-offs between
hardware cost and performance ... design decisions can be tweaked to
meet different requirements" and sketches an Amazon F1 port with ten
coprocessors. The sweep functions here produce the data series behind
those claims: latency/throughput/resources as functions of each design
knob, consumed by the design-space example and ``python -m repro sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..params import ParameterSet
from ..system.server import CostModel
from ..system.workloads import JobKind
from .config import HardwareConfig
from .resources import ResourceEstimator, Utilization


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration."""

    label: str
    config: HardwareConfig
    mult_seconds: float
    throughput_per_second: float
    resources: Utilization

    def row(self) -> str:
        return (f"{self.label:<34}{self.mult_seconds * 1e3:>9.2f} ms"
                f"{self.throughput_per_second:>9.0f}/s"
                f"{self.resources.luts:>10,}{self.resources.bram36:>7}"
                f"{self.resources.dsps:>6}")


def evaluate_point(params: ParameterSet, label: str,
                   config: HardwareConfig) -> DesignPoint:
    cost = CostModel(params, config)
    resources = ResourceEstimator(params, config).single_coprocessor()
    return DesignPoint(
        label=label,
        config=config,
        mult_seconds=cost.compute_seconds(JobKind.MULT),
        throughput_per_second=cost.mult_throughput_per_second(),
        resources=resources,
    )


def sweep_coprocessor_count(params: ParameterSet) -> list[DesignPoint]:
    """Throughput vs coprocessor instances (the paper's F1 projection).

    Ten coprocessors is the paper's estimate for one Amazon F1 FPGA
    ("five times more resources than our Zynq").
    """
    base = HardwareConfig()
    return [
        evaluate_point(params, f"{count} coprocessor(s)",
                       replace(base, num_coprocessors=count))
        for count in (1, 2, 4, 10)
    ]


def sweep_conversion_cores(params: ParameterSet) -> list[DesignPoint]:
    """Mult latency vs lift/scale core count."""
    base = HardwareConfig()
    return [
        evaluate_point(params, f"{count} lift + {count} scale cores",
                       replace(base, lift_cores=count, scale_cores=count))
        for count in (1, 2, 4)
    ]


def sweep_butterfly_cores(params: ParameterSet) -> list[DesignPoint]:
    base = HardwareConfig()
    return [
        evaluate_point(params, f"{count} butterfly core(s)/RPAU",
                       replace(base, butterfly_cores_per_rpau=count))
        for count in (1, 2)
    ]
