"""Test scaffolding: the smallest parameter set, two synthetic job
streams, a cluster whose boards admit by a tenant set, big-integer
residue rows, a metrics registry read back as a mapping and a trace's
spans of one kind. No runtime,
example or benchmark uses them, so they live with the tests."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.cluster import FpgaCluster
from repro.hw.config import HardwareConfig
from repro.obs import MetricsRegistry, Span, TraceReport, render_prometheus
from repro.params import ParameterSet, _build
from repro.rns.basis import RnsBasis
from repro.serve import ServingRuntime, TenantSet
from repro.system.server import CostModel
from repro.system.workloads import Job, JobKind


@lru_cache(maxsize=None)
def toy(t: int = 2) -> ParameterSet:
    """The smallest coherent set (n = 64) for exhaustive unit tests."""
    params = _build("toy", n=64, k_q=3, k_p=4, t=t, sigma=3.2)
    params.validate_tensor_capacity()
    return params


def mult_stream(count: int) -> list[Job]:
    """A saturating stream of multiplications (all available at t=0)."""
    return [Job(index=i, kind=JobKind.MULT) for i in range(count)]


def mixed_workload(mults: int, adds_per_mult: int,
                   seed: int = 0) -> list[Job]:
    """Forecasting-shaped workload: bursts of adds around each mult.

    The smart-grid application of [4] accumulates many ciphertext
    additions per multiplication; the paper cites it as the motivation
    for accelerating Mult first (Sec. IV-A).
    """
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []
    index = 0
    for _ in range(mults):
        for _ in range(adds_per_mult):
            jobs.append(Job(index=index, kind=JobKind.ADD))
            index += 1
        jobs.append(Job(index=index, kind=JobKind.MULT))
        index += 1
    # Shuffle deterministically: clients interleave.
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def tenant_cluster(params: ParameterSet, num_shards: int,
                   tenants: TenantSet, **kwargs) -> FpgaCluster:
    """``num_shards`` boards of the paper's design, each admitting by
    ``tenants`` (per-tenant queue caps and SLAs), sharing one cost
    model and named as ``FpgaCluster.homogeneous`` names its shards;
    ``kwargs`` go to :class:`FpgaCluster`."""
    cost = CostModel(params, HardwareConfig())
    return FpgaCluster([ServingRuntime(cost, name=f"shard{i}",
                                       tenants=tenants)
                        for i in range(num_shards)], **kwargs)


def residues_of_coeffs(basis: RnsBasis, coeffs) -> np.ndarray:
    """Residue matrix (size x n) of a list of big integers."""
    return np.array(
        [[int(c) % p for c in coeffs] for p in basis.primes],
        dtype=np.int64,
    )


def exposed_series(registry: MetricsRegistry | None = None
                   ) -> dict[str, float]:
    """Every series a registry exposes (default: the current one), read
    back from its Prometheus text exposition."""
    lines = render_prometheus(registry).splitlines()
    return {series: float(value)
            for series, value in (line.rsplit(" ", 1) for line in lines
                                  if not line.startswith("#"))}


def spans_of(trace: TraceReport, kind: str) -> list[Span]:
    """The spans of one kind in a finished trace (the engine itself
    queries only its "op" spans)."""
    return [span for span in trace.root.walk() if span.kind == kind]
