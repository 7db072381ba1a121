"""Client-server network model (paper Fig. 11, the 'Networking' Arm core).

The paper dedicates its third Arm core to a lightweight IP stack for
client communication but does not evaluate the network path. This module
extends the system model to full client round trips over the ZCU102's
gigabit Ethernet, which exposes a finding the paper's numbers imply but
never state: at 400 Mult/s, shipping two operand ciphertexts per
multiplication (393 KiB) needs ~157 MB/s of ingress — beyond gigabit
Ethernet — so the *network*, not the FPGA, bounds a naive
one-shot-per-request deployment. Applications therefore batch work
server-side (as the smart-grid pipeline does), which is consistent with
the paper's application framing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import ParameterSet
from .server import CostModel
from .workloads import JobKind

GIGABIT_ETHERNET_BYTES_PER_SEC = 125_000_000
#: lwIP on a Cortex-A53 sustains well under line rate; the paper's stack
#: is "light-weight", so we model 70% of line rate.
LWIP_EFFICIENCY = 0.70
#: Per-request protocol overhead (headers, acks, syscall-free baremetal
#: loop) — one round trip on a switched LAN.
PER_REQUEST_LATENCY_SECONDS = 200e-6


@dataclass(frozen=True)
class NetworkModel:
    """Ingress/egress cost of shipping ciphertexts to the server."""

    bandwidth_bytes_per_sec: float = (GIGABIT_ETHERNET_BYTES_PER_SEC
                                      * LWIP_EFFICIENCY)
    request_latency_seconds: float = PER_REQUEST_LATENCY_SECONDS

    def transfer_seconds(self, num_bytes: int) -> float:
        return (self.request_latency_seconds
                + num_bytes / self.bandwidth_bytes_per_sec)


@dataclass(frozen=True)
class RoundTrip:
    """End-to-end timing of one client request."""

    upload_seconds: float
    server_seconds: float
    download_seconds: float

    @property
    def total_seconds(self) -> float:
        return (self.upload_seconds + self.server_seconds
                + self.download_seconds)


class ClientSession:
    """A remote client using the homomorphic cloud service."""

    def __init__(self, params: ParameterSet, cost: CostModel,
                 network: NetworkModel | None = None) -> None:
        self.params = params
        self.cost = cost
        self.network = network or NetworkModel()

    def mult_round_trip(self) -> RoundTrip:
        """Upload two ciphertexts, one Mult, download the result."""
        upload = self.network.transfer_seconds(
            2 * self.params.ciphertext_bytes
        )
        download = self.network.transfer_seconds(
            self.params.ciphertext_bytes
        )
        return RoundTrip(
            upload_seconds=upload,
            server_seconds=self.cost.job_seconds(JobKind.MULT),
            download_seconds=download,
        )

    def network_bound_throughput(self) -> float:
        """Mults/s the network alone can feed (2 operand cts each)."""
        per_request = 2 * self.params.ciphertext_bytes
        return self.network.bandwidth_bytes_per_sec / per_request

    def effective_throughput(self) -> float:
        """min(server, network) — the deployable rate for one-shot jobs."""
        return min(self.cost.mult_throughput_per_second(),
                   self.network_bound_throughput())

    def is_network_bound(self) -> bool:
        return (self.network_bound_throughput()
                < self.cost.mult_throughput_per_second())

    def batched_throughput(self, ops_per_upload: int) -> float:
        """Server-side batching: one upload feeds many operations.

        The smart-grid pipeline computes many adds/mults per uploaded
        ciphertext set, amortising the ingress cost; with enough reuse
        the FPGA becomes the bottleneck again.
        """
        if ops_per_upload < 1:
            raise ValueError("ops_per_upload must be at least 1")
        network_rate = self.network_bound_throughput() * ops_per_upload
        return min(self.cost.mult_throughput_per_second(), network_rate)
