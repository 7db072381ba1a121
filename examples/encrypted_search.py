#!/usr/bin/env python3
"""Private information retrieval: one HE program, two executors.

Paper Sec. III-A sizes its depth-4 parameter set for "private
information retrieval or encrypted search in a table of 2^16 entries".
This demo runs the PIR protocol end to end on a 16-entry table (selector
products of 4 encrypted index bits, multiplicative depth 2) — and then
shows the point of the `repro.api` facade: the *same* compiled
`HEProgram` runs

* functionally through `LocalBackend` (real FV ciphertexts, decrypted
  and checked against the table), and
* through `SimulatedBackend` over a multi-shard FPGA cluster, which
  prices every lowered operation on the paper's hardware cost models
  and reports per-request p50/p95/p99 latency.

Each functional reply reaches the client as bytes, the way it leaves
the cloud in the paper's Fig. 11: the server writes it in the
ciphertext wire format of `repro.io`, the client reads it back and
decrypts.

Run:  python examples/encrypted_search.py
"""

import tempfile
from pathlib import Path

from repro import LocalBackend, Session, SimulatedBackend, mini
from repro.apps import EncryptedLookupTable
from repro.apps.lookup import selection_depth
from repro.cluster import TenantAffinityRouter
from repro.io import load_ciphertext, save_ciphertext

TABLE = [13, 42, 7, 99, 1, 64, 250, 8, 77, 31, 5, 190, 2, 120, 55, 86]
SHARDS = 4


def main() -> None:
    session = Session(mini(t=257), seed=13)
    server = EncryptedLookupTable(session, TABLE)

    print(f"table: {TABLE}")
    print(f"index bits: {server.index_bits}, "
          f"selector depth: {selection_depth(len(TABLE))}\n")

    # -- functional executions, one program per query -------------------
    local = LocalBackend(session)
    program = None
    with tempfile.TemporaryDirectory() as wire:
        reply_path = Path(wire) / "reply.ct"
        for index in (3, 6, 12):
            program = server.lookup_program(server.encrypt_index(index))
            result = local.run(program)
            save_ciphertext(reply_path, result["out"].ciphertext)
            reply = load_ciphertext(reply_path, session.params)
            value = int(session.decrypt(reply)[0])
            budget = result.noise_budget_bits("out")
            status = "OK" if value == TABLE[index] else "WRONG"
            print(f"lookup(index={index:2d}) -> {value:3d} "
                  f"(expected {TABLE[index]:3d}, {status}; "
                  f"reply noise budget {budget:.1f} bits)")

    # -- the same program object through the simulated cluster ----------
    backend = SimulatedBackend.over_cluster(
        session.params, SHARDS, router_factory=TenantAffinityRouter)
    run = backend.run(program, requests=100, rate_per_second=150.0,
                      num_tenants=32, seed=1)
    latency = run.latency_summary()
    print(f"\nsame HEProgram on a {SHARDS}-shard cluster "
          f"({program.num_ops} ops/request, 100 requests at 150/s):")
    print(f"  completed {len(run.completed)}/100, "
          f"{run.requests_per_second():.0f} requests/s")
    print(f"  per-request latency p50 {latency.p50 * 1e3:.2f} ms, "
          f"p95 {latency.p95 * 1e3:.2f} ms, "
          f"p99 {latency.p99 * 1e3:.2f} ms")

    print("\nthe paper's sizing claim: a 2^16-entry table needs 16 index")
    print(f"bits and a selector tree of depth "
          f"{selection_depth(1 << 16)} — exactly the depth-4 budget of "
          f"the (n=4096, 180-bit q) parameter set.")


if __name__ == "__main__":
    main()
