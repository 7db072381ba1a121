"""Optimiser benches: keyswitch reduction and simulated makespan.

The acceptance numbers for the :mod:`repro.optim` pass stack, on its
two motivating programs:

* a sum-all-slots-heavy reduction (many parallel dot products), where
  rotation folding collapses the per-term ladders;
* the FAME-style encrypted matmul app, where folding and lazy
  relinearisation combine.

For each program the bench lowers the graph raw and optimised against
the same cost model, asserts the optimiser removes at least 30% of
the lowered keyswitch ops *and* that the optimised program decrypts
to the same values on the functional backend, then replays both
versions through the simulated serving runtime and reports the
makespan improvement.
"""

from __future__ import annotations

import os

from conftest import save_result

from repro.api import LocalBackend, Session, SimulatedBackend
from repro.apps.matmul import EncryptedMatmul
from repro.params import mini

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
MODE = "fast" if FAST else "full"
REQUESTS = 20 if FAST else 100
#: The acceptance bar: the pass stack must eliminate at least this
#: fraction of the lowered keyswitch ops on both programs.
KEYSWITCH_REDUCTION_FLOOR = 0.30

MATMUL_A = [[1, 2, 3, 4, 5, 6, 7, 8], [2, 0, 1, 3, 5, 2, 4, 1]]
MATMUL_B = [[1, 2], [0, 1], [3, 1], [1, 0],
            [2, 2], [1, 1], [0, 3], [2, 1]]


def sum_heavy_case():
    """Four parallel dot products, reduced with per-term ladders."""
    session = Session(mini(t=65537), seed=3)
    vectors = [session.encrypt([i + 1, i + 2, i + 3, i + 4])
               for i in range(4)]
    weights = [session.encrypt([2, 1, 2, 1]) for _ in range(4)]
    total = None
    for vec, wt in zip(vectors, weights):
        term = (vec * wt).sum_slots()
        total = term if total is None else total + term
    program = session.compile(total, name="sum-heavy")
    expected = [int(session.decrypt(total)[0])]

    def decrypt(result):
        return [int(session.decrypt(result.handle("out"))[0])]

    return session, program, expected, decrypt


def matmul_case():
    """The encrypted blocked matmul app (2x8 @ 8x2, 4-slot blocks)."""
    session = Session(mini(t=65537), seed=29)
    matmul = EncryptedMatmul(session, block_slots=4)
    program = matmul.matmul_program(matmul.encrypt_rows(MATMUL_A),
                                    matmul.encrypt_cols(MATMUL_B))
    reference = EncryptedMatmul.reference(MATMUL_A, MATMUL_B,
                                          session.params.t)
    expected = [v for row in reference for v in row]

    def decrypt(result):
        return [
            matmul.decrypt_entry(result.handle(f"c{i}_{j}"))
            for i in range(len(reference))
            for j in range(len(reference[0]))
        ]

    return session, program, expected, decrypt


def measure(session, program, expected, decrypt):
    """Raw-vs-optimised lowering and serving numbers for one program."""
    raw_backend = SimulatedBackend.over_runtime(session.params)
    opt_backend = SimulatedBackend.over_runtime(session.params,
                                                optimize=True)
    raw = raw_backend.lower(program)
    opt = opt_backend.lower(program)
    reduction = 1 - opt.keyswitch_ops() / raw.keyswitch_ops()
    assert reduction >= KEYSWITCH_REDUCTION_FLOOR, (
        f"{program.name}: keyswitch reduction {reduction:.1%} below "
        f"the {KEYSWITCH_REDUCTION_FLOOR:.0%} floor"
    )

    # Semantic equivalence on the functional backend.
    got = decrypt(LocalBackend(session).run(opt.program))
    assert got == expected, f"{program.name}: {got} != {expected}"

    raw_run = raw_backend.run(program, requests=REQUESTS, seed=5)
    opt_run = opt_backend.run(program, requests=REQUESTS, seed=5)
    raw_span = max(f.finish_seconds for f in raw_run.completed)
    opt_span = max(f.finish_seconds for f in opt_run.completed)
    assert opt_span < raw_span, (
        f"{program.name}: optimised makespan did not improve"
    )
    return {
        "program": program.name,
        "ops_before": len(raw.ops),
        "ops_after": len(opt.ops),
        "keyswitches_before": raw.keyswitch_ops(),
        "keyswitches_after": opt.keyswitch_ops(),
        "keyswitch_reduction": round(reduction, 4),
        "train_before_ms": round(raw.train_seconds() * 1e3, 3),
        "train_after_ms": round(opt.train_seconds() * 1e3, 3),
        "critical_path_ms": round(opt.critical_path_seconds() * 1e3, 3),
        "makespan_before_ms": round(raw_span * 1e3, 3),
        "makespan_after_ms": round(opt_span * 1e3, 3),
        "makespan_speedup": round(raw_span / opt_span, 3),
    }


def test_optimizer_keyswitch_and_makespan():
    rows = [measure(*sum_heavy_case()), measure(*matmul_case())]

    lines = [
        f"Optimiser pass stack — keyswitches and simulated makespan "
        f"({MODE} mode, {REQUESTS} requests)",
        f"{'program':<18}{'keyswitches':>13}{'saved':>8}"
        f"{'train ms':>18}{'makespan ms':>13}{'speedup':>9}",
    ]
    for row in rows:
        keyswitches = (f"{row['keyswitches_before']} -> "
                       f"{row['keyswitches_after']}")
        train = (f"{row['train_before_ms']:.2f} -> "
                 f"{row['train_after_ms']:.2f}")
        lines.append(
            f"{row['program']:<18}{keyswitches:>13}"
            f"{row['keyswitch_reduction']:>8.0%}{train:>18}"
            f"{row['makespan_after_ms']:>13.2f}"
            f"{row['makespan_speedup']:>8.2f}x"
        )
    save_result("BENCH_optimizer", "\n".join(lines))
