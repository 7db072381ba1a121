"""The optimiser pass stack: rewrites, equivalence, and pricing.

Three layers of guarantees:

* **pass units** — each rewrite does exactly what it claims on a
  small hand-built graph (canonical rotation steps, CSE merges,
  ladder folding, lazy relinearisation, hoist groups);
* **golden model** — randomly generated DAGs decrypt identically
  optimised and unoptimised on the functional backend, and the stack
  is idempotent (a second run is a fixed point);
* **pricing** — the acceptance bar: on the sum-heavy and matmul
  programs the optimiser removes >= 30% of lowered keyswitch ops and
  the simulated serving makespan improves.
"""

from itertools import pairwise

import numpy as np
import pytest

from repro.api import LocalBackend, Session, SimulatedBackend
from repro.api.program import OpKind, sum_slots_rounds
from repro.apps.matmul import EncryptedMatmul
from repro.obs import Tracer
from repro.optim import optimize_program
from repro.optim.passes import payload_key
from repro.params import mini


@pytest.fixture()
def session():
    return Session(mini(t=65537), seed=31)


def ops_of(program):
    from collections import Counter

    return Counter(node.op for node in program.nodes
                   if node.op is not OpKind.INPUT)


def program_fingerprint(program) -> tuple:
    """Structural fingerprint: equal iff the DAGs are isomorphic over
    the same INPUT nodes (the idempotence tests compare these)."""
    index: dict[int, int] = {}
    rows = []
    for i, node in enumerate(program.nodes):
        index[id(node)] = i
        payload = (None if node.op is OpKind.INPUT
                   else payload_key(node))
        rows.append((node.op.value, payload,
                     tuple(index[id(a)] for a in node.args)))
    outs = tuple(sorted(
        (label, index[id(node)])
        for label, node in program.outputs.items()
    ))
    return (tuple(rows), outs)


class TestPasses:
    def test_rotation_canonicalize_reduces_steps(self, session):
        x = session.encrypt([1, 2, 3, 4])
        half = session.params.n // 2
        program = session.compile(x.rotate(half + 5) + x.rotate(5))
        optimized, report = optimize_program(program)
        # rotate(half + 5) == rotate(5): CSE merges them after
        # canonicalisation, leaving a doubled single rotation.
        rotations = [node for node in optimized.nodes
                     if node.op is OpKind.ROTATE]
        assert [int(r.payload) for r in rotations] == [5]
        assert report.keyswitches_saved == 1

    def test_rotation_chain_composes(self, session):
        x = session.encrypt([1, 2, 3, 4])
        program = session.compile(x.rotate(3).rotate(5))
        optimized, _ = optimize_program(program)
        rotations = [node for node in optimized.nodes
                     if node.op is OpKind.ROTATE]
        assert [int(r.payload) for r in rotations] == [8]

    def test_cse_merges_identical_subtrees(self, session):
        a = session.encrypt([1, 2, 3, 4])
        b = session.encrypt([5, 6, 7, 8])
        # a*b appears twice as distinct nodes (and MULTIPLY is
        # commutative, so b*a merges too).
        expr = (a * b) + (b * a)
        program = session.compile(expr)
        optimized, report = optimize_program(program)
        assert ops_of(program)[OpKind.MULTIPLY] == 2
        by_pass = {s.name: s for s in report.passes}
        assert by_pass["cse"].rewrites == 1
        assert ops_of(optimized).get(
            OpKind.MULTIPLY, 0) + ops_of(optimized).get(
            OpKind.MULTIPLY_RAW, 0) == 1

    def test_sum_slots_ladders_fold(self, session):
        a = session.encrypt([1, 2, 3, 4])
        b = session.encrypt([5, 6, 7, 8])
        program = session.compile(a.sum_slots() + b.sum_slots())
        optimized, report = optimize_program(program)
        assert ops_of(program)[OpKind.SUM_SLOTS] == 2
        assert ops_of(optimized)[OpKind.SUM_SLOTS] == 1
        rounds = sum_slots_rounds(session.params.n)
        assert report.keyswitches_saved == rounds

    def test_shared_ladder_source_does_not_fold(self, session):
        # sum_slots(x) used twice is one ladder already; folding
        # SS(x)+SS(x) into SS(x+x) would be wrong only if the
        # intermediate were reused elsewhere — here it is, so the
        # pass must keep the shared node intact.
        a = session.encrypt([1, 2, 3, 4])
        total = a.sum_slots()
        keep = total * 2
        program = session.compile({"twice": total + total, "keep": keep})
        optimized, _ = optimize_program(program)
        got = LocalBackend(session).run(optimized)
        assert int(session.decrypt(got.handle("twice"))[0]) == 20
        assert int(session.decrypt(got.handle("keep"))[0]) == 20

    def test_relin_placement_defers_keyswitch(self, session):
        a = session.encrypt([1, 2, 3, 4])
        b = session.encrypt([5, 6, 7, 8])
        c = session.encrypt([1, 1, 2, 2])
        d = session.encrypt([2, 2, 1, 1])
        program = session.compile((a * b) + (c * d))
        optimized, report = optimize_program(program)
        counts = ops_of(optimized)
        assert counts[OpKind.MULTIPLY_RAW] == 2
        assert counts[OpKind.RELINEARIZE] == 1
        assert counts.get(OpKind.MULTIPLY, 0) == 0
        # two mult keyswitches became one relinearisation
        assert report.keyswitches_saved == 1

    def test_multiply_feeding_rotation_stays_relinearised(self, session):
        # A product consumed by a rotation must be a 2-part ciphertext
        # when the keyswitch runs; the pass must not leave it raw.
        a = session.encrypt([1, 2, 3, 4])
        b = session.encrypt([5, 6, 7, 8])
        program = session.compile((a * b).rotate(1))
        optimized, _ = optimize_program(program)
        result = LocalBackend(session).run(optimized)
        expected = session.decrypt((a * b).rotate(1))
        got = session.decrypt(result.handle("out"))
        assert np.array_equal(np.asarray(got), np.asarray(expected))

    def test_hoist_groups_cover_shared_source_rotations(self, session):
        x = session.encrypt(list(range(8)))
        program = session.compile(
            x.rotate(1) + x.rotate(2) + x.rotate(5))
        optimized, report = optimize_program(program)
        assert report.hoist_groups == 1
        (group,) = optimized.hoist_groups
        assert sorted(int(m.payload) for m in group) == [1, 2, 5]
        source = {id(m.args[0]) for m in group}
        assert len(source) == 1

    def test_passes_run_under_the_active_trace(self, session):
        """Each pass is one ``pass`` span on the caller's tracer, and
        pass i's ``after`` is pass i + 1's ``before``."""
        a = session.encrypt([1, 2, 3, 4])
        program = session.compile(a.sum_slots() + a.rotate(1))
        tracer = Tracer()
        with tracer.activate():
            _, report = optimize_program(program)
        spans = tracer.finish().walk()
        assert [s.name for s in spans if s.kind == "pass"] == \
            [p.name for p in report.passes]
        assert report.passes[0].before is report.before
        assert report.passes[-1].after is report.after
        for done, nxt in pairwise(report.passes):
            assert done.after is nxt.before


def random_expr(rng, leaves, depth):
    """A random DAG over the encrypted leaves (shares subtrees).

    Multiplicative depth and ladder count are capped so every program
    stays inside mini's worst-case noise budget — the compile below
    runs ``check=True``, making "both sides decrypt correctly" part of
    the contract rather than "both sides are identically wrong".
    """
    pool = list(leaves)
    sums = 0
    for _ in range(depth):
        op = rng.choice(["add", "sub", "mul", "rotate", "sum", "reuse"])
        a = pool[int(rng.integers(len(pool)))]
        b = pool[int(rng.integers(len(pool)))]
        if op == "mul" and (a.depth >= 1 or b.depth >= 1):
            op = "add"
        if op == "sum":
            if sums >= 2 or a.depth >= 1:
                op = "rotate"
            else:
                sums += 1
        if op == "add":
            pool.append(a + b)
        elif op == "sub":
            pool.append(a - b)
        elif op == "mul":
            pool.append(a * b)
        elif op == "rotate":
            pool.append(a.rotate(int(rng.integers(1, 9))))
        elif op == "sum":
            pool.append(a.sum_slots())
        else:
            pool.append(a + a)
    return pool[-1]


class TestGoldenModel:
    @pytest.mark.parametrize("seed", range(6))
    def test_optimized_program_decrypts_identically(self, seed):
        rng = np.random.default_rng(seed)
        values = [[int(v) for v in rng.integers(0, 50, size=4)]
                  for _ in range(3)]

        def build(session):
            leaves = [session.encrypt(v) for v in values]
            expr = random_expr(np.random.default_rng(seed + 100),
                               leaves, depth=6)
            return session.compile(expr)

        # Fresh sessions/graphs per run: shared nodes carry ciphertext
        # caches, which would make the comparison vacuous.
        plain_session = Session(mini(t=65537), seed=7)
        plain = LocalBackend(plain_session).run(build(plain_session))
        opt_session = Session(mini(t=65537), seed=7)
        optimized, _ = optimize_program(build(opt_session))
        opt = LocalBackend(opt_session).run(optimized)
        assert np.array_equal(
            np.asarray(plain_session.decrypt(plain.handle("out"))),
            np.asarray(opt_session.decrypt(opt.handle("out"))),
        )

    def test_optimize_is_idempotent(self, session):
        a = session.encrypt([1, 2, 3, 4])
        b = session.encrypt([5, 6, 7, 8])
        expr = ((a * b).sum_slots() + (b * a).sum_slots()
                + a.rotate(3) + a.rotate(3 + session.params.n // 2))
        program = session.compile(expr)
        once, _ = optimize_program(program)
        twice, report = optimize_program(once)
        assert program_fingerprint(once) == program_fingerprint(twice)
        assert report.keyswitches_saved == 0

    def test_optimized_noise_never_worse(self, session):
        a = session.encrypt([1, 2, 3, 4])
        b = session.encrypt([5, 6, 7, 8])
        program = session.compile((a * b).sum_slots() + (b * a).sum_slots())
        optimized, _ = optimize_program(program)
        assert optimized.static_noise_bits()["out"] >= \
            program.static_noise_bits()["out"]


class TestBackendIntegration:
    def test_session_compile_optimize_knob(self, session):
        a = session.encrypt([1, 2, 3, 4])
        program = session.compile(a.sum_slots() + a.sum_slots(),
                                  optimize=True)
        assert program.optimization is not None
        assert program.name.endswith("+opt")
        assert ops_of(program)[OpKind.SUM_SLOTS] == 1

    def test_prefetch_generates_each_key_once(self):
        session = Session(mini(t=65537), seed=5)
        x = session.encrypt(list(range(8)))
        program = session.compile(x.rotate(1) + x.rotate(2) + x.rotate(1))
        steps = program.rotation_steps()
        assert steps == [1, 2]
        assert session.prefetch_rotation_keys(steps) == 2
        assert session.prefetch_rotation_keys(steps) == 0

    def test_hoisted_rotations_decrypt_equal(self):
        # Halevi-Shoup hoisting shares one digit decomposition across
        # the group; results are congruent, not bit-identical, so the
        # contract is decrypt equality.
        session = Session(mini(t=65537), seed=5)
        x = session.encrypt(list(range(8)))
        y = session.encrypt([3] * 8)
        expr = x.rotate(1) + y.rotate(1) + x.rotate(2) + x.rotate(5)
        expected = np.asarray(session.decrypt(expr))
        program = session.compile(expr)
        optimized, report = optimize_program(program)
        assert report.hoist_groups == 1
        result = LocalBackend(session).run(optimized)
        got = np.asarray(session.decrypt(result.handle("out")))
        assert np.array_equal(got, expected)

    def test_local_backend_runs_raw_and_relin_ops(self, session):
        a = session.encrypt([1, 2, 3, 4])
        b = session.encrypt([5, 6, 7, 8])
        c = session.encrypt([2, 2, 2, 2])
        program = session.compile((a * b) + (a * c))
        optimized, _ = optimize_program(program)
        counts = ops_of(optimized)
        assert counts[OpKind.MULTIPLY_RAW] == 2
        result = LocalBackend(session).run(optimized)
        assert np.array_equal(result.decrypt("out", size=4),
                              [1 * 5 + 1 * 2, 2 * 6 + 2 * 2,
                               3 * 7 + 3 * 2, 4 * 8 + 4 * 2])


def served_makespan(session, program, *, optimize):
    """Finish time of the last of 20 requests of `program` served on one
    simulated board: where saved keyswitches must show up."""
    run = SimulatedBackend.over_runtime(
        session.params, optimize=optimize).run(program, requests=20, seed=5)
    return max(future.finish_seconds for future in run.completed)


class TestSimulatedPricing:
    def make_program(self):
        session = Session(mini(t=65537), seed=3)
        handles = [session.encrypt([i + 1] * 8) for i in range(4)]
        total = None
        for h, g in zip(handles[:2], handles[2:]):
            term = (h * g).sum_slots()
            total = term if total is None else total + term
        return session, session.compile(total, name="dots")

    def test_optimize_knob_reduces_keyswitches(self):
        session, program = self.make_program()
        raw = SimulatedBackend.over_runtime(session.params).lower(program)
        opt = SimulatedBackend.over_runtime(
            session.params, optimize=True).lower(program)
        assert opt.optimization is not None
        reduction = 1 - opt.keyswitch_ops() / raw.keyswitch_ops()
        assert reduction >= 0.30
        assert opt.independent_seconds() < raw.independent_seconds()

    def test_optimized_makespan_improves(self):
        session, program = self.make_program()
        assert served_makespan(session, program, optimize=True) < \
            served_makespan(session, program, optimize=False)

    def test_critical_path_and_stamps(self):
        session, program = self.make_program()
        backend = SimulatedBackend.over_runtime(session.params)
        lowered = backend.lower(program)
        critical = lowered.critical_path_seconds()
        assert 0 < critical < lowered.independent_seconds()

    def test_run_attaches_lowered_program(self):
        session, program = self.make_program()
        backend = SimulatedBackend.over_runtime(session.params,
                                                optimize=True)
        run = backend.run(program, requests=3)
        assert run.lowered is not None
        assert run.lowered.optimization is not None
        assert run.critical_path_seconds > 0
        assert run.program.name.endswith("+opt")
        assert len(run.completed) == 3


class TestOptimizerCli:
    def test_trace_matmul_prints_report_and_exports(self, tmp_path,
                                                    capsys):
        import json

        from repro.cli import main as cli_main
        from repro.obs import validate_chrome_trace

        assert cli_main(["trace", "matmul", "--out", str(tmp_path),
                         "--requests", "3"]) == 0
        out = capsys.readouterr().out
        assert "optimiser report" in out
        assert "% saved" in out
        rows = [line.split()[0] for line in out.splitlines() if line]
        for name in ("canonicalize", "cse", "rotation_fold",
                     "relin_placement", "rotation_hoist"):
            assert name in rows
        assert "MISMATCH" not in out
        for stem in ("matmul_functional", "matmul_simulated"):
            data = json.loads((tmp_path / f"{stem}.json").read_text())
            assert validate_chrome_trace(data)

    def test_trace_no_optimize_skips_report(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["trace", "mult", "--no-optimize",
                         "--out", str(tmp_path), "--requests", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimiser report" not in out


class TestMatmulApp:
    A = [[1, 2, 3, 4], [5, 6, 7, 8]]
    B = [[1, 0], [2, 1], [0, 3], [1, 1]]

    def test_matmul_matches_reference(self):
        reference = EncryptedMatmul.reference(self.A, self.B, 65537)
        for optimize in (False, True):
            # Fresh session/graph per variant so no cached ciphertexts
            # leak between the optimised and unoptimised runs.
            session = Session(mini(t=65537), seed=11)
            matmul = EncryptedMatmul(session, block_slots=2)
            program = matmul.matmul_program(
                matmul.encrypt_rows(self.A), matmul.encrypt_cols(self.B))
            if optimize:
                program, _ = optimize_program(program)
            result = LocalBackend(session).run(program)
            got = [
                [matmul.decrypt_entry(result.handle(f"c{i}_{j}"))
                 for j in range(2)]
                for i in range(2)
            ]
            assert got == reference

    def test_matmul_optimiser_reduction_floor(self):
        session = Session(mini(t=65537), seed=11)
        matmul = EncryptedMatmul(session, block_slots=2)
        program = matmul.matmul_program(matmul.encrypt_rows(self.A),
                                        matmul.encrypt_cols(self.B))
        raw = SimulatedBackend.over_runtime(session.params).lower(program)
        opt = SimulatedBackend.over_runtime(
            session.params, optimize=True).lower(program)
        assert 1 - opt.keyswitch_ops() / raw.keyswitch_ops() >= 0.30
        assert served_makespan(session, program, optimize=True) < \
            served_makespan(session, program, optimize=False)

    def test_matmul_validates_inputs(self):
        from repro.errors import ParameterError

        session = Session(mini(t=65537), seed=11)
        matmul = EncryptedMatmul(session)
        with pytest.raises(ParameterError):
            matmul.encrypt_rows([[1, 2], [3]])
        with pytest.raises(ParameterError):
            matmul.encrypt_rows([])
        with pytest.raises(ParameterError):
            EncryptedMatmul(session, block_slots=0)
