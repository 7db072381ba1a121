"""The parallel executor layer: bit-identity, the door, instruments.

The contract under test is the one ISSUE 7 states: parallel execution
may only change the wall clock. Concretely:

* every transform (forward, lazy forward, inverse, scaled inverse,
  broadcast forward) is **bit-identical** across executors and worker
  counts, including the lazy [0, 2q) representatives;
* a full homomorphic multiply — tensor fan-out, keyswitch folding and
  all — produces byte-identical ciphertexts under the thread pool;
* a configuration that cannot be served is refused when it is
  constructed (:class:`~repro.errors.ParameterError`), before any pool
  or BLAS hold exists — there is no degrade-to-serial path;
* dispatches feed the observability plane (dispatch counter, tile
  histogram, utilisation gauge, per-worker tile spans) and the
  timeline exporter spreads tile spans over per-worker lanes that
  still validate;
* a pool with real workers owns the process's BLAS thread count from
  construction to ``close()`` — and only such a pool: one worker, the
  serial executor and every refused config leave it alone, and a
  library that cannot be steered costs the speedup, never the pool or
  the answer; a backend releases the pool it built when it is
  collected, and never one it was handed.
"""

from __future__ import annotations

import contextvars
import gc
import logging
import threading
import tracemalloc

import numpy as np
import pytest

import repro.nttmath.batch as batch_mod
import repro.parallel.blas as blas_mod
import repro.parallel.config as config_mod
import repro.parallel.executors as executors_mod
from repro.errors import ParameterError
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.nttmath.batch import (
    _LIMBS,
    BasisTransformer,
    basis_transformer,
    transform_counts,
)
from repro.nttmath.primes import find_ntt_primes
from repro.obs import Tracer, current_registry, validate_chrome_trace
from repro.obs.timeline import spans_to_chrome
from repro.parallel import (
    EXECUTOR_MODES,
    ExecutionConfig,
    ThreadPoolExecutor,
    active_executor,
    available_cores,
    build_executor,
    in_worker,
    split_range,
    use_executor,
)
from repro.parallel.executors import _run_as_worker
from repro.params import large_ring
from scaffolding import exposed_series

N, K, J = 256, 5, 3


@pytest.fixture(autouse=True)
def _force_tiling(monkeypatch):
    """Every transform in this module tiles, whatever its size."""
    monkeypatch.setattr(config_mod, "PARALLEL_MIN_WORK", 1)


@pytest.fixture(scope="module")
def primes():
    return tuple(find_ntt_primes(30, N, K))


@pytest.fixture(scope="module")
def stack(primes):
    rng = np.random.default_rng(2026)
    bt = basis_transformer(primes, N)
    return rng.integers(0, bt.primes_col, size=(J, K, N))


def _all_transforms(primes, stack):
    """Every dispatcher path, as (name, result) pairs."""
    bt = basis_transformer(primes, N)
    constants = tuple(int(p) - 7 - i for i, p in enumerate(primes))
    digits = np.abs(stack[:, 0, :]) % (1 << 29)
    fwd = bt.forward(stack)
    return [
        ("forward", fwd),
        ("forward_lazy", bt.forward(stack, lazy=True)),
        ("inverse", bt.inverse(fwd)),
        ("inverse_scaled", bt.inverse_scaled(fwd, constants)),
        ("forward_broadcast", bt.forward_broadcast(digits)),
        ("forward_broadcast_lazy", bt.forward_broadcast(digits, lazy=True)),
    ]


class TestConfig:
    def test_threads_sizes_pool_from_affinity(self):
        assert ExecutionConfig() == ExecutionConfig("serial", 1)
        assert ExecutionConfig("threads").workers == min(8, available_cores())

    @pytest.mark.parametrize(("mode", "workers"), [
        ("gpu", 4), ("processes", 2), ("threads", 0), ("threads", -1)])
    def test_bad_config_refused_at_construction(self, monkeypatch, mode,
                                                workers):
        def touched():
            raise AssertionError("BLAS threading was touched")

        # The message names what would have been accepted.
        names = "at least 1" if mode == "threads" else "serial, threads"
        monkeypatch.setattr(blas_mod, "pin", touched)
        with pytest.raises(ParameterError, match=names):
            ExecutionConfig(mode, workers)
        ran = []
        with pytest.raises(ParameterError, match=names):
            with use_executor(mode, workers):
                ran.append(True)
        assert ran == []

    def test_split_range_partitions_exactly(self):
        for size in (1, 5, 17, 64):
            for parts in (1, 2, 3, 8, 100):
                chunks = split_range(size, parts)
                assert chunks[0][0] == 0 and chunks[-1][1] == size
                assert all(a[1] == b[0]
                           for a, b in zip(chunks, chunks[1:], strict=False))
                widths = {hi - lo for lo, hi in chunks}
                assert max(widths) - min(widths) <= 1
                assert len(chunks) == min(parts, size)


class TestBitIdentity:
    """Parallel must equal serial to the last bit, lazy slack included."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_threads_match_serial(self, primes, stack, workers):
        with use_executor("serial"):
            reference = _all_transforms(primes, stack)
        with use_executor("threads", workers):
            assert active_executor().name == "threads"
            parallel = _all_transforms(primes, stack)
        for (name, want), (_, got) in zip(reference, parallel, strict=True):
            assert np.array_equal(want, got), f"{name} diverged"

    def test_transform_counts_identical(self, primes, stack):
        with use_executor("serial"):
            before = transform_counts()
            _all_transforms(primes, stack)
            serial_counts = {
                k: v - before.get(k, 0)
                for k, v in transform_counts().items()
            }
        with use_executor("threads", 2):
            before = transform_counts()
            _all_transforms(primes, stack)
            parallel_counts = {
                k: v - before.get(k, 0)
                for k, v in transform_counts().items()
            }
        assert serial_counts == parallel_counts

    def test_multiply_bit_identical_under_threads(self, toy_context,
                                                  toy_keys, rng):
        params = toy_context.params
        evaluator = Evaluator(toy_context)
        a = toy_context.encrypt(
            Plaintext(rng.integers(0, params.t, params.n), params.t),
            toy_keys.public)
        b = toy_context.encrypt(
            Plaintext(rng.integers(0, params.t, params.n), params.t),
            toy_keys.public)
        with use_executor("serial"):
            want = evaluator.multiply(a, b, toy_keys.relin)
        with use_executor("threads", 3):
            got = evaluator.multiply(a, b, toy_keys.relin)
        assert np.array_equal(want.c0.residues, got.c0.residues)
        assert np.array_equal(want.c1.residues, got.c1.residues)


def _table_bytes(k: int, n: int, factors) -> int:
    """One basis's table set: forward and inverse plans (float64 stage
    matrices, int32 twiddle planes and their float64 quotients) plus
    one scaled inverse's own twiddle plane 0 and its quotients."""
    steps = 8 * sum(k * f * _LIMBS * f for f in factors)
    plane = (4 + 8) * k * n
    return 2 * (steps + (len(factors) - 1) * plane) + plane


def _scratch_bytes(k: int, n: int, factors) -> int:
    """One thread's scratch set: a tile holds at most ``S + 1``
    polynomials of an ``S``-stage ring, and takes three float64
    planes per row (a two-limb stack and a gemm output)."""
    return 8 * 3 * (len(factors) + 1) * k * n


class TestEngineMemory:
    """A channel subset is a view of its parent's tables, a scaled
    inverse owns only its twiddle plane 0, and scratch is one set per
    thread per ring."""

    # n = 4096 is a two-stage ring, with one twiddle plane per direction;
    # n = 8192 is a three-stage one, whose scaled inverse must share its
    # second plane with the plain inverse.
    @pytest.mark.parametrize("n", [4096, 8192])
    def test_one_table_set_and_one_scratch_set_per_thread(self, n):
        k, workers = 12, 2
        primes = tuple(find_ntt_primes(30, n, k))
        rng = np.random.default_rng(31)
        stack = rng.integers(0, np.array(primes)[:, None], size=(3, k, n))
        digits = rng.integers(0, 1 << 30, size=(3, n))
        constants = tuple(int(p) - 3 - i for i, p in enumerate(primes))
        tracemalloc.start(25)
        try:
            with use_executor("threads", workers):
                bt = BasisTransformer(primes, n)
                # One chunk each (at most three polynomials or digit
                # rows), cut into four channel ranges.
                for matrix in (stack, stack[0]):
                    bt.inverse(bt.forward(matrix))
                    bt.inverse_scaled(matrix, constants)
                for rows in (digits, digits[:1]):
                    bt.forward_broadcast(rows)
                # Taken while the pool's threads (and their scratch) live.
                snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(trace.size for trace in snapshot.filter_traces(
            [tracemalloc.Filter(True, batch_mod.__file__, all_frames=True)]
        ).traces)
        bound = (_table_bytes(k, n, bt.factors)
                 + (workers + 1) * _scratch_bytes(k, n, bt.factors)
                 + (256 << 10))  # the engine's Python objects
        assert held <= bound, f"{held / 2**20:.1f} MiB > {bound / 2**20:.1f}"

        scaled = bt._scaled_inv[constants]
        assert len(scaled.twiddles) == len(bt.factors) - 1
        assert scaled.steps is bt._inv.steps
        assert all(own is shared for own, shared in
                   zip(scaled.twiddles[1:], bt._inv.twiddles[1:],
                       strict=True))
        for plan in (bt._fwd, bt._inv, scaled):
            whole = (plan.steps + list(plan.moduli)
                     + [a for pair in plan.twiddles for a in pair])
            for c0, c1 in split_range(k, 4) + split_range(k, 2):
                sub = plan.subset(c0, c1)
                assert sub.factors is plan.factors
                part = (sub.steps + list(sub.moduli)
                        + [a for pair in sub.twiddles for a in pair])
                for parent, view in zip(whole, part, strict=True):
                    assert view.shape[0] == c1 - c0
                    assert np.shares_memory(parent, view)
            assert plan.subset(0, k) is plan

    def test_no_scratch_aliasing_between_bases(self):
        """Two bases of one ring share a scratch set; interleaving their
        transforms on a fresh thread — so the set grows from the small
        basis to the large one midway — changes no output bit."""
        params = large_ring(4096)
        bases = (params.q_primes, params.q_primes + params.p_primes)
        assert (basis_transformer(bases[0], params.n).factors
                == basis_transformer(bases[1], params.n).factors)
        rng = np.random.default_rng(17)
        digits = rng.integers(0, 1 << 30, size=(3, params.n))

        def ops(primes):
            matrix = rng.integers(0, np.array(primes)[:, None],
                                  size=(2, len(primes), params.n))
            constants = tuple(int(p) // 3 for p in primes)
            return [
                ("forward", lambda bt: bt.forward(matrix)),
                ("forward_lazy", lambda bt: bt.forward(matrix, lazy=True)),
                ("inverse_scaled",
                 lambda bt: bt.inverse_scaled(matrix, constants)),
                ("broadcast_row", lambda bt: bt.forward_broadcast(digits[:1])),
                ("broadcast_rows", lambda bt: bt.forward_broadcast(digits)),
            ]

        schedule = [(primes, name, op)
                    for per_op in zip(*(ops(primes) for primes in bases),
                                      strict=True)
                    for primes, (name, op) in zip(bases, per_op, strict=True)]
        want = [op(BasisTransformer(primes, params.n))
                for primes, _, op in schedule]
        got: list = []

        def interleaved():
            got.extend(op(basis_transformer(primes, params.n))
                       for primes, _, op in schedule)

        # A fresh thread starts with no scratch; the copied context
        # carries the ``--threads`` pool, if one is scoped.
        worker = threading.Thread(target=contextvars.copy_context().run,
                                  args=(interleaved,))
        worker.start()
        worker.join()
        assert len(got) == len(schedule)
        for (primes, name, _), expect, out in zip(schedule, want, got,
                                                  strict=True):
            assert np.array_equal(expect, out), f"{name} k={len(primes)}"


def _assert_matches_serial(executor, primes, stack):
    """A transform under ``executor`` equals the serial one, bit for bit."""
    bt = basis_transformer(primes, N)
    with use_executor("serial"):
        want = bt.forward(stack)
    with use_executor(executor):
        assert np.array_equal(bt.forward(stack), want)


class TestScoping:
    def test_modes_catalogue(self):
        assert EXECUTOR_MODES == ("serial", "threads")

    def test_use_executor_nests_and_restores(self):
        outer = ThreadPoolExecutor(2)
        try:
            with use_executor(outer):
                assert active_executor() is outer
                with use_executor("serial"):
                    assert active_executor().name == "serial"
                assert active_executor() is outer
            assert active_executor() is not outer
        finally:
            outer.close()

    def test_mode_string_backend_sizes_pool_from_affinity(self):
        """``executor="threads"`` with no worker count is a real pool,
        sized by the one default-worker rule — not a one-thread pool
        that reports "threads" and never tiles."""
        from repro.api import LocalBackend, Session
        from repro.params import mini

        session = Session(mini(), seed=7)
        product = session.encrypt([1, 2, 3]) * session.encrypt([4, 5, 6])
        program = session.compile(product, name="one-mult", check=False)
        backend = LocalBackend(session, executor="threads")
        try:
            telemetry = backend.telemetry
            assert telemetry["executor"] == "threads"
            assert telemetry["workers"] == min(8, available_cores())
            with use_executor("threads") as scoped:
                assert scoped.workers == telemetry["workers"]
            backend.run(program)
            dispatched = current_registry().value(
                "parallel_dispatch_total", executor="threads")
            assert (dispatched >= 1.0) == (available_cores() >= 2)
        finally:
            backend.executor.close()

    def test_tasks_resolve_serial_inside_workers(self):
        with use_executor("threads", 2) as executor:
            assert active_executor() is executor
            names = executor.map(
                lambda _: (in_worker(), active_executor().name), range(4))
        assert names == [(True, "serial")] * 4
        assert not in_worker()

    def test_run_as_worker_clears_flag_on_error(self):
        with pytest.raises(ValueError):
            _run_as_worker(lambda: (_ for _ in ()).throw(ValueError()))
        assert not in_worker()

        # The same through a live pool: a tile that raises on a worker
        # thread surfaces from ``map``, no thread keeps the in-worker
        # pin, and the pool still serves the next fan-out.
        def tile(item):
            if item == 2:
                raise ValueError("bad tile")
            return item

        with use_executor("threads", 2) as executor:
            with pytest.raises(ValueError, match="bad tile"):
                executor.map(tile, range(4))
            assert not in_worker()
            assert executor.map(lambda _: in_worker(), range(4)) == [True] * 4
            assert executor.map(tile, [0, 1, 3]) == [0, 1, 3]


class TestInstrumentsAndSpans:
    def test_dispatch_instruments_recorded(self, primes, stack):
        registry = current_registry()
        bt = basis_transformer(primes, N)
        with use_executor("threads", 2):
            bt.forward(stack)
        assert registry.value("parallel_dispatch_total",
                              executor="threads") >= 1.0
        utilisation = registry.value("parallel_worker_utilisation",
                                     executor="threads")
        assert 0.0 < utilisation <= 1.0
        assert exposed_series(registry)[
            "parallel_tiles_per_dispatch_count"] >= 1.0

    def test_tile_spans_on_per_worker_lanes(self, primes, stack):
        bt = basis_transformer(primes, N)
        tracer = Tracer()
        with use_executor("threads", 2), tracer.activate(), \
                tracer.span("root", kind="op"):
            bt.forward(stack)
        report = tracer.report()
        tiles = [s for s in report.root.walk() if s.kind == "tile"]
        assert tiles, "tiled dispatch emitted no tile spans"
        assert all(s.attrs["worker"].startswith("repro-w") for s in tiles)
        assert all(s.name == "forward.tile" for s in tiles)
        # Tile spans are scheduling detail, not transform accounting.
        assert "forward.tile" not in report.transform_totals()
        events = spans_to_chrome(report.root, process_name="test")
        validate_chrome_trace(events)
        tile_tids = {e["tid"] for e in events if e.get("cat") == "tile"}
        main_tids = {e["tid"] for e in events
                     if e.get("ph") == "X" and e.get("cat") != "tile"}
        assert tile_tids and not (tile_tids & main_tids)
        lanes = {e["args"]["name"] for e in events
                 if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert any(name.startswith("repro-w") for name in lanes)


_LOCATE = blas_mod._locate


def _blas_threads() -> int:
    """The loaded OpenBLAS's current thread count, read independently
    of any pool (skips on a build the lookup cannot serve)."""
    located = _LOCATE()
    if isinstance(located, str):
        pytest.skip(f"BLAS cannot be steered here: {located}")
    return located[0][0]()


class TestBlasOwnership:
    """A live multi-worker pool holds BLAS at one thread, process-wide."""

    @pytest.fixture(autouse=True)
    def _no_ambient_pool(self):
        """Close the pool the ``--threads`` leg scopes over every test
        (closing twice is harmless) and run serial, so each test sees
        the first pool of the process."""
        active_executor().close()
        with use_executor("serial"):
            yield

    def test_pin_on_construct_restore_on_close(self):
        before = _blas_threads()
        pool = ThreadPoolExecutor(2)
        try:
            assert pool.blas.steered and pool.blas.reason is None
            assert pool.blas.threads_before == before
            assert _blas_threads() == 1
        finally:
            pool.close()
        assert _blas_threads() == before
        # A second close() must not release a hold it no longer has.
        with use_executor("threads", 2):
            pool.close()
            assert _blas_threads() == 1
        assert _blas_threads() == before

    def test_overlapping_pools_restore_when_the_last_closes(self):
        before = _blas_threads()
        first, second = ThreadPoolExecutor(2), ThreadPoolExecutor(3)
        try:
            # Both report the count the *first* one found.
            assert first.blas == second.blas
            assert second.blas.threads_before == before
            first.close()
            assert _blas_threads() == 1
        finally:
            first.close()
            second.close()
        assert _blas_threads() == before

    def test_everything_but_a_real_pool_leaves_blas_alone(
            self, monkeypatch, primes, stack):
        def touched():
            raise AssertionError("BLAS threading was touched")

        monkeypatch.setattr(blas_mod, "pin", touched)
        monkeypatch.setattr(blas_mod, "release", touched)
        for config in (ExecutionConfig("serial"),
                       ExecutionConfig("threads", 1)):
            executor = build_executor(config)
            try:
                assert executor.workers == 1
                assert not executor.blas.steered
                _assert_matches_serial(executor, primes, stack)
            finally:
                executor.close()
        with pytest.raises(ParameterError):
            build_executor(ExecutionConfig("threads", 0))

    def test_unsteerable_library_costs_the_pin_not_the_pool(
            self, monkeypatch, caplog, primes, stack):
        before = _blas_threads()
        reason = "no OpenBLAS library is loaded in this process"
        monkeypatch.setattr(blas_mod, "_locate", lambda: reason)
        with caplog.at_level(logging.WARNING, logger=executors_mod.__name__):
            pools = [build_executor(ExecutionConfig("threads", 2))
                     for _ in range(2)]
        try:
            for pool in pools:
                assert isinstance(pool, ThreadPoolExecutor)
                assert pool.blas == blas_mod.BlasDecision(False, None, reason)
            assert _blas_threads() == before
            # Loud once per pool, and the pool runs.
            assert [record.getMessage() for record in caplog.records] == [
                f"BLAS library cannot be steered: {reason}"] * 2
            _assert_matches_serial(pools[0], primes, stack)
        finally:
            for pool in pools:
                pool.close()
        assert _blas_threads() == before

    def test_backend_releases_only_the_pool_it_built(self):
        from repro.api import LocalBackend, Session
        from scaffolding import toy

        before = _blas_threads()
        session = Session(toy(), seed=7)
        backend = LocalBackend(session,
                               executor=ExecutionConfig("threads", 2))
        assert _blas_threads() == 1
        del backend
        gc.collect()
        assert _blas_threads() == before
        pool = ThreadPoolExecutor(2)
        try:
            backend = LocalBackend(session, executor=pool)
            assert backend.executor is pool
            del backend
            gc.collect()
            assert _blas_threads() == 1
            assert pool.map(lambda item: item + 1, [1, 2]) == [2, 3]
        finally:
            pool.close()
        assert _blas_threads() == before

    def test_backend_telemetry_and_cli_surface_the_decision(self, capsys):
        from repro.api import LocalBackend, Session
        from repro.cli import main
        from scaffolding import toy

        before = _blas_threads()
        session = Session(toy(), seed=7)
        backend = LocalBackend(session,
                               executor=ExecutionConfig("threads", 2))
        try:
            assert backend.telemetry["blas"] == {
                "steered": True, "threads_before": before, "reason": None}
        finally:
            backend.executor.close()
        for quiet in (LocalBackend(session, executor="serial"),
                      LocalBackend(session)):
            blas = quiet.telemetry["blas"]
            assert blas["steered"] is False and blas["reason"]
        assert main(["table5", "--executor", "threads", "--workers", "2"]) == 0
        assert (f"executor: threads x2 (BLAS pinned to 1 thread, "
                f"was {before})") in capsys.readouterr().out


class TestMinWorkThreshold:
    """``PARALLEL_MIN_WORK``: the one gate every fan-out shares."""

    def test_small_fan_outs_run_inline(self, monkeypatch, primes, stack):
        """Below the threshold nothing is dispatched — transforms and
        bands alike — and the result is the same."""
        monkeypatch.setattr(config_mod, "PARALLEL_MIN_WORK", stack.size + 1)
        bt = basis_transformer(primes, N)
        registry = current_registry()
        with use_executor("threads", 2) as pool:
            _assert_matches_serial(pool, primes, stack)
        assert registry.value("parallel_dispatch_total",
                              executor="threads") == 0.0
        monkeypatch.setattr(config_mod, "PARALLEL_MIN_WORK", stack.size)
        with use_executor("threads", 2):
            bt.forward(stack)
        assert registry.value("parallel_dispatch_total",
                              executor="threads") == 1.0
