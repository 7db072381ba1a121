"""The parallel executor layer: bit-identity, fallbacks, instruments.

The contract under test is the one ISSUE 7 states: parallel execution
may only change the wall clock. Concretely:

* every transform (forward, lazy forward, inverse, scaled inverse,
  broadcast forward) is **bit-identical** across executors and worker
  counts, including the lazy [0, 2q) representatives;
* a full homomorphic multiply — tensor fan-out, keyswitch folding and
  all — produces byte-identical ciphertexts under the thread pool;
* an executor that cannot be built degrades *loudly* to serial: a
  structured :class:`ExecutorFallback`, a counter increment, and an
  unchanged answer;
* dispatches feed the observability plane (dispatch counter, tile
  histogram, utilisation gauge, per-worker tile spans) and the
  timeline exporter spreads tile spans over per-worker lanes that
  still validate;
* a pool with real workers owns the process's BLAS thread count from
  construction to ``close()`` — and only such a pool: one worker, the
  serial executor and every fallback path leave it alone, and a
  library that cannot be steered costs the speedup, never the pool or
  the answer.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import repro.parallel.blas as blas_mod
import repro.parallel.config as config_mod
import repro.parallel.executors as executors_mod
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.nttmath.batch import basis_transformer, transform_counts
from repro.nttmath.primes import find_ntt_primes
from repro.obs import Tracer, current_registry, validate_chrome_trace
from repro.obs.timeline import spans_to_chrome
from repro.parallel import (
    EXECUTOR_MODES,
    ExecutionConfig,
    SerialExecutor,
    ThreadPoolExecutor,
    active_executor,
    available_cores,
    build_executor,
    executor_fallbacks,
    in_worker,
    parallel_diagnostics,
    reset_default_executor,
    reset_executor_fallbacks,
    split_range,
    use_executor,
)
from repro.parallel.executors import _run_as_worker

N, K, J = 256, 5, 3


@pytest.fixture(autouse=True)
def _force_tiling(monkeypatch):
    """Every transform in this module tiles, whatever its size."""
    monkeypatch.setattr(config_mod, "PARALLEL_MIN_WORK", 1)
    reset_executor_fallbacks()
    yield
    reset_executor_fallbacks()


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
    def test_from_env_defaults_to_serial(self):
        config = ExecutionConfig.from_env({})
        assert config == ExecutionConfig(mode="serial", workers=1)

    def test_from_env_reads_mode_and_workers(self):
        config = ExecutionConfig.from_env(
            {"REPRO_EXECUTOR": " Threads ", "REPRO_WORKERS": "3"})
        assert config == ExecutionConfig(mode="threads", workers=3)

    def test_from_env_sizes_pool_from_affinity(self):
        config = ExecutionConfig.from_env({"REPRO_EXECUTOR": "threads"})
        assert config.workers == min(8, available_cores())

    def test_malformed_workers_flagged_not_raised(self):
        config = ExecutionConfig.from_env(
            {"REPRO_EXECUTOR": "threads", "REPRO_WORKERS": "four"})
        assert config.workers == 0  # rejected later, loudly

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

    def test_subset_inherits_parent_geometry(self, primes):
        bt = basis_transformer(primes, N)
        sub = bt.subset(1, 4)
        assert sub.geometry is bt.geometry
        assert sub.primes == primes[1:4]
        assert bt.subset(0, K) is bt

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


def _assert_matches_serial(executor, primes, stack):
    """A transform under ``executor`` equals the serial one, bit for bit."""
    bt = basis_transformer(primes, N)
    with use_executor("serial"):
        want = bt.forward(stack)
    with use_executor(executor):
        assert np.array_equal(bt.forward(stack), want)


class TestFallbacks:
    """Degradation must be loud, structured, and answer-preserving."""

    def test_unknown_mode_goes_serial_with_diagnostics(self):
        executor = build_executor(ExecutionConfig("gpu", 4))
        assert isinstance(executor, SerialExecutor)
        (fallback,) = executor_fallbacks()
        assert fallback.mode == "gpu" and fallback.workers == 4
        assert "unknown executor mode" in fallback.reason
        assert current_registry().value("executor_fallback_total") == 1.0

    def test_removed_process_mode_is_an_unknown_mode(self, primes, stack):
        executor = build_executor(ExecutionConfig("processes", 2))
        assert isinstance(executor, SerialExecutor)
        (fallback,) = executor_fallbacks()
        assert fallback.mode == "processes"
        assert "unknown executor mode" in fallback.reason
        _assert_matches_serial(executor, primes, stack)

    def test_bad_worker_count_goes_serial(self, primes, stack):
        executor = build_executor(ExecutionConfig("threads", 0))
        assert isinstance(executor, SerialExecutor)
        (fallback,) = executor_fallbacks()
        assert "REPRO_WORKERS" in fallback.reason
        _assert_matches_serial(executor, primes, stack)

    def test_pool_construction_failure_goes_serial(self, monkeypatch,
                                                   primes, stack):
        def boom(workers):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(executors_mod, "ThreadPoolExecutor", boom)
        executor = build_executor(ExecutionConfig("threads", 2))
        assert isinstance(executor, SerialExecutor)
        (fallback,) = executor_fallbacks()
        assert fallback.mode == "threads"
        assert "can't start new thread" in fallback.reason
        _assert_matches_serial(executor, primes, stack)

    def test_results_survive_the_fallback(self, primes, stack):
        with use_executor("definitely-not-an-executor", 4) as executor:
            assert executor.name == "serial"
            _assert_matches_serial(executor, primes, stack)


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
        backend = LocalBackend(session, verify=False, executor="threads")
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
        snapshot = registry.snapshot()
        assert snapshot["parallel_tiles_per_dispatch_count"] >= 1.0

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
        """Drop the env-built default pool (the parallel CI leg has
        one), so each test sees the first pool of the process."""
        reset_default_executor()

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

        def boom(**kwargs):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(blas_mod, "pin", touched)
        monkeypatch.setattr(blas_mod, "release", touched)
        lone = ThreadPoolExecutor(1)
        assert not lone.blas.steered
        lone.close()
        for config in (ExecutionConfig("serial"), ExecutionConfig("gpu", 4),
                       ExecutionConfig("threads", 0)):
            executor = build_executor(config)
            assert isinstance(executor, SerialExecutor)
            assert not executor.blas.steered
        monkeypatch.setattr(executors_mod.futures, "ThreadPoolExecutor", boom)
        executor = build_executor(ExecutionConfig("threads", 2))
        assert isinstance(executor, SerialExecutor)
        assert len(executor_fallbacks()) == 3
        _assert_matches_serial(executor, primes, stack)

    def test_unsteerable_library_costs_the_pin_not_the_pool(
            self, monkeypatch, caplog, primes, stack):
        before = _blas_threads()
        monkeypatch.setattr(
            blas_mod, "_locate",
            lambda: "no OpenBLAS library is loaded in this process")
        with caplog.at_level(logging.WARNING, logger=executors_mod.__name__):
            pools = [build_executor(ExecutionConfig("threads", 2))
                     for _ in range(2)]
        try:
            for pool in pools:
                assert isinstance(pool, ThreadPoolExecutor)
                assert pool.blas == blas_mod.BlasDecision(
                    False, None,
                    "no OpenBLAS library is loaded in this process")
            assert _blas_threads() == before
            # Loud once, structured, and not a fallback: the pool runs.
            (note,) = parallel_diagnostics()
            assert note.subject == "BLAS library cannot be steered"
            assert "no OpenBLAS" in note.reason
            assert len(caplog.records) == 1
            assert executor_fallbacks() == ()
            _assert_matches_serial(pools[0], primes, stack)
        finally:
            for pool in pools:
                pool.close()
        assert _blas_threads() == before

    def test_backend_telemetry_and_cli_surface_the_decision(self, capsys):
        from repro.api import LocalBackend, Session
        from repro.cli import main
        from repro.params import toy

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
    """``REPRO_PARALLEL_MIN_WORK``: one gate, parsed forgivingly."""

    def test_parse_keeps_integers_and_defaults_the_rest(self):
        assert config_mod.parse_min_work(None) == (1 << 14, None)
        assert config_mod.parse_min_work("1") == (1, None)
        value, problem = config_mod.parse_min_work("abc")
        assert value == 1 << 14 and "'abc'" in problem

    def test_garbled_value_does_not_crash_the_import(self):
        env = dict(os.environ, REPRO_PARALLEL_MIN_WORK="abc",
                   PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c",
             "import repro.nttmath.batch; "
             "from repro.parallel import config; "
             "print(config.PARALLEL_MIN_WORK)"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(1 << 14)

    def test_garbled_value_is_reported_when_a_pool_is_built(
            self, monkeypatch, caplog):
        problem = config_mod.parse_min_work("abc")[1]
        monkeypatch.setattr(config_mod, "MIN_WORK_PROBLEM", problem)
        build_executor(ExecutionConfig("serial"))
        assert parallel_diagnostics() == ()
        with caplog.at_level(logging.WARNING, logger=executors_mod.__name__):
            for _ in range(2):
                build_executor(ExecutionConfig("threads", 2)).close()
        (note,) = parallel_diagnostics()
        assert note.subject == "REPRO_PARALLEL_MIN_WORK"
        assert note.reason == problem
        assert len(caplog.records) == 1

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
