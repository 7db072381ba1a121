"""Per-layer probes: public functions timed from outside, on the
workload's own shapes.

Every probe resolves its target at run time (:func:`resolve`) and checks
the call against the target's signature (:func:`bind`) before timing
it. A probe whose function is gone, whose signature changed, or that
raises, reports its metric as *absent* with the reason, and each probe
group runs under a second guard (:meth:`Probes.run_all`) — a later
change that deletes a datapath must not be able to break the benchmark
it is not allowed to edit.

Probes that are compared or subtracted (``multiply`` against its parts,
serial against threads) are timed in interleaved rounds, so allocator
and cache state drift hits them alike.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import tempfile
import time
import traceback

import numpy as np

from catalog import HW_OPS
from workloads import paper_mult_report

# What each probe group measures: the names ``run_all`` turns absent if
# the group raises before reporting them.
ENGINE = (
    "nttmath.plan_build_ms", "fv.keygen_ms", "fv.galois_keygen_ms",
    "nttmath.forward_us_per_row", "nttmath.inverse_us_per_row",
    "nttmath.inverse_scaled_us_per_row", "nttmath.broadcast_us_per_row",
    "rns.lift_ntt_ms", "rns.scale_ntt_ms", "fv.multiply_ms",
    "fv.multiply_raw_ms", "fv.relinearize_ms", "fv.multiply_coeff_ms",
    "fv.tensor_self_ms", "fv.fold_self_ms", "fv.encrypt_ms",
    "fv.decrypt_ms", "fv.noise_budget_ms", "fv.rotate_ms",
    "fv.mul_plain_ms", "fv.add_ms")
OPTIM = ("optim.optimize_ms", "optim.keyswitches_before",
         "optim.keyswitches_after")
IO = ("io.ct_save_ms", "io.ct_load_ms", "io.ct_bytes")
PARALLEL = ("parallel.workers", "parallel.speedup_vs_serial",
            "parallel.executor_fallbacks")
HW = ("hw.mult_cycles", "hw.mult_arm_cycles", "hw.mult_host_ms",
      "hw.table2_sum_err_pct",
      *(f"hw.instr_{kind}.{op}" for op in HW_OPS
        for kind in ("cycles", "share", "err_pct")))
SYSTEM = ("system.costmodel_build_ms", "system.mult_job_s",
          "system.rotate_job_s")
SIM_EXACT = ("cluster.sim_p50_ms", "cluster.sim_p99_ms",
             "cluster.sim_goodput_rps", "cluster.imbalance",
             "faults.jobs_spilled", "faults.jobs_retried",
             "faults.failovers", "faults.rehydrations", "faults.jobs_lost")
SIMULATOR = ("api.sim_lower_ms", "cluster.host_us_per_job",
             "serve.host_us_per_job", *SIM_EXACT,
             "faults.host_overhead_frac")

#: Table II, Arm cycles per call.
PAPER_TABLE2 = {"ntt": 87_582, "intt": 102_043, "coeff_mul": 15_662,
                "coeff_add": 16_292, "memory_rearrange": 25_006,
                "lift_q_to_Q": 99_137, "scale_Q_to_q": 99_274}


def resolve(module: str, *attrs: str):
    target = importlib.import_module(module)
    for attr in attrs:
        target = getattr(target, attr)
    return target


def bind(fn, *args, **kwargs):
    """A zero-argument call of ``fn``, refused up front (``TypeError``)
    if the arguments no longer fit its signature."""
    inspect.signature(fn).bind(*args, **kwargs)
    return lambda: fn(*args, **kwargs)


def same_parts(x, y) -> bool:
    return all(np.array_equal(p.residues, q.residues)
               for p, q in zip(x.parts, y.parts, strict=True))


class Probes:
    """Runs the probe groups against one set-up workload."""

    def __init__(self, workload, reps: int, scratch_dir: str) -> None:
        self.workload = workload
        self.session = workload.session
        self.reps = reps
        self.scratch_dir = scratch_dir
        self.values: dict[str, float] = {}
        #: metric -> seconds of each round, for the round-wise differences.
        self.samples: dict[str, list[float]] = {}
        self.absent: dict[str, str] = {}
        self.notes: list[str] = []
        #: Accounting checks the run prints (Mult against its parts).
        self.checks: dict = {}

    def _fail(self, names, exc: Exception) -> None:
        self.notes.append(traceback.format_exc(limit=3))
        for name in names:
            self.absent[name] = f"{type(exc).__name__}: {exc}"

    def group(self, names: tuple[str, ...], fn) -> None:
        """Run one probe returning ``{metric: value}``; on any failure
        its metrics become absent."""
        try:
            self.values.update(fn())
        except Exception as exc:  # the boundary that must keep running
            self._fail(names, exc)

    def timed(self, builders: dict, reps: int | None = None,
              warm: bool = True) -> dict[str, float]:
        """Median ms of each call, timed in interleaved rounds.

        ``builders`` maps a metric name to a function that resolves the
        target, binds its operands and returns the zero-argument call;
        a builder or call that raises makes that one metric absent.
        """
        calls = {}
        for name, build in builders.items():
            try:
                calls[name] = build()
                if warm:
                    calls[name]()
            except Exception as exc:  # the boundary that must keep running
                calls.pop(name, None)
                self._fail((name,), exc)
        samples: dict[str, list[float]] = {name: [] for name in calls}
        for _ in range(self.reps if reps is None else reps):
            for name in list(calls):
                start = time.perf_counter()
                try:
                    calls[name]()
                except Exception as exc:  # as above
                    del calls[name], samples[name]
                    self._fail((name,), exc)
                    continue
                samples[name].append(time.perf_counter() - start)
        out = {name: statistics.median(times) * 1e3
               for name, times in samples.items()}
        self.values.update(out)
        self.samples.update(samples)
        return out

    # -- operands ------------------------------------------------------------------

    def _residues(self, primes, stack: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        n = self.session.params.n
        return np.stack([
            np.stack([rng.integers(0, p, n) for p in primes])
            for _ in range(stack)
        ])

    def _ciphertexts(self, resident: bool):
        context, keys = self.session.context, self.session.keys
        rng = np.random.default_rng(7)
        params = self.session.params
        plains = [self.session.encode(rng.integers(0, params.t, params.n))
                  for _ in range(2)]
        return [context.encrypt(p, keys.public, resident=resident)
                for p in plains]

    # -- the functional engine: nttmath, rns, fv --------------------------------

    def engine(self) -> None:
        # Everything below ``session.params`` is looked up inside the
        # builders, so a renamed attribute costs one metric, not the run.
        session = self.session
        params = session.params
        full = params.q_primes + params.p_primes
        k_total, k_q = len(full), params.k_q
        batch = "repro.nttmath.batch"
        pair = functools.cache(lambda: self._ciphertexts(resident=True))
        stack3 = self._residues(full, 3, 2)

        # One-shot costs a set-up pays once: no warm-up, no repeats.
        galois_key: dict = {}

        def galois_keygen():
            call = bind(session.galois.rotation_keygen, session.keys.secret,
                        [5])
            return lambda: galois_key.update(call())

        self.timed({
            # The cached ``basis_transformer`` was built during set-up;
            # constructing the class again prices that first build.
            "nttmath.plan_build_ms": lambda: bind(
                resolve("repro.nttmath", "BasisTransformer"), full,
                params.n),
            "fv.keygen_ms": lambda: bind(session.context.keygen),
            "fv.galois_keygen_ms": galois_keygen,
        }, reps=1, warm=False)

        def relinearize():
            raw = session.evaluator.multiply_raw(*pair())
            return bind(session.evaluator.relinearize, raw,
                        session.keys.relin, resident=True)

        def multiply_coeff():
            return bind(session.evaluator.multiply,
                        *self._ciphertexts(resident=False),
                        session.keys.relin)

        # The transforms, the base extension and Mult with its parts,
        # interleaved: fv.tensor_self / fv.fold_self subtract them.
        rows = self.timed({
            "nttmath.forward_us_per_row": lambda: bind(
                resolve(batch, "ntt_rows"), full,
                self._residues(full, 4, 1)),
            "nttmath.inverse_us_per_row": lambda: bind(
                resolve(batch, "intt_rows"), full, stack3),
            "nttmath.inverse_scaled_us_per_row": lambda: bind(
                resolve(batch, "intt_rows_scaled"), full, stack3,
                session.context.scale_ctx.full_q_tilde),
            "nttmath.broadcast_us_per_row": lambda: bind(
                resolve(batch, "ntt_broadcast_rows"), params.q_primes,
                np.random.default_rng(3).integers(0, 1 << 30,
                                                  (k_q, params.n)),
                lazy=True),
            "rns.lift_ntt_ms": lambda: bind(
                resolve("repro.rns.lift", "lift_hps_ntt"),
                session.context.lift_ctx,
                self._residues(params.q_primes, 4, 4), lazy=True),
            "rns.scale_ntt_ms": lambda: bind(
                resolve("repro.rns.scale", "scale_hps_ntt"),
                session.context.scale_ctx, stack3),
            "fv.multiply_ms": lambda: bind(
                session.evaluator.multiply, *pair(), session.keys.relin,
                resident=True),
            "fv.multiply_raw_ms": lambda: bind(
                session.evaluator.multiply_raw, *pair()),
            "fv.relinearize_ms": relinearize,
            "fv.multiply_coeff_ms": multiply_coeff,
        })
        self._subtract("fv.tensor_self_ms", "fv.multiply_raw_ms",
                       "rns.lift_ntt_ms", "rns.scale_ntt_ms")
        self._subtract("fv.fold_self_ms", "fv.relinearize_ms",
                       "nttmath.broadcast_us_per_row")
        derived = [self.values[name] for name in
                   ("fv.tensor_self_ms", "fv.fold_self_ms")
                   if name in self.values]
        if derived:
            self.checks["min_derived_self_ms"] = min(derived)
        # Mult is multiply_raw then relinearize: the parts must add up.
        whole = self._round_diffs("fv.multiply_ms", "fv.multiply_raw_ms",
                                  "fv.relinearize_ms")
        if whole is not None:
            gap = abs(whole) / rows["fv.multiply_ms"]
            self.checks["multiply_parts_gap_frac"] = gap
            self.checks["multiply_parts_ok"] = gap <= 0.10
        for name, row_count in (
                ("nttmath.forward_us_per_row", 4 * k_total),
                ("nttmath.inverse_us_per_row", 3 * k_total),
                ("nttmath.inverse_scaled_us_per_row", 3 * k_total),
                ("nttmath.broadcast_us_per_row", k_q * k_q)):
            if name in rows:
                self.values[name] = rows[name] * 1e3 / row_count

        plain = functools.cache(
            lambda: session.encode(np.arange(16) % params.t))
        others = {
            "fv.encrypt_ms": lambda: bind(
                session.context.encrypt, plain(), session.keys.public,
                resident=True),
            "fv.decrypt_ms": lambda: bind(
                session.context.decrypt, pair()[0], session.keys.secret),
            "fv.noise_budget_ms": lambda: bind(
                resolve("repro.fv", "noise_budget_bits"), session.context,
                pair()[0], session.keys.secret),
            "fv.rotate_ms": lambda: bind(
                session.galois.apply_resident, pair()[0], galois_key[5]),
            "fv.mul_plain_ms": lambda: bind(
                session.context.mul_plain, pair()[0], plain(),
                m_ntt=session.plain_ntt(plain())),
            "fv.add_ms": lambda: bind(session.context.add, *pair()),
        }
        if self.workload.has_summation_keys:
            # Only where set-up already built the summation keys: at
            # n = 8192 generating them costs more than the whole pass.
            others["fv.sum_slots_ms"] = lambda: bind(
                session.galois.sum_all_slots_resident, pair()[0],
                session.summation_keys())
        self.timed(others)

    def _round_diffs(self, whole: str, *parts: str) -> float | None:
        """Median ms of the whole minus its timed parts, round by round:
        the probes of one round run back to back, so drift between
        rounds cancels. ``None`` if a term is absent."""
        series = [self.samples.get(key) for key in (whole, *parts)]
        if not all(series):
            return None
        return statistics.median(
            total - sum(rest) for total, *rest in zip(*series)) * 1e3

    def _subtract(self, name: str, whole: str, *parts: str) -> None:
        """A self time by subtraction. Reported as measured — a self
        time smaller than its terms' timing noise can read below zero."""
        value = self._round_diffs(whole, *parts)
        if value is None:
            self.absent[name] = "a term of the subtraction is absent"
        else:
            self.values[name] = value

    # -- optim, io, parallel ----------------------------------------------------------

    def optim(self) -> None:
        report = None

        def optimize():
            call = bind(resolve("repro.optim", "optimize_program"),
                        self.workload.raw_program())

            def run():
                nonlocal report
                report = call()[1]
            return run

        names = OPTIM[1:]
        if "optim.optimize_ms" in self.timed({"optim.optimize_ms": optimize}):
            self.group(names, lambda: {
                names[0]: report.before.keyswitches,
                names[1]: report.after.keyswitches})
        else:
            for name in names:
                self.absent[name] = "optim.optimize_ms is absent"

    def io(self) -> None:
        ct = self._ciphertexts(resident=True)[0]
        load = functools.partial(resolve, "repro.io", "load_ciphertext")
        with tempfile.TemporaryDirectory(dir=self.scratch_dir) as tmp:
            path = os.path.join(tmp, "ct.bin")
            timed = self.timed({
                "io.ct_save_ms": lambda: bind(
                    resolve("repro.io", "save_ciphertext"), path, ct),
                "io.ct_load_ms": lambda: bind(load(), path,
                                              self.session.params),
            })

            def size():
                restored = load()(path, self.session.params)
                if not same_parts(restored, ct):
                    raise ArithmeticError("wire round trip changed the ct")
                return {"io.ct_bytes": os.path.getsize(path)}

            if "io.ct_save_ms" in timed:
                self.group(("io.ct_bytes",), size)
            else:
                self.absent["io.ct_bytes"] = "io.ct_save_ms is absent"

    def parallel(self) -> None:
        names = PARALLEL

        def speedup():
            use_executor = resolve("repro.parallel", "use_executor")
            fallbacks = resolve("repro.parallel", "executor_fallbacks")
            session = self.session
            executor = self.workload.executor()
            a, b = self._ciphertexts(resident=True)
            call = bind(session.evaluator.multiply, a, b,
                        session.keys.relin, resident=True)
            products = {}

            def under(label, scope):
                def run():
                    with use_executor(scope):
                        products[label] = call()
                return run

            timed = self.timed({
                "_serial": lambda: under("serial", "serial"),
                "_threads": lambda: under("threads", executor),
            })
            del self.values["_serial"], self.values["_threads"]
            if not same_parts(products["serial"], products["threads"]):
                raise ArithmeticError("executor changed the product")
            return {names[0]: executor.workers,
                    names[1]: timed["_serial"] / timed["_threads"],
                    names[2]: len(fallbacks())}

        if resolve("repro.parallel", "available_cores")() < 2:
            for name in names:
                self.absent[name] = "fewer than 2 cores available"
            return
        self.group(names, speedup)

    # -- the modelled side: hw, system, serve, cluster, faults -----------------

    def hw(self) -> None:
        def mult():
            start = time.perf_counter()
            coprocessor, report = paper_mult_report()
            host_ms = (time.perf_counter() - start) * 1e3
            to_arm = coprocessor.config.fpga_to_arm_cycles
            stats = {op.value: stat for op, stat in report.op_stats.items()}
            compute = report.compute_cycles
            out = {"hw.mult_cycles": report.total_cycles,
                   "hw.mult_arm_cycles": report.arm_cycles,
                   "hw.mult_host_ms": host_ms}
            table2 = 0
            for op in HW_OPS:
                per_call = stats[op].cycles_per_call
                table2 += stats[op].cycles
                out[f"hw.instr_cycles.{op}"] = per_call
                out[f"hw.instr_share.{op}"] = stats[op].cycles / compute
                out[f"hw.instr_err_pct.{op}"] = (
                    abs(to_arm(round(per_call)) - PAPER_TABLE2[op])
                    / PAPER_TABLE2[op] * 100.0)
            # Table II's seven instructions against the Mult they make up.
            out["hw.table2_sum_err_pct"] = (abs(table2 - compute)
                                            / compute * 100.0)
            return out

        self.group(HW, mult)

    def system(self) -> None:
        cost = None

        def build():
            call = bind(resolve("repro.system", "CostModel"),
                        resolve("repro.params", "hpca19")())

            def run():
                nonlocal cost
                cost = call()
            return run

        names = SYSTEM[1:]
        if "system.costmodel_build_ms" in self.timed(
                {"system.costmodel_build_ms": build}):
            kinds = ("repro.system.workloads", "JobKind")
            self.group(names, lambda: {
                names[0]: cost.job_seconds(resolve(*kinds).MULT),
                names[1]: cost.job_seconds(resolve(*kinds).ROTATE)})
        else:
            for name in names:
                self.absent[name] = "system.costmodel_build_ms is absent"

    def simulator(self) -> None:
        """serve / cluster / faults, on the sim workload's first op (the
        same op in every run of a seed, so its simulated results and
        fault counts compare exactly)."""
        wl = self.workload
        backend = wl.backend
        op_seed = wl.sample
        reps = max(1, self.reps // 2)
        state: dict = {}

        def cluster():
            lowered = backend.lower(wl.program)
            state["jobs"], _ = backend.lower_jobs(
                lowered, requests=wl.SIM_REQUESTS, rate_per_second=wl.rate,
                num_tenants=wl.TENANTS, seed=op_seed)

            def run():
                state["report"] = backend.target_factory().run(state["jobs"])
            return run

        def serve():
            # One board's share of the op: the busiest shard's jobs.
            shard = max(state["report"].shard_reports,
                        key=lambda r: len(r.results))
            state["share"] = [r.job for r in shard.results]
            runtime = resolve("repro.serve", "ServingRuntime")
            return lambda: bind(runtime, backend.cost)().run(state["share"])

        def exact():
            run = wl.run_op(backend, op_seed)
            summary, failure = run.latency_summary(), run.failure_report
            return {"cluster.sim_p50_ms": summary.p50 * 1e3,
                    "cluster.sim_p99_ms": summary.p99 * 1e3,
                    "cluster.sim_goodput_rps": run.requests_per_second(),
                    "cluster.imbalance": run.report.imbalance(),
                    "faults.jobs_spilled": failure.jobs_spilled,
                    "faults.jobs_retried": failure.jobs_retried,
                    "faults.failovers": failure.failovers,
                    "faults.rehydrations": failure.rehydrations,
                    "faults.jobs_lost": failure.jobs_lost}

        def overhead():
            clean = wl.cluster_backend(None)
            timed = self.timed({
                "_clean": lambda: lambda: wl.run_op(clean, op_seed),
                "_fault": lambda: lambda: wl.run_op(backend, op_seed),
            }, reps=reps)
            del self.values["_clean"], self.values["_fault"]
            return {"faults.host_overhead_frac":
                    timed["_fault"] / timed["_clean"] - 1.0}

        self.timed({"api.sim_lower_ms":
                    lambda: bind(backend.lower, wl.program)})
        host = self.timed({"cluster.host_us_per_job": cluster}, reps=reps)
        host.update(self.timed({"serve.host_us_per_job": serve}, reps=reps))
        for name, jobs in (("cluster.host_us_per_job", "jobs"),
                           ("serve.host_us_per_job", "share")):
            if name in host:
                self.values[name] = host[name] * 1e3 / len(state[jobs])
        self.group(SIM_EXACT, exact)
        self.group(("faults.host_overhead_frac",), overhead)

    def run_all(self) -> None:
        """Every group that applies to the workload; a group that raises
        outside its own guards leaves its remaining metrics absent."""
        groups = [(self.engine, ENGINE), (self.optim, OPTIM), (self.io, IO),
                  (self.hw, HW), (self.system, SYSTEM)]
        if not self.workload.functional:
            groups.append((self.simulator, SIMULATOR))
        elif self.workload.threaded:
            groups.append((self.parallel, PARALLEL))
        for run, names in groups:
            try:
                run()
            except Exception as exc:  # the boundary that must keep running
                self._fail([name for name in names if name not in self.values
                            and name not in self.absent], exc)
