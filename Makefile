# Single source of truth for the commands CI runs, so local dev and
# the workflow can never drift: `make test` is exactly the tier-1
# gate, `make smoke` the CLI runs that follow it, `make test-parallel`
# the same suite forced through the thread pool (`make blas-steered`
# its precondition), `make lint` / `make coverage` / `make chaos-smoke`
# are CI jobs, `make ledger` / `make ledger-quick` run the perf ledger
# (the repo's one benchmark, see benchmarks/ledger/README.md; CI runs
# the quick pass per PR and the full one nightly), `make cluster-demo`
# is the multi-FPGA acceptance run, `make mutants` the mutant catalogue.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test smoke test-parallel blas-steered lint coverage ledger \
	ledger-quick cluster-demo chaos-smoke mutants clean

# --durations=10: the ten slowest phases in every log, so the tier-1
# time budget (ROADMAP.md) stays visible.
test:
	$(PYTHON) -m pytest -x -q --durations=10

# CI test job, after the suite: `all` (every paper table, Fig. 3, the
# headline canary and the noise budget, so the log shows each record
# view once), the serving runtime end to end, the heterogeneous cluster
# (the one caller that mixes board designs), and the trace command, the
# one CLI command that prints the metrics registry's exposition.
smoke:
	$(PYTHON) -m repro all
	$(PYTHON) -m repro serve
	$(PYTHON) -m repro cluster --shards 4 --hetero
	$(PYTHON) -m repro trace mult --out "$$(mktemp -d)"

# CI test-parallel job: tier-1 with every engine fan-out (transform
# tiles, channel bands, column bands) forced through a 4-thread pool
# (`--threads`, an option of tests/conftest.py). `blas-steered` is the
# job's first step: a real pool must own BLAS threading on the runner,
# so a numpy packaging change that breaks the OpenBLAS lookup fails CI
# instead of silently costing the speedup.
test-parallel:
	$(PYTHON) -m pytest -x -q --threads 4

blas-steered:
	$(PYTHON) -c "from repro.parallel import ThreadPoolExecutor; \
	pool = ThreadPoolExecutor(4); blas = pool.blas; pool.close(); \
	print(blas.describe()); assert blas.steered, blas"

lint:
	ruff check src tests benchmarks examples

coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term \
		--cov-fail-under=80

# The perf ledger: absolute end-to-end and per-layer numbers on the
# four BENCHMARK.json workloads, written to benchmarks/ledger/out/
# (~3 min; --quick ~25 s). The nightly CI job uploads the record files.
ledger:
	$(PYTHON) benchmarks/ledger/run.py

ledger-quick:
	$(PYTHON) benchmarks/ledger/run.py --quick

cluster-demo:
	$(PYTHON) -m repro cluster --shards 8

# CI test-faults job: the fault-injection suite on fixed FaultPlan
# seeds (it holds the mid-run board-kill gates: zero loss, >= 99 %
# availability, < 3x p99), the exact pins of the served numbers (the
# seeded chaos run, the round-robin router run, the same-instant
# fault run, the closed-loop chaos run and the weighted-fair board),
# the cluster routing suite, the board runtime suite (event heap, one
# DISPATCH per instant, price memo) every cluster run stands on, the
# stdout SHA-256 pins (`serve`, `cluster --shards 4` and the paper
# artefacts), plus the seeded chaos run end to end.
chaos-smoke:
	$(PYTHON) -m pytest -x -q tests/test_faults.py tests/test_serving_pins.py \
		tests/test_cluster.py tests/test_serving_runtime.py
	$(PYTHON) -m pytest -x -q tests/test_extensions.py -k byte_identical
	$(PYTHON) -m repro cluster --shards 8 --faults 2019 --replicas 2

# CI mutants job: every planted bug of tests/mutants.py applied to a
# copy of src/ and run against the tests that must kill it, one
# subprocess per mutant (~30 s on 2 cores); fails when one survives.
mutants:
	$(PYTHON) tests/mutants.py

clean:
	rm -rf .pytest_cache .ruff_cache .coverage htmlcov
	find . -name __pycache__ -type d -exec rm -rf {} +
