"""Shared fixtures: parameter sets, contexts, and keys.

Key generation is the slow part of the suite, so contexts and key sets
are session-scoped; tests must not mutate them.

``pytest --threads N`` runs every test inside an N-worker thread pool
with the fan-out size gate at 1, so every transform tile, channel band
and column band in the suite goes through the parallel dispatch path
(``make test-parallel``).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.parallel.config as parallel_config
from repro.fv.scheme import FvContext
from repro.obs import scoped_metrics
from repro.parallel import ExecutionConfig, use_executor
from repro.params import hpca19, mini, toy


def pytest_addoption(parser):
    parser.addoption(
        "--threads", type=int, default=None, metavar="N",
        help="run every test under an N-worker thread pool with every "
             "engine fan-out forced through it")


@pytest.fixture(autouse=True)
def _isolated_metrics():
    """Give every test its own metrics registry plane.

    Transform counters, cache events and any other registered
    instrument land in a per-test registry, so tests can assert on (or
    reset) counters without observing — or corrupting — each other.
    """
    with scoped_metrics() as registry:
        yield registry


@pytest.fixture(autouse=True)
def _forced_pool(request, monkeypatch):
    """With ``--threads N``, scope an N-worker pool over the test and
    drop the fan-out size gate to 1; otherwise the engine runs serial."""
    workers = request.config.getoption("--threads")
    if workers is None:
        yield None
        return
    monkeypatch.setattr(parallel_config, "PARALLEL_MIN_WORK", 1)
    with use_executor(ExecutionConfig("threads", workers)) as pool:
        yield pool


@pytest.fixture(scope="session")
def toy_params():
    return toy()


@pytest.fixture(scope="session")
def mini_params():
    return mini()


@pytest.fixture(scope="session")
def paper_params():
    return hpca19()


@pytest.fixture(scope="session")
def toy_context(toy_params):
    return FvContext(toy_params, seed=1234)


@pytest.fixture(scope="session")
def toy_keys(toy_context):
    return toy_context.keygen()


@pytest.fixture(scope="session")
def mini_context(mini_params):
    return FvContext(mini_params, seed=5678)


@pytest.fixture(scope="session")
def mini_keys(mini_context):
    return mini_context.keygen()


@pytest.fixture()
def rng():
    return np.random.default_rng(97)
