"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
both prints it and writes it to ``benchmarks/results/<name>.txt`` so the
numbers survive pytest's output capture.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.fv.encoder import Plaintext
from repro.fv.scheme import FvContext
from repro.hw.config import HardwareConfig
from repro.hw.coprocessor import Coprocessor
from repro.params import hpca19

RESULTS_DIR = Path(__file__).parent / "results"


def save_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


@pytest.fixture(scope="session")
def paper_params():
    return hpca19()


@pytest.fixture(scope="session")
def paper_context(paper_params):
    return FvContext(paper_params, seed=2019)


@pytest.fixture(scope="session")
def paper_keys(paper_context):
    return paper_context.keygen()


@pytest.fixture(scope="session")
def paper_ciphertexts(paper_context, paper_keys, paper_params):
    m1 = Plaintext.from_list([1, 1, 0, 1], paper_params.n, paper_params.t)
    m2 = Plaintext.from_list([1, 0, 1], paper_params.n, paper_params.t)
    ct1 = paper_context.encrypt(m1, paper_keys.public)
    ct2 = paper_context.encrypt(m2, paper_keys.public)
    return ct1, ct2


@pytest.fixture(scope="session")
def paper_coprocessor(paper_params):
    return Coprocessor(paper_params, HardwareConfig())


def relative_error(measured: float, paper: float) -> float:
    return (measured - paper) / paper


def format_row(label: str, measured, paper, unit: str = "") -> str:
    delta = relative_error(float(measured), float(paper)) * 100
    return (f"{label:<34} {measured:>14,.3f} {paper:>14,.3f} "
            f"{delta:>+7.1f}%  {unit}")
