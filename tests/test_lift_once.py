"""Each Mult operand is lifted q->Q once per program run.

``LocalBackend.run`` lifts a node that two or more Mult nodes consume
with the first of them (both operands in one ``Evaluator.lift`` call
when both qualify) and hands the held ``Lifted`` rows to the rest,
dropping them after the last. The lift is deterministic, so:

* a program's outputs equal the same chain done op by op on plain
  ciphertexts, residue for residue, serial and threaded;
* a node one Mult consumes is lifted inside that Mult, as before;
* nothing lifted outlives ``run``, whether it returns or raises;
* every transform of a Mult lies under one of its five kernel spans.
"""

import gc
import weakref

import numpy as np
import pytest

import repro.parallel.config as parallel_config
from repro.api import LocalBackend, Session
from repro.apps import EncryptedMatmul
from repro.fv import Ciphertext
from repro.parallel import ExecutionConfig, use_executor
from repro.params import hpca19, mini
from scaffolding import spans_of, toy

KERNELS = ("mult.lift", "mult.tensor", "mult.scale", "keyswitch.decompose",
           "keyswitch.fold")


@pytest.fixture(scope="module")
def session():
    return Session(hpca19(), seed=30)


def _depth4(session, seed=0):
    rng = np.random.default_rng(seed)
    n = session.params.n
    a = session.encrypt(rng.integers(0, 2, n))
    b = session.encrypt(rng.integers(0, 2, n))
    return a, b, session.compile((((a * b) * a) * b) * a)


def _lift_spans(trace):
    return [s for s in spans_of(trace, "kernel") if s.name == "mult.lift"]


def _rows(spans):
    """Transform rows spent under ``spans``."""
    return sum(t.attrs["rows"] for s in spans for t in s.walk()
               if t.kind == "transform")


def _record_lifts(monkeypatch, session):
    """Weak references to every ``Lifted`` (and its rows) made."""
    refs = []
    lift = session.evaluator.lift

    def recording(*cts):
        held = lift(*cts)
        refs.extend(ref for item in held
                    for ref in (weakref.ref(item), weakref.ref(item.rows)))
        return held

    monkeypatch.setattr(session.evaluator, "lift", recording)
    return refs


@pytest.mark.parametrize("executor", [("serial", 1), ("threads", 2)],
                         ids=["serial", "threads@2"])
def test_depth4_matches_the_op_by_op_chain(session, executor, monkeypatch):
    monkeypatch.setattr(parallel_config, "PARALLEL_MIN_WORK", 1)
    a, b, program = _depth4(session)
    x, y = a.node.cached, b.node.cached
    with use_executor(ExecutionConfig(*executor)):
        result = LocalBackend(session).run(program)
    # The serial chain on plain ciphertexts, each Mult lifting its own
    # operands; every product lives in the evaluation domain.
    evaluator, relin = session.evaluator, session.keys.relin
    chain = evaluator.multiply(x, y, relin)
    chain = evaluator.multiply(chain, x, relin)
    chain = evaluator.multiply(chain, y, relin)
    chain = evaluator.multiply(chain, x, relin)
    out = result["out"].ciphertext
    assert out.domain == "ntt"
    for got, want in zip(out.parts, chain.parts, strict=True):
        assert np.array_equal(got.residues, want.residues)


def test_depth4_lifts_each_input_once_and_spans_every_step(session):
    _, _, program = _depth4(session, seed=1)
    backend = LocalBackend(session)
    backend.run(program)
    trace = backend.last_trace
    # Mult 1 lifts a and b in one call; Mults 2-4 lift only the fresh
    # product, taking the held a or b.
    assert [s.attrs["parts"] for s in _lift_spans(trace)] == [4, 2, 2, 2]
    kernels = [s.name for s in spans_of(trace, "kernel") if s.name in KERNELS]
    assert {name: kernels.count(name) for name in KERNELS} == \
        dict.fromkeys(KERNELS, 4)
    params = session.params
    assert _rows(_lift_spans(trace)) == 10 * (params.k_p + params.k_q)

    def transforms_outside_kernels(span, inside):
        if span.kind == "transform" and not inside:
            yield span
        for child in span.children:
            yield from transforms_outside_kernels(
                child, inside or (span.kind == "kernel"
                                  and span.name in KERNELS))

    mults = [s for s in trace.op_spans() if s.attrs["op"] == "MULTIPLY"]
    assert len(mults) == 4
    assert all(any(t.kind == "transform" for t in op.walk()) for op in mults)
    assert [t for op in mults
            for t in transforms_outside_kernels(op, False)] == []


@pytest.mark.parametrize("params", [toy, mini], ids=["toy", "mini"])
def test_single_mult_consumer_is_lifted_inside_its_mult(params, monkeypatch):
    """``a * b + a`` (the ``mult_n8192_threads`` shape) and ``x * x``:
    one Mult consumer each, so nothing is lifted ahead of time."""
    session = Session(params(), seed=31)
    operands = []
    multiply = session.evaluator.multiply
    monkeypatch.setattr(
        session.evaluator, "multiply",
        lambda x, y, *rest, **kw: operands.append((x, y))
        or multiply(x, y, *rest, **kw))
    a, b, c = (session.encrypt(bits) for bits in ([1, 0, 1], [1, 1], [0, 1]))
    backend = LocalBackend(session)
    backend.run(session.compile({"sum": a * b + a, "square": c * c}))
    # Both Mults get their ciphertexts and lift them themselves: (a, b)
    # in one call, c's two parts once.
    assert len(operands) == 2
    assert all(isinstance(x, Ciphertext) for pair in operands for x in pair)
    assert sorted(s.attrs["parts"] for s in _lift_spans(backend.last_trace)) \
        == [2, 4]


def test_nothing_lifted_outlives_the_run(session, monkeypatch):
    refs = _record_lifts(monkeypatch, session)
    _, _, program = _depth4(session, seed=2)
    backend = LocalBackend(session)
    result = backend.run(program)
    # a and b, held across Mults, plus the three products, each lifted
    # inside its one consumer: five Lifted and their rows.
    assert len(refs) == 2 * 5
    assert all(ref() is None for ref in refs)
    assert result.decrypt() is not None

    # A run that raises mid-program drops its held lifts with the frame.
    refs.clear()
    _, _, program = _depth4(session, seed=3)
    relinearize = session.evaluator.relinearize
    done = []

    def failing(*args, **kwargs):
        if done:
            raise RuntimeError("injected")
        done.append(True)
        return relinearize(*args, **kwargs)

    monkeypatch.setattr(session.evaluator, "relinearize", failing)
    with pytest.raises(RuntimeError, match="injected"):
        backend.run(program)
    gc.collect()
    assert refs and all(ref() is None for ref in refs)


def test_optimised_matmul_lifts_each_block_once():
    """2 x 2 entries over two inner blocks: every A block meets both B
    blocks of its index through a MULTIPLY_RAW, so the eight operand
    blocks are lifted once each instead of sixteen times."""
    session = Session(mini(t=65537), seed=32)
    matmul = EncryptedMatmul(session, block_slots=4)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 100, (2, 8)).tolist()
    b = rng.integers(0, 100, (8, 2)).tolist()
    rows, cols = matmul.encrypt_rows(a), matmul.encrypt_cols(b)
    program = matmul.matmul_program(rows, cols, optimize=True)
    raw = [n for n in program.nodes if n.op.name == "MULTIPLY_RAW"]
    assert len(raw) == 8 and len(program.inputs) == 8
    backend = LocalBackend(session)
    result = backend.run(program)
    want = EncryptedMatmul.reference(a, b, session.params.t)
    for i, row in enumerate(want):
        for j, value in enumerate(row):
            assert matmul.decrypt_entry(result.handle(f"c{i}_{j}")) == value
    # Coefficient-domain inputs: one lift is 2 parts x k_total forward
    # rows, and nothing else is lifted.
    spans = _lift_spans(backend.last_trace)
    assert sum(s.attrs["parts"] for s in spans) == 2 * 8
    assert _rows(spans) == 8 * 2 * session.params.k_total
