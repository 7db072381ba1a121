"""The mutant catalogue: edits of ``src/`` that tier-1 must kill.

Each :class:`Mutant` is one exact text edit inside one function of
``src/repro`` (old text -> new text), named for the bug it plants, with
the test node ids that must fail once it is applied. A test that stops
killing its mutant has lost its worth, so the catalogue keeps what a
hand-made mutation check would otherwise throw away.

``python tests/mutants.py`` (``make mutants``) copies ``src/`` to a
temporary directory per mutant, applies the edit there, and runs the
mutant's tests against the copy in a subprocess (``PYTHONPATH`` points
at the copy); it prints each mutant's verdict and time and exits
non-zero when any mutant survives. ``python tests/mutants.py NAME ...``
runs the named mutants only.

Tier-1 runs only the stale-text check (``tests/test_mutants.py``): each
old text appears exactly once in its function, so a refactor that moves
or rewrites the code has to carry its mutants along.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    """One planted bug: ``old`` becomes ``new`` inside ``function``
    (``"name"`` or ``"Class.name"``) of ``src/repro/<path>``; every
    test of ``kills`` (node ids from the repository root) must then
    fail."""

    name: str
    path: str
    function: str
    old: str
    new: str
    kills: tuple[str, ...]


CATALOGUE = (
    # -- the residue word ---------------------------------------------------
    Mutant(
        "tensor product wraps in uint32", "fv/evaluator.py",
        "Evaluator._tensor_ntt",
        "np.multiply(a0[c0:c1], b0[c0:c1], out=wide, dtype=np.int64)",
        "np.multiply(a0[c0:c1], b0[c0:c1], out=wide)",
        ("tests/test_fv_evaluator.py::TestMultiply",)),
    Mutant(
        "RnsPoly subtract wraps modulo 2^32", "poly/rns_poly.py",
        "RnsPoly.__sub__",
        "sub_mod(self.residues, other.residues, self.basis.primes_col)",
        "(self.residues - other.residues) % self.basis.primes_col",
        ("tests/test_fv_scheme.py::TestEncryptDecrypt::"
         "test_sub_homomorphism",)),
    Mutant(
        "fold skips its conditional subtract", "fv/keyswitch.py",
        "key_switch",
        "sums[i] = add_mod(part_rows, sums[i], primes_col)",
        "sums[i] = part_rows + sums[i]",
        ("tests/test_keyswitch_fold.py::test_fold_matches_python_int_oracle",)),
    Mutant(
        "wire format reduces a non-canonical word", "fv/ciphertext.py",
        "Ciphertext.from_bytes",
        "if (words >= basis.primes_col).any():",
        "if False:",
        ("tests/test_resident_pipeline.py::TestNttWireFormat::"
         "test_non_canonical_word_is_refused",)),
    # -- exact arithmetic ---------------------------------------------------
    Mutant(
        "canonical reduction never adds q", "nttmath/batch.py",
        "reduce_exact",
        "np.bitwise_and(sign, p32, out=sign)",
        "np.bitwise_and(sign, 0, out=sign)",
        ("tests/test_batch_ntt.py::TestExtremalOperands",)),
    Mutant(
        "Scale's quotient drops its rounding half", "rns/lift.py",
        "_quotient_from_limbs",
        "np.add(acc, 1 << (fraction_bits - 46), out=acc)",
        "np.add(acc, 0, out=acc)",
        ("tests/test_rns.py::TestScaleBoundaries",)),
    Mutant(
        "fold reduces every fifth product", "fv/keyswitch.py",
        "key_switch",
        "if i % LAZY_WINDOW == 0 and i < len(pairs):",
        "if i % (LAZY_WINDOW + 1) == 0 and i < len(pairs):",
        ("tests/test_keyswitch_fold.py::"
         "test_relin_keys_take_one_word_per_residue",)),
    Mutant(
        "dispatch drops a stack's last chunk", "nttmath/batch.py",
        "BasisTransformer._dispatch",
        "for j0, j1 in chunks for c0, c1 in ranges]",
        "for j0, j1 in chunks[:-1] for c0, c1 in ranges]",
        ("tests/test_batch_ntt.py::TestBatchedTransformEquivalence",)),
    Mutant(
        "geometry gives the remainder to one stage too many",
        "nttmath/batch.py", "_geometry",
        "1 << (base + (t < extra))",
        "1 << (base + (t <= extra))",
        ("tests/test_batch_ntt.py::TestBatchedTransformEquivalence",)),
    # Exact, so only the layout pin sees it: n = 8192 runs 128 x 64.
    Mutant(
        "geometry caps stages at the 128-point exactness limit",
        "nttmath/batch.py", "_geometry",
        "-(-log_n // _MAX_STAGE_LOG)",
        "-(-log_n // (_MAX_STAGE_LOG + 1))",
        ("tests/test_batch_ntt.py::TestLargeRingEngine::"
         "test_geometry_table_and_exactness",)),
    Mutant(
        "Galois slot permutation off by one slot", "fv/galois.py",
        "_slot_permutation_cached",
        "perm = (source_odd - 1) // 2",
        "perm = (source_odd + 1) // 2 % n",
        ("tests/test_galois.py::TestHomomorphicRotation",)),
    Mutant(
        "noise norm skips its half-modulus shift", "rns/decrypt.py",
        "noise_norm",
        "u += context.half_col",
        "u += 0",
        ("tests/test_rns_decrypt.py::TestOracleDifferential::"
         "test_matches_bigint_oracle",)),
    # A serial run has one band, whose offset is 0: only a pool sees it.
    Mutant(
        "Scale band reads from column 0", "rns/scale.py", "_scale_bands",
        "_scale_band(context, x_prime[idx, :, lo:hi], out[idx, :, lo:hi])",
        "_scale_band(context, x_prime[idx, :, :hi - lo], out[idx, :, lo:hi])",
        ("tests/test_rns.py::TestColumnBands::"
         "test_banded_kernels_equal_serial",)),
    # -- the serving model --------------------------------------------------
    Mutant(
        "retry budget grants one attempt too many", "cluster/cluster.py",
        "FpgaCluster._schedule_retry",
        "if attempt > retry.max_attempts:",
        "if attempt > retry.max_attempts + 1:",
        ("tests/test_faults.py::TestClusterFaults::"
         "test_retry_budget_exhaustion_is_counted_loss",)),
    Mutant(
        "FAULT and RETRY rank with board events", "serve/events.py",
        "EventHeap.push",
        "0 if kind is _FAULT or kind is _RETRY else 1",
        "1",
        ("tests/test_serving_runtime.py::TestEventHeap::"
         "test_faults_and_retries_rank_before_board_events",
         "tests/test_serving_pins.py::TestSameInstantFaultPins")),
    # The memo is cleared when its DISPATCH runs; left set, a job that
    # reaches a board later in the same instant waits for the next event.
    Mutant(
        "a DISPATCH that ran skips the next one at its instant",
        "serve/engine.py", "ServingRuntime.handle",
        "self._dispatch_at = None",
        "pass",
        ("tests/test_serving_runtime.py::TestOneDispatchPerInstant::"
         "test_an_arrival_after_its_instants_dispatch_gets_another",)),
)


def _function_span(path: Path, qualname: str) -> tuple[int, int]:
    """Character offsets of ``qualname``'s definition in ``path``."""
    text = path.read_text()
    tree = ast.parse(text)
    node: ast.AST = tree
    for part in qualname.split("."):
        node = next((child for child in ast.iter_child_nodes(node)
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                     and child.name == part), None)
        if node is None:
            raise LookupError(f"{path.name} has no {qualname}")
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return starts[first - 1], starts[node.end_lineno]


def stale(mutant: Mutant, src: Path = SRC) -> str | None:
    """Why ``mutant`` cannot be applied to ``src``, or None when its old
    text appears exactly once in its function."""
    path = src / "repro" / mutant.path
    if not path.is_file():
        return f"{mutant.path} is gone"
    try:
        lo, hi = _function_span(path, mutant.function)
    except LookupError as exc:
        return str(exc)
    count = path.read_text()[lo:hi].count(mutant.old)
    if count != 1:
        return f"old text appears {count} times in {mutant.function}"
    return None


def apply(mutant: Mutant, src: Path) -> None:
    """Write ``mutant``'s edit into the copy of the sources at ``src``."""
    reason = stale(mutant, src)
    if reason is not None:
        raise ValueError(f"{mutant.name}: {reason}")
    path = src / "repro" / mutant.path
    text = path.read_text()
    lo, hi = _function_span(path, mutant.function)
    path.write_text(text[:lo] + text[lo:hi].replace(mutant.old, mutant.new)
                    + text[hi:])


def run(mutant: Mutant) -> str:
    """``"killed by <test>"``, ``"survived"`` or ``"error: ..."`` for
    one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, copy)
        env = {**os.environ, "PYTHONPATH": str(copy),
               "PYTHONDONTWRITEBYTECODE": "1"}
        probe = subprocess.run(
            [sys.executable, "-c", "import repro; print(repro.__file__)"],
            env=env, capture_output=True, text=True, check=False)
        if not probe.stdout.startswith(str(copy)):
            return f"error: repro imported from {probe.stdout.strip()!r}"
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *mutant.kills],
            cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    # pytest exits 1 when a test failed; 0 means every test passed, and
    # anything else (collection error, no tests) is a broken entry.
    if tests.returncode == 1:
        failed = [line.split()[1] for line in tests.stdout.splitlines()
                  if line.startswith("FAILED ")]
        return f"killed by {failed[0] if failed else '?'}"
    if tests.returncode == 0:
        return "survived"
    return f"error: pytest exited {tests.returncode}\n{tests.stdout[-2000:]}"


def main(names: list[str]) -> int:
    chosen = [m for m in CATALOGUE if not names or m.name in names]
    unknown = set(names) - {m.name for m in CATALOGUE}
    if unknown:
        print(f"no such mutant: {sorted(unknown)}")
        return 2
    start = time.perf_counter()
    bad = 0
    for mutant in chosen:
        begun = time.perf_counter()
        verdict = run(mutant)
        bad += not verdict.startswith("killed")
        print(f"{time.perf_counter() - begun:5.1f} s  {mutant.name}: "
              f"{verdict}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
