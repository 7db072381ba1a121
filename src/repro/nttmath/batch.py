"""Batched limb-parallel negacyclic NTT engine.

This is the software analogue of the paper's headline parallelism: all
``k`` RPAUs transform their residue channels *simultaneously*. A
:class:`BasisTransformer` transforms the whole ``(k, n)`` residue
matrix of an RNS polynomial in one shot instead of looping over limbs
in Python the way the single-prime
:class:`~repro.nttmath.ntt.NegacyclicTransformer` oracle does.

The engine uses the four-step decomposition ``n = n1 * n2`` (the same
factorisation the paper's pipelined NTT unit streams through its
butterfly array): a size-n1 sub-NTT, an element-wise twiddle
correction, a transpose, and a size-n2 sub-NTT. Because the
sub-transforms are short, each one is evaluated as a *dense matrix
product* in float64 — operands split into narrow limbs so every BLAS
partial sum stays below 2^53 and is therefore exact — which turns the
NTT's many memory-bound element-wise passes into a handful of
compute-dense dgemm calls. The remaining element-wise work per
transform is the division-free reductions and twiddle multiplies
between stages. See :class:`BasisTransformer` for the detailed
numerics.

Large rings generalise the recipe recursively. Two limits size a
stage, and they are not the same. The *exactness limit* is 128 points:
every stage carries two 15-bit limbs, exact through a 128-point sub-DFT
and not through 256, checked per stage by :func:`_limbs_exact`. The
*cost cap* is 64 points (:data:`_MAX_STAGE_LOG`), the measured optimum:
a sub-DFT costs its length in multiply-adds per element, so two stages
of 128 x 64 cost more than three of 32 x 16 x 16 and their extra twiddle
pass. Above n = 4096, where a two-stage split would need a sub-DFT
beyond 64 points, ``n`` factors into *three* sub-DFTs (n = 8192 runs
32 x 16 x 16, 16384 runs 32 x 32 x 16, 32768 runs 32 x 32 x 32). The
layout is a closed form of ``n`` (:func:`_geometry`) and the engine's
own choice: the ``hw`` cycle model keeps the paper's n1 x n2 NTT unit.

Every transform has one code path, :meth:`_GemmPlan.run`, like the
paper's NTT unit streaming many polynomials through one configured
datapath: a ``(j, k, n)`` stack — or a stack of raw digit rows, for the
broadcast transform — runs in chunks of a few polynomials, each stage
once per chunk, serially or as channel tiles over the active executor.

The engine serves one envelope, the paper's datapath: primes below 31
bits (4q < 2^32 for the lazy reductions and the int32 state between
stages) and ring degrees up to
``MAX_ENGINE_N`` = 32768. :class:`BasisTransformer` refuses anything
outside it with a :class:`~repro.errors.ParameterError`, and
:class:`~repro.params.ParameterSet` checks the same envelope when a
parameter set is built, so there is no second transform path.

Memory follows the paper's coprocessor, which keeps one twiddle ROM per
prime and transforms a polynomial over Q = q * p as two RPAU batches,
the q rows and then the p rows (Sec. V-A1): the engine caches the q
and p bases only, each prime's tables live in exactly one of them, and
a Q-basis transform runs as one call per basis writing into one
destination (``out``). A basis holds one table set, a parallel tile
runs a ``[c0:c1]`` channel view of it (:meth:`_GemmPlan.subset`), and
each thread holds one scratch buffer (:func:`scratch`).

All transforms are bit-exact against :func:`~repro.nttmath.ntt.ntt_iterative`
and the single-prime ``NegacyclicTransformer`` — the property tests
enforce this across ring sizes (up to n = 32768) and basis shapes.

Transform accounting reports through :mod:`repro.obs`: the row/call
counters are registered instruments on the scoped metrics registry
(see :data:`TRANSFORM_COUNTER`), and when a tracer is active each
batched invocation also emits a nested "transform" span via
:func:`repro.obs.maybe_span`, so a :class:`~repro.obs.TraceReport`
can attribute engine time to individual program ops.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from ..errors import ParameterError
from ..obs import Counter as _ObsCounter
from ..obs import maybe_span
from ..parallel import active_executor, fans_out, map_tiles, split_range
from ..utils import log2_exact
from .modmath import modinv
from .ntt import _MAX_MODULUS_BITS, power_table
from .primes import root_of_unity

MAX_ENGINE_N = 1 << 15
"""Largest ring degree the gemm engine serves: Table V's largest point
and the property-tested envelope. :class:`~repro.params.ParameterSet`
imports it, so a parameter set outside it is refused at construction."""

#: Maximum value the engine accepts as a sub-transform input: canonical
#: residues and raw 30-bit digits both satisfy it.
_MAX_INPUT = (1 << 30) - 1

#: Elements a chunk of a stack spans at most (when one polynomial is
#: smaller): 64 Ki elements keep a chunk's three scratch planes within
#: 1.5 MiB, inside a core's L2. At n = 4096 that is two polynomials of
#: the 6- and 7-prime bases and one of 13 primes; larger chunks measured
#: slower per row, smaller ones pay each pass's call overhead more.
_CHUNK_ELEMENTS = 1 << 16

RESIDUE = np.uint32
"""The residue word, the dtype of every stored residue array (keys,
ciphertexts, digits, Lift / Scale results, the wire format, ``hw``
registers). Every prime is exactly 30 bits, so a canonical residue, a
lazy [0, 2q) one and a sum of two lazy ones (< 2^32) fit one unsigned
32-bit word, the paper's BRAM and DDR word. Unsigned, a conditional
subtract is a wrapping difference and a minimum (:func:`add_mod`);
products widen to int64 (:func:`mul_mod`)."""


def to_residues(values: np.ndarray, primes_col: np.ndarray) -> np.ndarray:
    """``values mod q`` in residue words, reduced in ``values``' own type
    (signed, int64 products), to which the prime column is cast."""
    out = np.empty(np.broadcast_shapes(values.shape, primes_col.shape), RESIDUE)
    col = primes_col.astype(np.result_type(values, primes_col), copy=False)
    return np.remainder(values, col, out=out, casting="unsafe")


def mul_mod(a, b, primes_col: np.ndarray) -> np.ndarray:
    """``a * b mod q``; the product widens to int64 (uint32 would wrap)."""
    return to_residues(np.multiply(a, b, dtype=np.int64), primes_col)


def add_mod(a, b, primes_col: np.ndarray) -> np.ndarray:
    """``a + b mod q`` for a sum below 2q, in 32 bits: the minimum of the
    sum and its wrapping difference with the residue-word prime column."""
    total = np.add(a, b, dtype=RESIDUE)
    return np.minimum(total, total - primes_col, out=total)


def sub_mod(a, b, primes_col: np.ndarray) -> np.ndarray:
    """``a - b mod q`` for canonical ``b`` as ``a + (q - b)`` (a uint32
    difference wraps modulo 2^32, not q); ``a = 0`` negates."""
    return add_mod(a, primes_col - b, primes_col)


# -- transform accounting ------------------------------------------------------


TRANSFORM_COUNTER = _ObsCounter(
    "repro_ntt_transforms_total",
    "NTT engine transform work: rows = single-polynomial row "
    "transforms (the unit one RPAU performs), calls = batched engine "
    "invocations.",
    labels=("kind",),
)
"""The transform instrument, registered in :mod:`repro.obs`.

Values live in whichever :class:`~repro.obs.MetricsRegistry` is
active — the :func:`~repro.obs.scoped_metrics` context gives each test
or concurrent backend its own counter plane, so one run's counts never
mix with a sibling's (the pre-registry global counter hazard). The
counters drive
:class:`~repro.api.backends.LocalBackend` telemetry, which is how the
tests pin the transform rows each op and program pays.
"""

_TRANSFORM_KEYS = ("forward_rows", "inverse_rows", "forward_calls",
                   "inverse_calls")


def _count_transform(direction: str, rows: int) -> None:
    TRANSFORM_COUNTER.inc(rows, kind=f"{direction}_rows")
    TRANSFORM_COUNTER.inc(1, kind=f"{direction}_calls")


def transform_counts() -> dict[str, int]:
    """Current transform counters (of the active registry) as a dict."""
    return {key: int(TRANSFORM_COUNTER.value(kind=key))
            for key in _TRANSFORM_KEYS}


#: Every stage splits its operands into two 15-bit limbs: a signed top
#: limb (an arithmetic shift) and a low limb in [0, 2^15).
_LIMBS = 2
_LIMB_BITS = 15

#: Largest sub-DFT a stage runs, as a power of two: the 64-point cost
#: cap. It is not the exactness limit, which is 128 points (two 15-bit
#: limbs carry 30-bit values exactly through 128, not through 256;
#: :func:`_limbs_exact`), but the measured optimum. Forward + inverse
#: in microseconds per row, median of 8 rounds, each cap's transformer
#: interleaved in one process on a ``(2, 12, n)`` stack (q basis of
#: ``large_ring(n)``), one BLAS thread as under a pool, 2-core Xeon:
#:
#: ======  ===================  ======================
#: n       128-point cap        64-point cap
#: ======  ===================  ======================
#: 8192    128 x 64: 861        32 x 16 x 16: 669
#: 16384   128 x 128: 2049      32 x 32 x 16: 1529
#: ======  ===================  ======================
#:
#: With BLAS on both cores the same pairs read 839 / 761 and
#: 1629 / 1557. At n = 4096 (six primes) three stages, 16 x 16 x 16,
#: tie with 64 x 64 (368 against 373), so the cap keeps two there.
_MAX_STAGE_LOG = 6


def _limbs_exact(length: int, max_prime: int) -> bool:
    """Whether the two-limb split keeps a length-``length`` sub-DFT
    exact for every input a stage sees: values in [-2^30, 2^30).

    The first stage reads canonical residues or raw 30-bit digits, and
    every later stage reads a twiddle product of magnitude below
    ``q / 2 + 2^8`` (see :meth:`_GemmPlan.run`), so a top limb lies in
    [-2^15, 2^15) and a low limb in [0, 2^15). A gemm dot product
    sums ``2 * length`` products of a table entry (< max_prime) with a
    limb; exactness requires every partial sum — and the
    quotient-times-modulus product of the float reduction that follows,
    which can overshoot by up to one modulus — to stay at or below
    2^53, where float64 integer arithmetic is exact. The positive side
    (both limbs at most 2^15 - 1) is the larger one.
    """
    limb_max = (1 << _LIMB_BITS) - 1
    bound = length * (max_prime - 1) * 2 * limb_max
    return bound + max_prime <= 1 << 53


def _geometry(n: int, max_prime: int) -> tuple[int, ...]:
    """The engine's factorisation of ``n`` into sub-DFT lengths, a
    closed form of ``n``: ``max(2, ceil(log2 n / 6))`` stages — so no
    sub-DFT exceeds the 64-point cost cap (:data:`_MAX_STAGE_LOG`) —
    with ``log2 n`` split evenly and the remainder going to the leading
    stages (n = 4096 runs 64 x 64, 8192 runs 32 x 16 x 16, 16384 runs
    32 x 32 x 16, 32768 runs 32 x 32 x 32). Every stage must also be
    within the 128-point exactness limit, which :func:`_limbs_exact`
    checks for the basis's largest prime.

    Raises :class:`ParameterError` when a stage cannot be made exact.
    """
    log_n = log2_exact(n)
    num = max(2, -(-log_n // _MAX_STAGE_LOG))
    base, extra = divmod(log_n, num)
    factors = tuple(1 << (base + (t < extra)) for t in range(num))
    for f in factors:
        if not _limbs_exact(f, max_prime):
            raise ParameterError(
                f"degree {n} admits no exact limb-split factorisation"
            )
    return factors


class BasisTransformer:
    """Vectorised negacyclic NTT over a whole RNS basis at once.

    The transform uses the four-step decomposition ``n = n1 * n2`` the
    paper's pipelined NTT unit is built around — a size-n1 NTT down the
    columns of the (n1, n2) coefficient matrix, an element-wise twiddle
    correction, a transpose, and a size-n2 NTT over the transposed
    matrix — up to n = 4096, generalised recursively to *three* stages
    above it (sub-DFT, twiddle, sub-DFT, twiddle, sub-DFT). Every factor
    is at most 64 points, the cost cap (n = 8192 runs 32 x 16 x 16, not
    the 128 x 64 the 128-point exactness limit would allow; see
    :data:`_MAX_STAGE_LOG` for the per-row times). Every short sub-NTT
    is computed as a *dense matrix product* evaluated by BLAS in
    float64:

    * each operand is split into two 15-bit limbs and the sub-DFT
      matrix is stored as the (L, 2L) block ``[W * 2^15 mod q | W]``,
      so one dgemm per stage computes the exact sub-transform (every
      partial sum stays at or below 2^53, where float64 arithmetic on
      integers is exact — :func:`_limbs_exact` checks the bound per
      stage);
    * the negacyclic psi^i pre-twist is folded into the stage-1 matrix
      and the twiddle tables, and the inverse transform's
      ``psi^-j / n`` post-scale is folded into its twiddles and final
      stage matrix, so neither costs a separate pass;
    * the post-gemm reductions run in float64 too (quotients are below
      2^23, so ``g - rint(g/q) * q`` is exact) and leave a signed
      balanced remainder, cast once to the int32 state; the twiddle
      multiply takes its quotient in float as well and finishes in
      wrapping int32 arithmetic, and the next stage splits that state
      directly, with no conditional subtract between stages;
    * a ``(j, k, n)`` stack runs in chunks of a few polynomials with
      every stage once per chunk — one batched dgemm, and every
      element-wise pass over the whole chunk — and
      :meth:`forward_broadcast` does the same over raw digit rows: one
      limb split and one tall stage-0 dgemm per row cover all ``k``
      channels (the paper's fused WordDecomp + NTT).

    This is what "as fast as numpy allows" looks like for an exact NTT:
    the butterflies' many memory-bound element passes become a handful
    of compute-dense BLAS calls. Results are bit-identical to the
    single-prime :class:`~repro.nttmath.ntt.NegacyclicTransformer` and
    to the paper-literal :func:`~repro.nttmath.ntt.ntt_iterative`.
    Instances are cached per ``(primes, n)`` via
    :func:`basis_transformer`. A basis outside the engine's envelope
    (see the module docstring) raises :class:`ParameterError`.
    """

    def __init__(self, primes: tuple[int, ...], n: int) -> None:
        self.primes = tuple(int(p) for p in primes)
        self.n = n
        log2_exact(n)  # n must be a power of two
        if n > MAX_ENGINE_N:
            raise ParameterError(
                f"ring degree {n} exceeds the NTT engine's envelope "
                f"(n <= {MAX_ENGINE_N})"
            )
        for p in self.primes:
            if p.bit_length() > _MAX_MODULUS_BITS - 1:
                raise ParameterError(
                    f"modulus {p} exceeds {_MAX_MODULUS_BITS - 1} bits; the "
                    "lazy-reduction datapath needs 4q < 2^32"
                )
            if (p - 1) % (2 * n) != 0:
                raise ParameterError(
                    f"modulus {p} is not NTT-friendly for degree {n}"
                )
        factors = self.factors = _geometry(n, max(self.primes))
        self.k = len(self.primes)
        self.primes_col = np.array(self.primes, dtype=np.int64)[:, None]
        self._fwd = _GemmPlan.build(self.primes, n, factors, inverse=False)
        self._inv = _GemmPlan.build(self.primes, n, factors, inverse=True)
        self._scaled_inv: dict[tuple[int, ...], _GemmPlan] = {}

    def subset(self, c0: int, c1: int) -> BasisTransformer:
        """The transformer of channels ``[c0, c1)``: views of this
        basis's tables (:meth:`_GemmPlan.subset`), never a second table
        set. The coprocessor model runs a row batch that covers part of
        the q or p basis on such a view."""
        view = object.__new__(BasisTransformer)
        view.primes = self.primes[c0:c1]
        view.n = self.n
        view.factors = self.factors
        view.k = len(view.primes)
        view.primes_col = self.primes_col[c0:c1]
        view._fwd = self._fwd.subset(c0, c1)
        view._inv = self._inv.subset(c0, c1)
        view._scaled_inv = {}
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BasisTransformer(k={self.k}, n={self.n}, "
                f"factors={self.factors})")

    # -- internals ---------------------------------------------------------------

    def _check(self, matrix: np.ndarray) -> tuple[np.ndarray, bool]:
        arr = np.asarray(matrix, dtype=RESIDUE)
        if arr.ndim == 2:
            stacked = False
            arr = arr[None, :, :]
        elif arr.ndim == 3:
            stacked = True
        else:
            raise ParameterError(
                f"expected a (k, n) matrix or (j, k, n) stack, got shape "
                f"{np.asarray(matrix).shape}"
            )
        if arr.shape[1] != self.k or arr.shape[2] != self.n:
            raise ParameterError(
                f"residue stack shape {arr.shape[1:]} does not match the "
                f"({self.k} x {self.n}) basis layout"
            )
        return arr, stacked

    @staticmethod
    def _output(arr: np.ndarray, stacked: bool,
                out: np.ndarray | None) -> np.ndarray:
        """The ``(j, k, n)`` array a transform of ``arr`` writes: a new
        one, or ``out`` (residue words of the caller's input shape)."""
        if out is None:
            return np.empty_like(arr)
        shape = arr.shape if stacked else arr.shape[1:]
        if out.shape != shape or out.dtype != RESIDUE:
            raise ParameterError(
                f"output {out.dtype} {out.shape} does not match the "
                f"{arr.dtype} {shape} input"
            )
        return out if stacked else out[None]

    # -- tiled dispatch ------------------------------------------------------------

    def _dispatch(self, op: str, plan: _GemmPlan, arr: np.ndarray,
                  out: np.ndarray, lazy: bool = False) -> None:
        """Run one batched transform, a chunk of the stack per tile,
        serially or tiled over the executor.

        The stack splits evenly into chunks of polynomials (or digit
        rows) spanning about :data:`_CHUNK_ELEMENTS` elements, and never
        more than ``S + 1`` polynomials for an ``S``-stage geometry (see
        :func:`scratch` for why). Every stage of :meth:`_GemmPlan.run`
        covers a whole chunk at once. When the active executor has real
        workers and the batch clears the shared work threshold
        (:func:`~repro.parallel.fans_out`), each chunk also splits into
        channel ranges; otherwise a tile is a whole chunk, run in order
        on this thread. Every tile runs the same ``run`` on a channel
        slice of ``plan``, and the arithmetic is element-wise per channel
        and column, so output is bit-identical either way — and invisible
        to the transform counters, which count at this dispatcher level.
        """
        j = arr.shape[0]
        per_chunk = min(len(self.factors) + 1,
                        max(1, _CHUNK_ELEMENTS // (self.k * self.n)))
        chunks = split_range(j, -(-j // per_chunk))
        executor = active_executor()
        tiled = fans_out(executor, j * self.k * self.n)
        parts = -(-2 * executor.workers // len(chunks)) if tiled else 1
        ranges = split_range(self.k, parts)
        tiles = [(j0, j1, c0, c1) for j0, j1 in chunks for c0, c1 in ranges]
        # Worker threads only read these views of ``plan``.
        subsets = {(c0, c1): plan.subset(c0, c1) for c0, c1 in ranges}
        broadcast = op == "forward_broadcast"

        def run_tile(tile: tuple[int, int, int, int]) -> None:
            # One (chunk, channel-range) tile, touching only its own
            # disjoint slice of the output.
            j0, j1, c0, c1 = tile
            source = arr[j0:j1] if broadcast else arr[j0:j1, c0:c1]
            subsets[c0, c1].run(source, out[j0:j1, c0:c1], lazy=lazy,
                                broadcast=broadcast)

        if tiled and len(tiles) > 1:
            map_tiles(executor, f"{op}.tile", run_tile, tiles)
        else:
            for tile in tiles:
                run_tile(tile)

    # -- public API ----------------------------------------------------------------

    def forward(self, matrix: np.ndarray, lazy: bool = False,
                out: np.ndarray | None = None) -> np.ndarray:
        """Negacyclic forward NTT of every residue row, batched.

        ``matrix`` is a ``(k, n)`` residue matrix with entries in
        ``[0, q_i)`` or a ``(j, k, n)`` stack; the result has the same
        shape with canonical NTT-domain entries, bit-identical to the
        single-prime reference transforms. With ``lazy=True`` the last
        stage's balanced remainder leaves as ``r + q`` instead, in
        [0, 2q) — for consumers whose own reduction absorbs the slack
        (the tensor step's point-wise products).

        ``out``, residue words of the input's shape (a view is fine),
        receives the result instead of a new array, and may be the
        input itself: :meth:`_GemmPlan.run` reads a tile's whole input
        into scratch at stage 0 before its last stage writes, and tiles
        are disjoint slices. A partial overlap is not safe.
        """
        arr, stacked = self._check(matrix)
        dest = self._output(arr, stacked, out)
        with maybe_span("ntt.forward", rows=arr.shape[0] * self.k,
                        n=self.n):
            self._dispatch("forward", self._fwd, arr, dest, lazy=lazy)
        _count_transform("forward", arr.shape[0] * self.k)
        return dest if stacked else dest[0]

    def inverse(self, matrix: np.ndarray) -> np.ndarray:
        """Negacyclic inverse NTT of every residue row, batched."""
        arr, stacked = self._check(matrix)
        out = np.empty_like(arr)
        with maybe_span("ntt.inverse", rows=arr.shape[0] * self.k,
                        n=self.n):
            self._dispatch("inverse", self._inv, arr, out)
        _count_transform("inverse", arr.shape[0] * self.k)
        return out if stacked else out[0]

    def inverse_scaled(self, matrix: np.ndarray,
                       constants: tuple[int, ...],
                       out: np.ndarray | None = None) -> np.ndarray:
        """Inverse NTT with a per-channel constant multiply folded in.

        Channel ``c`` of the result equals
        ``(INTT_c(matrix[c]) * constants[c]) mod q_c`` — the constant
        rides along in the (linear) transform's twiddle table for free.
        This is how the evaluator fuses Scale's Block-1 ``Q~_k``
        multiplies into the tensor step's inverse transforms. Scaled
        plans are cached per constants tuple (see
        :meth:`_GemmPlan.scaled`). ``out`` is :meth:`forward`'s: Scale
        writes its q and p batches into the two halves of one array.
        """
        if len(constants) != self.k:
            raise ParameterError(
                f"need {self.k} channel constants, got {len(constants)}"
            )
        constants = tuple(int(c) for c in constants)
        plan = self._scaled_inv.get(constants)
        if plan is None:
            plan = self._scaled_inv[constants] = self._inv.scaled(constants)
        arr, stacked = self._check(matrix)
        dest = self._output(arr, stacked, out)
        with maybe_span("ntt.inverse_scaled", rows=arr.shape[0] * self.k,
                        n=self.n):
            self._dispatch("inverse_scaled", plan, arr, dest)
        _count_transform("inverse", arr.shape[0] * self.k)
        return dest if stacked else dest[0]

    def forward_broadcast(self, rows: np.ndarray,
                          lazy: bool = False) -> np.ndarray:
        """Forward NTT of each raw digit row under every basis prime.

        ``rows`` is a ``(j, n)`` matrix of non-negative values below
        2^30 (unreduced raw-residue digits); the result is ``(j, k, n)``
        with channel ``c`` of output ``i`` equal to the NTT of
        ``rows[i] mod primes[c]`` — bit-identical to broadcasting,
        reducing, and transforming per channel, at a fraction of the
        cost (see :meth:`_GemmPlan.run`).
        """
        arr = np.asarray(rows, dtype=RESIDUE)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ParameterError(
                f"expected (j, {self.n}) digit rows, got {arr.shape}"
            )
        j = arr.shape[0]
        out = np.empty((j, self.k, self.n), dtype=RESIDUE)
        with maybe_span("ntt.forward_broadcast", rows=j * self.k,
                        n=self.n):
            self._dispatch("forward_broadcast", self._fwd, arr, out,
                           lazy=lazy)
        _count_transform("forward", j * self.k)
        return out


#: Per-thread scratch: one flat float64 buffer per thread.
_SCRATCH = threading.local()


def scratch(elements: int) -> np.ndarray:
    """This thread's scratch: a flat float64 buffer of at least
    ``elements`` elements.

    One buffer per thread, shared by every transform plan (both
    directions, every basis and ring, every channel slice), the Lift and
    Scale gemm kernels and the tensor step's int64 products (two planes
    of a channel band), and sized for the largest request seen
    (a larger one replaces it). Each user runs start to finish on one
    thread and leaves nothing a later call reads, so sharing never
    aliases live data.

    A transform tile takes three float64 planes per row (a two-limb
    stack and a gemm output) and holds at most ``S + 1`` polynomials of
    an ``S``-stage ring (:meth:`BasisTransformer._dispatch`), so its
    share stays within ``3 (S + 1) k n`` elements — what the per-stage
    limb stacks, gemm outputs and three state planes of one polynomial
    at a time took before stages ran over a whole chunk.

    The Lift and Scale kernels run one polynomial's band of ``w``
    columns at a time. Lift's Blocks 2-5 take ``2 k_s + 2 (k_t + 4)``
    rows of ``w`` (limbs, gemm output with the four quotient rows,
    spare); Scale's Fig. 9 kernel takes its own limbs and gemm output,
    then keeps its ``k_p`` p-basis rows past Lift's share for the final
    lift to read — 41 rows at hpca19 and 71 at n = 8192, against a
    p-basis transform tile's 42 (two polynomials of 7 primes) and 39
    (one of 13). No transform runs the 13 or 25 primes of a whole Q
    basis at once: Q-basis rows transform as the q and p batches. A
    tensor band takes two rows per channel: 26 at hpca19 serially.
    """
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < elements:
        buf = _SCRATCH.buf = np.empty(elements)
    return buf


def _balance(values: np.ndarray, p_f: np.ndarray, inv_p: np.ndarray,
             tmp: np.ndarray) -> None:
    """In place: exact float64 integers ``|v| <= 2^53 - q`` become their
    balanced remainder ``v - rint(v / q) * q``, with |r| <= q / 2 + 2.

    The float quotient is off by at most one rounding from ``v / q``,
    and every intermediate is an integer of magnitude at most 2^53, so
    the remainder is exact with no integer division anywhere. ``p_f``
    and ``inv_p`` broadcast against ``values``; ``tmp`` is a float64
    buffer of its shape.
    """
    np.multiply(values, inv_p, out=tmp)
    np.rint(tmp, out=tmp)
    np.multiply(tmp, p_f, out=tmp)
    np.subtract(values, tmp, out=values)


def reduction_moduli(primes_col: np.ndarray) -> tuple[np.ndarray, ...]:
    """A ``(k, 1)`` prime column as the ``(q int32, q float64, 1 / q)``
    triple of columns :func:`reduce_exact` reduces against."""
    return (primes_col.astype(np.int32), primes_col.astype(np.float64),
            1.0 / primes_col)


def reduce_exact(values: np.ndarray, moduli: tuple[np.ndarray, ...],
                 out: np.ndarray, spare: np.ndarray, *, lazy: bool) -> None:
    """Reduce exact float64 integers modulo per-row primes into ``out``.

    The one reduction of the engine's gemm kernels (the transform's last
    stage, Lift's Blocks 2-5 and Scale's Blocks 2-4): ``values``
    (|v| <= 2^53 - q, overwritten) takes its balanced remainder
    (:func:`_balance`), cast once into the residue words ``out`` (read
    as int32: results are below 2^31) as ``r + (q if r < 0)`` —
    canonical, in [0, q) — or, with ``lazy``, ``r + q`` in [0, 2q).
    ``moduli`` is the ``(q int32, q float64, 1 / q)`` triple of columns
    (:func:`reduction_moduli`) broadcasting against ``values``;
    ``spare`` is a flat float64 buffer of at least ``values.size``
    elements that aliases neither ``values`` nor ``out``.
    """
    p32, p_f, inv_p = moduli
    size = values.size
    _balance(values, p_f, inv_p, spare[:size].reshape(values.shape))
    r32 = out.view(np.int32)
    np.copyto(r32, values, casting="unsafe")
    if lazy:
        np.add(r32, p32, out=r32)
    else:
        # The float temporary is dead: its bytes hold the sign plane.
        sign = spare[:size].view(np.int32)[:size].reshape(values.shape)
        np.right_shift(r32, 31, out=sign)
        np.bitwise_and(sign, p32, out=sign)
        np.add(r32, sign, out=r32)


class _GemmPlan:
    """Precomputed tables for one transform direction of a basis.

    The decomposition runs the ``S`` sub-DFT stages of
    :func:`_geometry` (two for n <= 4096, three beyond — the recursive
    generalisation of the four-step) with a twiddle correction between
    consecutive stages. Per stage ``t`` the float64 ``(k, L, 2L)``
    limb-split sub-DFT matrix ``[W * 2^15 mod q | W]`` carries the
    stage's two 15-bit limbs; each twiddle table is a flat ``(k, n)``
    int32 plane (in the exact memory layout it is applied in) paired
    with its float64 quotient plane ``w / q``, and the moduli are
    ``(k, 1)`` columns. The psi pre-twist (forward) and the
    ``psi^-j / n`` post-scale (inverse) are folded into these tables,
    so :meth:`run` runs no standalone scaling passes.

    Every table has the prime on axis 0, so a channel range of a plan
    is the ``[c0:c1]`` view of each array (:meth:`subset`), and a
    scaled inverse differs from its plain inverse in twiddle plane 0
    only (:meth:`scaled`).

    Index algebra (the generalisation the tables implement): with
    ``n = f_0 * ... * f_{S-1}``, input index
    ``i = sum_t i_t * (n / P_t)`` and output index
    ``j = sum_t j_t * P_{t-1}`` (``P_t`` the prefix products),

    * stage ``t`` applies ``w_{f_t}^{i_t j_t}`` — the gemm matrix;
    * twiddle ``u`` (after stage ``u``) applies
      ``w_{P_{u+1}}^{i_{u+1} * (j mod P_u)}`` — everything that couples
      the next input axis to the outputs produced so far;
    * between stages the produced axis rotates behind the remaining
      input axes — the next stage's limb split reads the state through
      that rotation (:meth:`_rotated`) — so stage ``S-1``'s gemm emits
      the flat natural-order result with no final permutation.

    Setting ``S = 2`` reproduces the original four-step tables
    bit for bit.
    """

    def __init__(self, factors: tuple[int, ...], n: int,
                 moduli: tuple[np.ndarray, ...], steps: list[np.ndarray],
                 twiddles: list[tuple[np.ndarray, np.ndarray]]) -> None:
        self.factors = factors
        self.n = n
        self.k = moduli[0].shape[0]
        #: ``(k, 1)`` columns: the prime (int32), its float, its reciprocal.
        self.moduli = moduli
        self.steps = steps
        #: Per twiddle plane: (int32 table, float64 quotients ``w / q``).
        self.twiddles = twiddles

    @classmethod
    def build(cls, primes: tuple[int, ...], n: int,
              factors: tuple[int, ...], inverse: bool) -> _GemmPlan:
        """Compute one direction's tables for a basis, prime by prime."""
        k = len(primes)
        primes_col = np.array(primes, dtype=np.int64)[:, None]
        num = len(factors)
        prefix = []
        acc = 1
        for f in factors:
            acc *= f
            prefix.append(acc)   # P_t = f_0 * ... * f_t
        steps = [np.empty((k, f, _LIMBS * f), dtype=np.float64)
                 for f in factors]
        twiddles = [
            np.empty((k, n), dtype=np.int64) for _ in range(num - 1)
        ]
        order = 2 * n
        for ki, p in enumerate(primes):
            psi = root_of_unity(order, p)
            if inverse:
                psi = modinv(psi, p)
            psi_pow = power_table(psi, order, p)
            inv_n = modinv(n, p) if inverse else 1
            for t, f in enumerate(factors):
                j = np.arange(f, dtype=np.int64)[:, None]
                i = np.arange(f, dtype=np.int64)[None, :]
                exp = 2 * (n // f) * j * i
                if not inverse and t == 0:
                    # psi^i pre-twist, i_0 part.
                    exp = exp + (n // factors[0]) * i
                if inverse and t == num - 1:
                    # psi^-j post-scale, j_{S-1} part.
                    exp = exp + prefix[-2] * j
                w = psi_pow[exp % order]
                # Limb blocks, top first: [W * 2^15 mod q | W].
                steps[t][ki, :, :f] = (w << _LIMB_BITS) % p
                steps[t][ki, :, f:] = w
            for u in range(num - 1):
                twiddles[u][ki] = cls._twiddle_plane(
                    factors, prefix, u, psi_pow, order, p,
                    inverse=inverse, inv_n=inv_n if u == 0 else 1,
                )
        moduli = reduction_moduli(primes_col)
        return cls(factors, n, moduli, steps,
                   [_twiddle_pair(tw, moduli[1]) for tw in twiddles])

    def scaled(self, constants: tuple[int, ...]) -> _GemmPlan:
        """This (inverse) plan with ``constants[c]`` folded into channel
        ``c``'s twiddle plane 0.

        The constant rides with the ``1/n`` post-scale in plane 0 only,
        so the scaled plan shares this plan's stage matrices and later
        planes and owns one plane and its quotients. Both factors are
        canonical residues below 2^30: the int64 product is exact.
        """
        primes_col = self.moduli[0].astype(np.int64)
        scale = np.array(
            [c % int(p) for c, p in zip(constants, primes_col[:, 0],
                                        strict=True)],
            dtype=np.int64,
        )[:, None]
        plane = (self.twiddles[0][0] * scale) % primes_col
        return _GemmPlan(self.factors, self.n, self.moduli, self.steps,
                         [_twiddle_pair(plane, self.moduli[1])]
                         + self.twiddles[1:])

    def subset(self, c0: int, c1: int) -> _GemmPlan:
        """The plan for channels ``[c0, c1)``: views of this plan's
        tables, never a copy.

        The slice keeps this plan's factors (the limb bound is monotone
        in the modulus, so the parent's check covers every subset), so
        tile output — lazy representatives included — is bit-for-bit
        the whole-basis engine's.
        """
        if c0 == 0 and c1 == self.k:
            return self
        cut = slice(c0, c1)
        return _GemmPlan(self.factors, self.n,
                         tuple(m[cut] for m in self.moduli),
                         [step[cut] for step in self.steps],
                         [(tw[cut], wq[cut]) for tw, wq in self.twiddles])

    @staticmethod
    def _twiddle_plane(factors, prefix, u, psi_pow, order, p, *,
                       inverse, inv_n) -> np.ndarray:
        """One channel's flat twiddle table after stage ``u``.

        Built directly in the application layout
        ``(j_u, i_{u+1}, ..., i_{S-1}, j_{u-1}, ..., j_0)``:
        ``w_{P_{u+1}}^{i_{u+1} * Jsum}`` with
        ``Jsum = sum_{w<=u} j_w P_{w-1}``, plus the folded-in psi
        twist (forward: ``psi^{i_{u+1} * n/P_{u+1}}``) or post-scale
        (inverse: ``psi^{-j_u P_{u-1}}`` and ``1/n`` on the first
        twiddle).
        """
        num = len(factors)
        n = prefix[-1]
        shape = ([factors[u]] + list(factors[u + 1:])
                 + list(reversed(factors[:u])))
        axes = len(shape)

        def along(values: np.ndarray, axis: int) -> np.ndarray:
            view = [1] * axes
            view[axis] = len(values)
            return values.reshape(view)

        j_u = np.arange(factors[u], dtype=np.int64)
        i_next = np.arange(factors[u + 1], dtype=np.int64)
        weight_u = prefix[u - 1] if u > 0 else 1
        jsum = along(j_u * weight_u, 0)
        for w in range(u):
            # Axis of j_w in the layout: after the remaining inputs,
            # reversed (j_{u-1} first).
            axis = 1 + (num - 1 - u) + (u - 1 - w)
            weight = prefix[w - 1] if w > 0 else 1
            jsum = jsum + along(
                np.arange(factors[w], dtype=np.int64) * weight, axis
            )
        stride = 2 * (n // prefix[u + 1])
        exp = along(i_next, 1) * (stride * jsum)
        exp = exp + (along(j_u * weight_u, 0) if inverse
                     else along((n // prefix[u + 1]) * i_next, 1))
        plane = psi_pow[np.broadcast_to(exp % order, shape)]
        if inv_n != 1:
            plane = (plane * inv_n) % p
        return plane.reshape(-1)

    def _rotated(self, state: np.ndarray, t: int) -> np.ndarray:
        """Stage ``t``'s input as a view of the state stage ``t - 1``
        left: ``(rows, k, j_{t-1}, i_t, ..., i_{S-1}, j_{t-2}, ..., j_0)``
        with the produced axis moved behind the remaining input axes,
        so ``i_t`` leads."""
        factors = self.factors
        shape = ((state.shape[0], self.k, factors[t - 1]) + factors[t:]
                 + tuple(reversed(factors[:t - 1])))
        remaining = len(factors) - t
        return state.reshape(shape).transpose(
            (0, 1) + tuple(range(3, 3 + remaining)) + (2,)
            + tuple(range(3 + remaining, len(shape))))

    def run(self, x: np.ndarray, out: np.ndarray, lazy: bool,
            broadcast: bool) -> None:
        """Transform a chunk of a stack into ``out`` (natural order).

        ``x`` is a ``(c, k, n)`` chunk or, with ``broadcast``, ``(c, n)``
        raw digit rows that every channel transforms (``NTT_k(v) ≡
        NTT_k(v mod q_k)``, and the reductions are exact, so this equals
        reducing per channel first — but one limb split and one tall
        stage-0 dgemm per row cover all ``k`` channels: the paper's
        fused WordDecomp + NTT). Entries are residue words below 2^30,
        the bound :func:`_limbs_exact` is proved against; stage 0 splits
        them in place, read as int32. ``out`` is a ``(c, k, n)`` view;
        it receives canonical [0, q) values, or lazy [0, 2q) ones.

        Each stage is one batched dgemm over the chunk and every
        element-wise pass covers the whole chunk. Between stages the
        state is a signed int32 remainder, one cast away from the gemm:

        * the exact gemm output ``g`` (|g| <= 2^53 - q) reduces in
          float64 to the balanced remainder
          ``r = g - rint(g / q) * q``: the float quotient is off by at
          most one rounding, so |r| <= q / 2 + 2, exactly;
        * the twiddle multiply takes its quotient in float too:
          ``r * (w / q)`` is within 2^-22 of the real ``r w / q``, so
          with ``Q`` its rounding, ``r * w - Q * q`` has magnitude below
          ``q / 2 + 2^8`` and is computed exactly in wrapping int32
          arithmetic. The next stage's limbs then lie in
          [-2^14 - 1, 2^14] (top) and [0, 2^15) (low);
        * the last stage's balanced remainder leaves as ``r + q``
          (lazy, in [0, 2q)) or ``r + (q if r < 0)`` (canonical),
          cast straight into ``out`` (:func:`reduce_exact`).
        """
        k, n = self.k, self.n
        factors = self.factors
        x = x.view(np.int32)  # below 2^30: the int32 split is faster
        rows = x.shape[0]
        size = rows * k * n
        buf = scratch(3 * size)
        # Thirds: a two-limb stack, whose space serves the reductions'
        # float temporary and the int32 remainder once the gemm has read
        # it, and the gemm output, whose bytes then hold two int32
        # planes: the twiddle quotients and the next stage's input.
        limbs, g = buf[:2 * size], buf[2 * size:3 * size]
        plane, tmp = g.reshape(rows, k, n), buf[:size].reshape(rows, k, n)
        r32 = buf[size:2 * size].view(np.int32)[:size].reshape(rows, k, n)
        q32, v32 = (half.reshape(rows, k, n)
                    for half in np.split(g.view(np.int32), 2))
        p32, p_f, inv_p = self.moduli
        for t, f in enumerate(factors):
            span = n // f
            if t == 0 and broadcast:
                stack = limbs[:_LIMBS * rows * n].reshape(
                    rows, _LIMBS * f, span)
                _split(x.reshape(rows, f, span), stack[:, :f], stack[:, f:])
                np.matmul(self.steps[0].reshape(k * f, _LIMBS * f), stack,
                          out=g.reshape(rows, k * f, span))
            else:
                source = (x.reshape(rows, k, f, span) if t == 0
                          else self._rotated(v32, t))
                stack = limbs.reshape((rows, k, _LIMBS * f)
                                      + source.shape[3:])
                _split(source, stack[:, :, :f], stack[:, :, f:])
                np.matmul(self.steps[t],
                          stack.reshape(rows, k, _LIMBS * f, span),
                          out=g.reshape(rows, k, f, span))
            if t == len(factors) - 1:
                # The last gemm emits each polynomial in natural order.
                reduce_exact(plane, self.moduli, out, buf[:size], lazy=lazy)
                return
            _balance(plane, p_f, inv_p, tmp)
            np.copyto(r32, plane, casting="unsafe")
            table, quotients = self.twiddles[t]
            np.multiply(plane, quotients, out=tmp)
            np.rint(tmp, out=tmp)
            # ``plane`` is dead: its bytes take the quotients and v.
            np.copyto(q32, tmp, casting="unsafe")
            np.multiply(r32, table, out=v32)
            np.multiply(q32, p32, out=q32)
            np.subtract(v32, q32, out=v32)


def _twiddle_pair(plane: np.ndarray,
                  p_f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A twiddle plane (int64 residues below 2^30) as the engine stores
    it: the int32 table and its float64 quotients ``w / q``."""
    return plane.astype(np.int32), plane / p_f


def _split(values: np.ndarray, top: np.ndarray, low: np.ndarray) -> None:
    """Write the two 15-bit limbs of int32 ``values`` into float64
    ``top`` (an arithmetic shift: signed) and ``low`` (a mask: in
    [0, 2^15)) — exact, every limb is far below 2^53."""
    np.right_shift(values, _LIMB_BITS, out=top, casting="unsafe")
    np.bitwise_and(values, (1 << _LIMB_BITS) - 1, out=low, casting="unsafe")


@lru_cache(maxsize=None)
def basis_transformer(primes: tuple[int, ...], n: int) -> BasisTransformer:
    """Shared, cached batched transformer for one ``(primes, n)`` basis."""
    return BasisTransformer(tuple(primes), n)


# -- dispatching entry points -----------------------------------------------------


def ntt_rows(primes: tuple[int, ...], matrix: np.ndarray) -> np.ndarray:
    """Forward-transform a residue matrix (or ``(j, k, n)`` stack).

    The production entry point every limb-loop call site was rewired
    onto: the cached :class:`BasisTransformer` of the basis.
    """
    n = np.asarray(matrix).shape[-1]
    return basis_transformer(tuple(primes), n).forward(matrix)


def intt_rows_scaled(primes: tuple[int, ...], matrix: np.ndarray,
                     constants: tuple[int, ...]) -> np.ndarray:
    """Inverse-transform with per-channel constants folded in.

    Equivalent to ``(intt_rows(primes, matrix) * col(constants)) %
    col(primes)`` with the multiplies hidden inside the transform's
    twiddle tables.
    """
    arr = np.asarray(matrix, dtype=RESIDUE)
    return basis_transformer(tuple(primes), arr.shape[-1]).inverse_scaled(
        arr, constants
    )


def ntt_broadcast_rows(primes: tuple[int, ...], rows: np.ndarray,
                       lazy: bool = False) -> np.ndarray:
    """Forward NTT of raw digit rows under every prime of ``primes``.

    The fused WordDecomp + NTT primitive: ``rows`` is ``(j, n)`` with
    non-negative entries below 2^30, the result ``(j, k, n)`` —
    bit-identical to broadcasting each row across the basis, reducing
    per channel, and calling :func:`ntt_rows`.
    """
    arr = np.asarray(rows, dtype=RESIDUE)
    return basis_transformer(tuple(primes), arr.shape[-1]).forward_broadcast(
        arr, lazy=lazy
    )


def intt_rows(primes: tuple[int, ...], matrix: np.ndarray) -> np.ndarray:
    """Inverse-transform a residue matrix (or stack); see :func:`ntt_rows`."""
    n = np.asarray(matrix).shape[-1]
    return basis_transformer(tuple(primes), n).inverse(matrix)
