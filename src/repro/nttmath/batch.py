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
transform is the division-free reductions and Shoup twiddle
multiplies between stages. See :class:`BasisTransformer` for the
detailed numerics.

Large rings generalise the recipe recursively: above n = 16384 — where
a two-stage split would need a sub-DFT beyond 128 points — ``n``
factors into *three* sub-DFTs of at most 128 points each (n = 32768
runs 32 x 32 x 32). The layout is a closed form of ``n``
(:func:`_geometry`), fixed like the paper's n1 x n2 NTT unit, and
every stage carries two 15-bit limbs, checked exact per stage by
:func:`_limbs_exact`.

Every transform has one code path: a ``(j, k, n)`` stack runs one
polynomial at a time, and a stack of raw digit rows runs one broadcast
transform per row (:meth:`_GemmPlan.apply_broadcast`), serially or as
channel tiles over the active executor.

The engine serves one envelope, the paper's datapath: primes below 31
bits (4q < 2^32 for the lazy reductions) and ring degrees up to
``MAX_ENGINE_N`` = 32768. :class:`BasisTransformer` refuses anything
outside it with a :class:`~repro.errors.ParameterError`, and
:class:`~repro.params.ParameterSet` checks the same envelope when a
parameter set is built, so there is no second transform path.

Memory follows the paper's NTT unit, whose butterfly cores share one
twiddle ROM per prime: a basis holds one table set, a parallel tile
runs a ``[c0:c1]`` channel view of it (:meth:`_GemmPlan.subset`), and
each thread holds one scratch set per ring (:func:`_buffers`).

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ParameterError
from ..obs import counter as _obs_counter
from ..obs import maybe_span
from ..parallel import active_executor, fans_out, map_tiles, split_range
from ..utils import log2_exact
from .modmath import modinv
from .ntt import _MAX_MODULUS_BITS, power_table
from .primes import root_of_unity

_SHOUP_SHIFT = 32
"""Fixed-point shift of the precomputed Shoup twiddle quotients."""

MAX_ENGINE_N = 1 << 15
"""Largest ring degree the gemm engine serves: Table V's largest point
and the property-tested envelope. :class:`~repro.params.ParameterSet`
imports it, so a parameter set outside it is refused at construction."""

#: Maximum value the engine accepts as a sub-transform input: canonical
#: residues and raw 30-bit digits both satisfy it.
_MAX_INPUT = (1 << 30) - 1


# -- transform accounting ------------------------------------------------------


TRANSFORM_COUNTER = _obs_counter(
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


#: Every stage splits its operands into two limbs of 15 bits (the top
#: limb shift-only, so it carries any value below 2^31).
_LIMBS = 2
_LIMB_BITS = 15

#: Largest sub-DFT a stage runs: two 15-bit limbs carry 30-bit values
#: exactly through 128 points (:func:`_limbs_exact`), not through 256.
_MAX_STAGE_LOG = 7


def _limbs_exact(length: int, max_value: int, max_prime: int) -> bool:
    """Whether the two-limb split keeps a length-``length`` sub-DFT of
    inputs up to ``max_value`` exact.

    A gemm dot product sums ``2 * length`` terms: for each limb block,
    ``length`` products of a table entry (< max_prime) with a limb of
    the input. Exactness requires every partial sum — and the
    quotient-times-modulus product of the float reduction that follows,
    which can overshoot by up to one modulus — to stay at or below
    2^53, where float64 integer arithmetic is exact.
    """
    top_max = max_value >> _LIMB_BITS
    rest_max = (1 << _LIMB_BITS) - 1
    bound = length * (max_prime - 1) * (top_max + rest_max)
    return bound + max_prime <= 1 << 53


@dataclass(frozen=True)
class _Stage:
    """One sub-DFT stage of the decomposition.

    ``canonical_in`` marks stages whose lazy [0, 2q) inputs must be
    canonicalised by a conditional subtract before the limb split —
    exactly when the lazy bound does not fit the two-limb split but the
    canonical bound does.
    """

    length: int
    canonical_in: bool


@dataclass(frozen=True)
class _Geometry:
    """A multi-stage factorisation ``n = prod(factors)``."""

    factors: tuple[int, ...]
    stages: tuple[_Stage, ...]


def _geometry(n: int, max_prime: int) -> _Geometry:
    """The engine's factorisation of ``n``, fixed like the paper's
    n1 x n2 NTT layout: ``max(2, ceil(log2 n / 7))`` stages — so no
    sub-DFT exceeds 128 points — with ``log2 n`` split evenly and the
    remainder going to the leading stages (n = 4096 runs 64 x 64,
    8192 runs 128 x 64, 32768 runs 32 x 32 x 32).

    The first stage sees canonical residues / raw 30-bit digits; later
    stages see lazy [0, 2q) values from the preceding twiddle multiply
    and canonicalise them first only when the lazy bound does not fit.
    Raises :class:`ParameterError` when a stage cannot be made exact.
    """
    log_n = log2_exact(n)
    num = max(2, -(-log_n // _MAX_STAGE_LOG))
    base, extra = divmod(log_n, num)
    factors = tuple(1 << (base + (t < extra)) for t in range(num))
    for f in factors:
        if not _limbs_exact(f, _MAX_INPUT, max_prime):
            raise ParameterError(
                f"degree {n} admits no exact limb-split factorisation"
            )
    return _Geometry(factors, tuple(
        _Stage(f, t > 0 and not _limbs_exact(f, 2 * max_prime - 1,
                                             max_prime))
        for t, f in enumerate(factors)
    ))


def _shoup_table(table: np.ndarray, primes_col: np.ndarray) -> np.ndarray:
    """Scaled quotients ``floor(w * 2^32 / q)`` for a stacked table.

    Entries are < 2^30, so the shifted product stays below 2^62 and the
    division is exact in int64 — no object-dtype arithmetic needed.
    """
    return (table << _SHOUP_SHIFT) // primes_col


class BasisTransformer:
    """Vectorised negacyclic NTT over a whole RNS basis at once.

    The transform uses the four-step decomposition ``n = n1 * n2`` the
    paper's pipelined NTT unit is built around — a size-n1 NTT down the
    columns of the (n1, n2) coefficient matrix, an element-wise twiddle
    correction, a transpose, and a size-n2 NTT over the transposed
    matrix — generalised recursively to *three* stages above n = 16384
    (sub-DFT, twiddle, sub-DFT, twiddle, sub-DFT, every factor at most
    128 points) — with every short sub-NTT computed as a *dense matrix
    product* evaluated by BLAS in float64:

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
      2^23, so ``g - rint(g/q) * q`` is exact), leaving the Shoup
      twiddle multiply as the only integer element-wise stage;
    * a ``(j, k, n)`` stack transforms one polynomial at a time, and
      :meth:`forward_broadcast` runs one broadcast transform per raw
      digit row: one limb split and one tall stage-0 dgemm cover all
      ``k`` channels of that row (the paper's fused WordDecomp + NTT).

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
        geometry = self.geometry = _geometry(n, max(self.primes))
        self.k = len(self.primes)
        self.primes_col = np.array(self.primes, dtype=np.int64)[:, None]
        self._fwd = _GemmPlan.build(self.primes, n, geometry, inverse=False)
        self._inv = _GemmPlan.build(self.primes, n, geometry, inverse=True)
        self._scaled_inv: dict[tuple[int, ...], _GemmPlan] = {}

    def subset(self, c0: int, c1: int) -> BasisTransformer:
        """The transformer of channels ``[c0, c1)``: views of this
        basis's tables (:meth:`_GemmPlan.subset`), never a second table
        set. Lift q->Q transforms its new channels on the full basis's
        ``[k_q:]`` view."""
        view = object.__new__(BasisTransformer)
        view.primes = self.primes[c0:c1]
        view.n = self.n
        view.geometry = self.geometry
        view.k = len(view.primes)
        view.primes_col = self.primes_col[c0:c1]
        view._fwd = self._fwd.subset(c0, c1)
        view._inv = self._inv.subset(c0, c1)
        view._scaled_inv = {}
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BasisTransformer(k={self.k}, n={self.n}, "
                f"factors={self.geometry.factors})")

    # -- internals ---------------------------------------------------------------

    def _check(self, matrix: np.ndarray) -> tuple[np.ndarray, bool]:
        arr = np.asarray(matrix, dtype=np.int64)
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

    # -- tiled dispatch ------------------------------------------------------------

    def _tile_plan(self, j: int, target: int) -> list[tuple[int, int, int]]:
        """Deterministic (poly, c0, c1) tiles, about ``target`` of them.

        Polynomials split first (free: no plan slicing needed), then
        channels, evenly per polynomial — the limb x channel
        decomposition the paper's residue-parallel datapath is built
        around.
        """
        chunks = split_range(self.k, max(1, -(-target // j)))
        return [(jdx, c0, c1) for jdx in range(j)
                for c0, c1 in chunks]

    def _dispatch(self, op: str, plan: _GemmPlan, arr: np.ndarray,
                  out: np.ndarray, lazy: bool = False) -> None:
        """Run one batched transform, one polynomial (or digit row) per
        tile, serially or tiled over the executor.

        Channel tiles are cut only when the active executor has real
        workers and the batch clears the shared work threshold
        (:func:`~repro.parallel.fans_out`); otherwise each tile is a
        whole polynomial, run in order on this thread. Both run the
        same per-row ``apply`` / ``apply_broadcast`` on a channel
        slice of ``plan``, so output is bit-identical either way — and
        invisible to the transform counters, which count at this
        dispatcher level.
        """
        j = arr.shape[0]
        executor = active_executor()
        tiles: list[tuple[int, int, int]] = []
        if fans_out(executor, j * self.k * self.n):
            tiles = self._tile_plan(j, 2 * executor.workers)
        serial = len(tiles) < 2
        if serial:
            tiles = [(jdx, 0, self.k) for jdx in range(j)]
        # Worker threads only read these views of ``plan``.
        subsets = {(c0, c1): plan.subset(c0, c1) for _, c0, c1 in tiles}

        def run_tile(tile: tuple[int, int, int]) -> None:
            # One (polynomial, channel-range) tile, touching only its
            # own disjoint slices of the output.
            jdx, c0, c1 = tile
            sub = subsets[c0, c1]
            if op == "forward_broadcast":
                sub.apply_broadcast(arr[jdx], out[jdx, c0:c1], lazy=lazy)
            else:
                sub.apply(arr[jdx, c0:c1], out[jdx, c0:c1], lazy=lazy)

        if serial:
            for tile in tiles:
                run_tile(tile)
        else:
            map_tiles(executor, f"{op}.tile", run_tile, tiles)

    # -- public API ----------------------------------------------------------------

    def forward(self, matrix: np.ndarray,
                lazy: bool = False) -> np.ndarray:
        """Negacyclic forward NTT of every residue row, batched.

        ``matrix`` is a ``(k, n)`` residue matrix with entries in
        ``[0, q_i)`` or a ``(j, k, n)`` stack; the result has the same
        shape with canonical NTT-domain entries, bit-identical to the
        single-prime reference transforms. With ``lazy=True`` the final
        conditional subtract is skipped and entries land in [0, 2q) —
        for consumers whose own reduction absorbs the slack (the tensor
        step's point-wise products).
        """
        arr, stacked = self._check(matrix)
        out = np.empty_like(arr)
        with maybe_span("ntt.forward", rows=arr.shape[0] * self.k,
                        n=self.n):
            self._dispatch("forward", self._fwd, arr, out, lazy=lazy)
        _count_transform("forward", arr.shape[0] * self.k)
        return out if stacked else out[0]

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
                       constants: tuple[int, ...]) -> np.ndarray:
        """Inverse NTT with a per-channel constant multiply folded in.

        Channel ``c`` of the result equals
        ``(INTT_c(matrix[c]) * constants[c]) mod q_c`` — the constant
        rides along in the (linear) transform's twiddle table for free.
        This is how the evaluator fuses Scale's Block-1 ``Q~_k``
        multiplies into the tensor step's inverse transforms. Scaled
        plans are cached per constants tuple (see
        :meth:`_GemmPlan.scaled`).
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
        out = np.empty_like(arr)
        with maybe_span("ntt.inverse_scaled", rows=arr.shape[0] * self.k,
                        n=self.n):
            self._dispatch("inverse_scaled", plan, arr, out)
        _count_transform("inverse", arr.shape[0] * self.k)
        return out if stacked else out[0]

    def forward_broadcast(self, rows: np.ndarray,
                          lazy: bool = False) -> np.ndarray:
        """Forward NTT of each raw digit row under every basis prime.

        ``rows`` is a ``(j, n)`` matrix of non-negative values below
        2^30 (unreduced raw-residue digits); the result is ``(j, k, n)``
        with channel ``c`` of output ``i`` equal to the NTT of
        ``rows[i] mod primes[c]`` — bit-identical to broadcasting,
        reducing, and transforming per channel, at a fraction of the
        cost (see :meth:`_GemmPlan.apply_broadcast`).
        """
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ParameterError(
                f"expected (j, {self.n}) digit rows, got {arr.shape}"
            )
        j = arr.shape[0]
        out = np.empty((j, self.k, self.n), dtype=np.int64)
        with maybe_span("ntt.forward_broadcast", rows=j * self.k,
                        n=self.n):
            self._dispatch("forward_broadcast", self._fwd, arr, out,
                           lazy=lazy)
        _count_transform("forward", j * self.k)
        return out


#: Per-thread scratch, one set per ring: ``{(n, geometry): buffers}``.
_SCRATCH = threading.local()


def _buffers(n: int, geometry: _Geometry,
             k: int) -> tuple[list, list, tuple[np.ndarray, ...]]:
    """This thread's scratch for one ring, sliced to ``k`` channels.

    One set per thread per ``(n, geometry)``, shared by every plan of
    the ring — both directions, every basis, every channel slice — and
    sized for the largest ``k`` seen (a larger ``k`` replaces it); each
    caller takes the C-contiguous leading ``[:k]`` rows. A stage loop
    runs start to finish on one thread and leaves nothing a later call
    reads, so sharing never aliases live data. Cache-sized on purpose
    (stacks go one polynomial at a time): per stage a float64 limb
    stack and gemm output, plus two int64 ping-pong state planes and
    one float64 temporary.
    """
    sets = _SCRATCH.__dict__.setdefault("sets", {})
    bufs = sets.get((n, geometry))
    if bufs is None or len(bufs[2][0]) < k:
        stages = geometry.stages
        bufs = sets[n, geometry] = (
            [np.empty((k, _LIMBS * s.length, n // s.length))
             for s in stages],                    # limb stacks
            [np.empty((k, s.length, n // s.length))
             for s in stages],                    # gemm outputs
            (np.empty((k, n), dtype=np.int64),    # state A
             np.empty((k, n), dtype=np.int64),    # state B
             np.empty((k, n))),                   # float tmp
        )
    limbs, gemm_out, planes = bufs
    return ([b[:k] for b in limbs], [b[:k] for b in gemm_out],
            tuple(b[:k] for b in planes))


class _GemmPlan:
    """Precomputed tables for one transform direction of a basis.

    The decomposition runs the ``S`` sub-DFT stages of
    :func:`_geometry` (two for n <= 16384, three beyond — the recursive
    generalisation of the four-step) with a twiddle correction between
    consecutive stages. Per stage ``t`` the float64 ``(k, L, 2L)``
    limb-split sub-DFT matrix ``[W * 2^15 mod q | W]`` carries the
    stage's two 15-bit limbs; the twiddle tables are flat
    int64 ``(k, n)`` planes (in the exact memory layout they are
    applied in) paired with their Shoup quotients, and the moduli are
    ``(k, 1)`` columns. The psi pre-twist (forward) and the
    ``psi^-j / n`` post-scale (inverse) are folded into these tables,
    so :meth:`apply` runs no standalone scaling passes.

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
      input axes, so stage ``S-1``'s gemm emits the flat natural-order
      result with no final permutation.

    Setting ``S = 2`` reproduces the original four-step tables
    bit for bit.
    """

    def __init__(self, geometry: _Geometry, n: int,
                 moduli: tuple[np.ndarray, ...], steps: list[np.ndarray],
                 twiddles: list[tuple[np.ndarray, np.ndarray]]) -> None:
        self.geometry = geometry
        self.n = n
        self.k = moduli[0].shape[0]
        #: ``(k, 1)`` columns: the prime (int64), its float, its reciprocal.
        self.moduli = moduli
        self.steps = steps
        #: Per twiddle plane: (table, Shoup quotients).
        self.twiddles = twiddles

    @classmethod
    def build(cls, primes: tuple[int, ...], n: int, geometry: _Geometry,
              inverse: bool) -> _GemmPlan:
        """Compute one direction's tables for a basis, prime by prime."""
        k = len(primes)
        primes_col = np.array(primes, dtype=np.int64)[:, None]
        factors = geometry.factors
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
        moduli = (primes_col, primes_col.astype(np.float64), 1.0 / primes_col)
        return cls(geometry, n, moduli, steps,
                   [(tw, _shoup_table(tw, primes_col)) for tw in twiddles])

    def scaled(self, constants: tuple[int, ...]) -> _GemmPlan:
        """This (inverse) plan with ``constants[c]`` folded into channel
        ``c``'s twiddle plane 0.

        The constant rides with the ``1/n`` post-scale in plane 0 only,
        so the scaled plan shares this plan's stage matrices and later
        planes and owns one plane and its Shoup quotients. Both factors
        are canonical residues below 2^30: the int64 product is exact.
        """
        primes_col = self.moduli[0]
        scale = np.array(
            [c % int(p) for c, p in zip(constants, primes_col[:, 0],
                                        strict=True)],
            dtype=np.int64,
        )[:, None]
        plane = (self.twiddles[0][0] * scale) % primes_col
        return _GemmPlan(self.geometry, self.n, self.moduli, self.steps,
                         [(plane, _shoup_table(plane, primes_col))]
                         + self.twiddles[1:])

    def subset(self, c0: int, c1: int) -> _GemmPlan:
        """The plan for channels ``[c0, c1)``: views of this plan's
        tables, never a copy.

        The slice keeps this plan's geometry (the limb bound is
        monotone in the modulus, so the parent's check covers every
        subset), so tile output — lazy representatives included —
        is bit-for-bit the whole-basis engine's.
        """
        if c0 == 0 and c1 == self.k:
            return self
        cut = slice(c0, c1)
        return _GemmPlan(self.geometry, self.n,
                         tuple(m[cut] for m in self.moduli),
                         [step[cut] for step in self.steps],
                         [(tw[cut], sh[cut]) for tw, sh in self.twiddles])

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

    @staticmethod
    def _reduce_lazy(g: np.ndarray, p_f: np.ndarray, inv_p: np.ndarray,
                     q_f: np.ndarray, out: np.ndarray) -> None:
        """Cast the exact float64 gemm output into lazy int64 [0, 2q).

        ``g`` holds exact integers at or below 2^53, so the float
        quotient ``rint(g / q)`` is off by at most one and
        ``g - rint(g/q) * q`` lands in (-q, q) — still exact, because
        every intermediate is an integer of magnitude at most 2^53
        (the limb bound reserves one modulus of overshoot headroom).
        Adding q gives the lazy representative with no integer
        division anywhere. ``p_f`` and ``inv_p`` are ``(k, 1)``
        columns broadcast along each row of ``g``.
        """
        np.multiply(g, inv_p, out=q_f)
        np.rint(q_f, out=q_f)
        np.multiply(q_f, p_f, out=q_f)
        np.subtract(g, q_f, out=g)
        np.add(g, p_f, out=out, casting="unsafe")

    @staticmethod
    def _split_into(values: np.ndarray, limbs: np.ndarray) -> None:
        """Write the two-limb stack of one (B, L, C) block, top limb
        first: a shift and a mask, cast straight into the float64 limb
        buffer (exact: every limb is far below 2^53)."""
        rows = values.shape[1]
        np.right_shift(values, _LIMB_BITS, out=limbs[:, :rows],
                       casting="unsafe")
        np.bitwise_and(values, (1 << _LIMB_BITS) - 1,
                       out=limbs[:, rows:], casting="unsafe")

    def _transpose_axes(self, num: int, t: int) -> tuple[int, ...]:
        """Axis permutation moving stage ``t``'s output axis behind the
        remaining input axes (layout invariant of the stage loop)."""
        remaining = num - 1 - t
        return ((0,) + tuple(range(2, 2 + remaining)) + (1,)
                + tuple(range(2 + remaining, num + 1)))

    def _stage_shape(self, t: int) -> tuple:
        """(k, j_t, i_{t+1}, ..., i_{S-1}, j_{t-1}, ..., j_0)."""
        factors = self.geometry.factors
        return ((self.k, factors[t]) + tuple(factors[t + 1:])
                + tuple(reversed(factors[:t])))

    def apply(self, x: np.ndarray, out: np.ndarray,
              lazy: bool = False) -> None:
        """Transform one (k, n) matrix into ``out`` (natural order).

        Entries of ``x`` must be non-negative and below 2^30 (canonical
        residues and raw 30-bit digits always are — the bound the limb
        plans are proved exact against); ``out`` receives canonical
        [0, q) values (or lazy [0, 2q) ones when ``lazy`` is set).
        """
        f0 = self.geometry.factors[0]
        self._run(x.reshape(self.k, f0, self.n // f0), out, lazy,
                  broadcast=False)

    def apply_broadcast(self, row: np.ndarray, out: np.ndarray,
                        lazy: bool = False) -> None:
        """Transform one raw digit row under *every* basis prime.

        ``row`` is a length-n vector of non-negative values below 2^30
        — typically an unreduced raw-residue digit. Because
        ``NTT_k(v) ≡ NTT_k(v mod q_k)`` and the engine's reductions are
        exact, ``out`` (shape (k, n)) is bit-identical to broadcasting
        the row across the basis, reducing per channel, and
        transforming each channel — but the shared source means one
        limb split and a single tall dgemm cover stage 1 of all k
        channels at once (the paper's fused WordDecomp + NTT digit
        pipeline).
        """
        f0 = self.geometry.factors[0]
        self._run(row.reshape(1, f0, self.n // f0), out, lazy,
                  broadcast=True)

    def _run(self, x: np.ndarray, out: np.ndarray, lazy: bool,
             broadcast: bool) -> None:
        """The stage loop shared by :meth:`apply` and
        :meth:`apply_broadcast`: per stage — optional canonicalise,
        limb split, one dgemm, float reduction — with a Shoup twiddle
        multiply and an axis rotation between stages."""
        k, n = self.k, self.n
        stages = self.geometry.stages
        num = len(stages)
        limbs, gemm_out, (cur, alt, f_tmp) = _buffers(n, self.geometry, k)
        p_int, p_f, inv_p = self.moduli
        for t, stage in enumerate(stages):
            f = stage.length
            rest = n // f
            g = gemm_out[t]
            if t == 0 and broadcast:
                shared = limbs[0].reshape(k * _LIMBS * f, rest)[: _LIMBS * f]
                self._split_into(x, shared.reshape(1, _LIMBS * f, rest))
                np.matmul(self.steps[t].reshape(k * f, _LIMBS * f),
                          shared, out=g.reshape(k * f, rest))
            else:
                if stage.canonical_in:
                    # The lazy [0, 2q) bound would break the two-limb
                    # split's exactness; one conditional subtract
                    # restores canonical inputs (unsigned-minimum trick).
                    np.subtract(cur, p_int, out=alt)
                    np.minimum(cur.view(np.uint64), alt.view(np.uint64),
                               out=cur.view(np.uint64))
                source = x if t == 0 else cur.reshape(k, f, rest)
                self._split_into(source, limbs[t])
                np.matmul(self.steps[t], limbs[t], out=g)
            self._reduce_lazy(g.reshape(k, n), p_f, inv_p, f_tmp, cur)
            if t < num - 1:
                tw, tw_sh = self.twiddles[t]
                _shoup_mul(cur, tw, tw_sh, p_int, alt)
                # Rotate the produced axis behind the remaining input
                # axes (one strided copy), ping-ponging the state
                # planes.
                shape = self._stage_shape(t)
                np.copyto(
                    alt.reshape(
                        tuple(shape[axis]
                              for axis in self._transpose_axes(num, t))
                    ),
                    cur.reshape(shape).transpose(
                        self._transpose_axes(num, t)
                    ),
                )
                cur, alt = alt, cur
        # The last stage's gemm emits the natural-order result: final
        # canonical reduction [0, 2q) -> [0, q) straight into the
        # caller's buffer (or the lazy copy).
        if lazy:
            np.copyto(out.reshape(k, n), cur)
        else:
            np.subtract(cur, p_int, out=alt)
            np.minimum(cur.view(np.uint64), alt.view(np.uint64),
                       out=out.reshape(k, n).view(np.uint64))


def _shoup_mul(values: np.ndarray, table: np.ndarray,
               table_shoup: np.ndarray, p_col: np.ndarray,
               q_buf: np.ndarray) -> None:
    """In-place ``values = values * table mod p``, lazily in [0, 2p).

    ``values`` must be < 2^32; ``p_col`` is the ``(k, 1)`` modulus
    column. The uint64 views keep the 64-bit product exact, and the
    *logical* right shift extracts the Shoup quotient (an arithmetic
    shift would sign-extend products above 2^63).
    """
    np.multiply(values.view(np.uint64), table_shoup.view(np.uint64),
                out=q_buf.view(np.uint64))
    np.right_shift(q_buf.view(np.uint64), _SHOUP_SHIFT,
                   out=q_buf.view(np.uint64))
    np.multiply(values, table, out=values)
    np.multiply(q_buf, p_col, out=q_buf)
    np.subtract(values, q_buf, out=values)


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
    arr = np.asarray(matrix, dtype=np.int64)
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
    arr = np.asarray(rows, dtype=np.int64)
    return basis_transformer(tuple(primes), arr.shape[-1]).forward_broadcast(
        arr, lazy=lazy
    )


def intt_rows(primes: tuple[int, ...], matrix: np.ndarray) -> np.ndarray:
    """Inverse-transform a residue matrix (or stack); see :func:`ntt_rows`."""
    n = np.asarray(matrix).shape[-1]
    return basis_transformer(tuple(primes), n).inverse(matrix)
