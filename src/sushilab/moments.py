"""Set-partition combinatorics, moment-measure estimation, and the
decomposition of empirical moments over partition measures.

The n-th moment measure of a point process evaluates window tuples by
E[N(A_1) x ... x N(A_n)].  For a Poisson process those moments decompose
over set partitions: each partition pi contributes its partition measure
m_pi (product over blocks of the base-measure mass of the block
intersection) with coefficient alpha^{#pi}.  This module estimates
moments by Monte Carlo, fits the partition coefficients by exact linear
algebra over a shipped design, and measures the weight sitting on the
diagonal through dyadic refinements.

Every estimate here reads one replicate x column count matrix
(:func:`count_matrix`, one :func:`~sushilab.point_process.counts` row per
replicate) and takes its products and sums with numpy, left to right.  A
sampler that counts whole blocks of replicates at once (a
:class:`~sushilab.split_mark.LatticeSampler` or a
:class:`~sushilab.cluster.ClusterSampler`) fills the matrix block by block,
with the same rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from typing import Callable, Mapping, Sequence

import numpy as np

from .point_process import Columns, Rng, counts
from .windows import IntensitySpec, Interval, Window

__all__ = [
    "Partition",
    "partitions",
    "m_pi",
    "MomentEstimate",
    "estimate_moment",
    "FitResult",
    "fit_partition_decomposition",
    "DiagonalWeightResult",
    "diagonal_weight",
    "replicate_matrix",
    "count_matrix",
]

MAX_PARTITION_N = 6
MAX_ESTIMATION_N = 4


@dataclass(frozen=True)
class Partition:
    """Set partition of {1..n}: disjoint blocks, canonically ordered.

    Blocks are sorted tuples ordered by their minimum element, so equal
    partitions compare and hash equal.
    """

    blocks: tuple[tuple[int, ...], ...]
    n: int

    def __init__(self, blocks) -> None:
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        object.__setattr__(self, "blocks", canon)
        elems = [i for b in canon for i in b]
        n = len(elems)
        object.__setattr__(self, "n", n)
        if not canon or sorted(elems) != list(range(1, n + 1)):
            raise ValueError("blocks must partition {1..n} with no gaps")

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return "|".join(",".join(map(str, b)) for b in self.blocks)


def partitions(n: int) -> list[Partition]:
    """All set partitions of {1..n} via restricted-growth strings."""
    if not 1 <= n <= MAX_PARTITION_N:
        raise ValueError(f"n must be in 1..{MAX_PARTITION_N}")
    out: list[Partition] = []

    def extend(prefix: list[int], used: int) -> None:
        i = len(prefix)
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(used)]
            for idx, b in enumerate(prefix, start=1):
                blocks[b].append(idx)
            out.append(Partition(blocks))
            return
        for b in range(used + 1):
            prefix.append(b)
            extend(prefix, max(used, b + 1))
            prefix.pop()

    extend([], 0)
    return out


def m_pi(pi: Partition, windows: Sequence[Window],
         intensity: IntensitySpec = IntensitySpec(1)) -> Fraction:
    """Partition measure of a window tuple, exact.

    Product over blocks of the intensity-measure mass of the intersection
    of the block's windows.
    """
    if len(windows) != pi.n:
        raise ValueError("window tuple length must equal the partition's n")
    total = Fraction(1)
    for block in pi.blocks:
        inter = reduce(Window.intersect, (windows[i - 1] for i in block))
        total *= intensity.alpha * inter.length
    return total


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    stderr: float
    replicates: int
    target: str

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


Sampler = Callable[[Rng], object]


def replicate_matrix(sampler: Sampler, evaluate: Callable[[object], Sequence[float]],
                     width: int, R: int, rng: Rng, threads: int = 1) -> np.ndarray:
    """R x width matrix of per-replicate statistics.

    Replicate r is a pure function of rng.child(r) and lands in row r.
    Replicates run serially, one sample at a time.  ``threads`` is accepted
    for compatibility and has no effect.
    """
    out = np.empty((R, width), dtype=np.float64)
    for r in range(R):
        out[r, :] = evaluate(sampler(rng.child(r)))
    return out


def count_matrix(sampler: Sampler, columns, R: int, rng: Rng,
                 summarize: Callable[[np.ndarray], np.ndarray] | None = None
                 ) -> np.ndarray:
    """R x len(columns) matrix of exact counts: row r holds
    ``counts(sample, columns)`` of the sample drawn from rng.child(r).

    A sampler with ``count_blocks`` counts the replicates block by block,
    from :class:`~sushilab.point_process.Streams` of rng; any other is
    called once per replicate.  summarize, if given, maps each block of
    count rows to one row of statistics per replicate, and the matrix of
    those is returned instead, so only they are kept.
    """
    cols = Columns(columns)
    keep = summarize or (lambda block: block)
    if not hasattr(sampler, "count_blocks") or R == 0:
        width = keep(np.zeros((1, len(cols)))).shape[1]
        return replicate_matrix(sampler, lambda s: keep(counts(s, cols)[None])[0],
                                width, R, rng)
    out, lo = None, 0
    for block in sampler.count_blocks(rng, R, cols):
        block = keep(block)
        if out is None:
            out = np.empty((R, block.shape[1]), dtype=np.float64)
        out[lo:lo + len(block)] = block
        lo += len(block)
    return out


def _products(mat: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Per row, the product of each run of sizes[i] consecutive columns of
    mat; numpy multiplies a row left to right."""
    ends = np.cumsum(sizes, dtype=int)
    return np.column_stack([mat[:, e - k:e].prod(axis=1)
                            for k, e in zip(sizes, ends)])


def estimate_moment(sampler: Sampler, windows: Sequence[Window], R: int,
                    rng: Rng) -> MomentEstimate:
    """Monte Carlo n-th moment E[prod_i N(A_i)] with plug-in stderr."""
    if R < 100:
        raise ValueError("R must be at least 100")
    if not 1 <= len(windows) <= MAX_ESTIMATION_N:
        raise ValueError(f"between 1 and {MAX_ESTIMATION_N} windows")
    mat = count_matrix(sampler, [(None, w) for w in windows], R, rng)
    vals = _products(mat, [len(windows)])[:, 0]
    target = "E[" + " * ".join(f"N({w})" for w in windows) + "]"
    return MomentEstimate(
        float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(R)), R, target
    )


def _exact_column_rank(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Pivot columns of an exact rational matrix (Gaussian elimination)."""
    work = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pivots.append(c)
        lead = work[r][c]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c] / lead
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return pivots


@dataclass(frozen=True)
class FitResult(Mapping):
    """Fitted partition-measure coefficients with their covariance.

    Mapping interface exposes partition -> coefficient; stderr, the full
    covariance, per-row moment estimates, and standardized row residuals
    ride along for diagnostics (a failed decomposition shows up as large
    residuals on the rows the basis cannot explain).
    """

    coefficients: dict[Partition, float]
    stderrs: dict[Partition, float]
    covariance: np.ndarray
    moments: tuple[MomentEstimate, ...]
    residual_z: tuple[float, ...]
    basis: tuple[Partition, ...] = field(repr=False)

    def __getitem__(self, pi: Partition) -> float:
        return self.coefficients[pi]

    def __iter__(self):
        return iter(self.coefficients)

    def __len__(self) -> int:
        return len(self.coefficients)


def fit_partition_decomposition(
    sampler: Sampler,
    n: int,
    design: Sequence[Sequence[Window]],
    R: int,
    rng: Rng,
    intensity: IntensitySpec = IntensitySpec(1),
) -> FitResult:
    """Least-squares fit of moment estimates over the partition-measure basis.

    The design matrix [m_pi(tuple)] is certified full column rank in exact
    arithmetic before any sampling; a deficiency error names the partitions
    the design cannot identify.  All design rows are evaluated on shared
    realizations, and the fit covariance uses the full empirical covariance
    of the per-replicate product vector, so correlated rows are priced in.
    """
    basis = tuple(partitions(n))
    rows = [[m_pi(pi, tup, intensity) for pi in basis] for tup in design]
    pivots = _exact_column_rank(rows, len(basis))
    if len(pivots) < len(basis):
        missing = [str(basis[c]) for c in range(len(basis)) if c not in pivots]
        raise ValueError(
            "design cannot identify partition(s): " + "; ".join(missing)
        )

    mat = count_matrix(sampler, [(None, w) for tup in design for w in tup],
                       R, rng)
    prods = _products(mat, [len(tup) for tup in design])
    mhat = prods.mean(axis=0)
    S = np.cov(prods, rowvar=False).reshape(len(design), len(design))

    X = np.array([[float(v) for v in row] for row in rows])
    XtX_inv = np.linalg.inv(X.T @ X)
    P = XtX_inv @ X.T
    alpha = P @ mhat
    cov = P @ (S / R) @ P.T

    fitted = X @ alpha
    row_se = np.sqrt(np.maximum(np.diag(S), 1e-300) / R)
    resid_z = tuple(float(z) for z in (mhat - fitted) / row_se)

    moments = tuple(
        MomentEstimate(
            float(mhat[i]), float(row_se[i]), R,
            "E[" + " * ".join(f"N({w})" for w in design[i]) + "]",
        )
        for i in range(len(design))
    )
    return FitResult(
        coefficients={pi: float(a) for pi, a in zip(basis, alpha)},
        stderrs={pi: float(math.sqrt(max(cov[i, i], 0.0)))
                 for i, pi in enumerate(basis)},
        covariance=cov,
        moments=moments,
        residual_z=resid_z,
        basis=basis,
    )


def default_design(n: int) -> list[list[Window]]:
    """Shipped window-tuple design with an exactly invertible [m_pi] matrix.

    Built from the unit-length disjoint windows A=[0,1), B=[1,2), C=[2,3):
    n=2 uses {(A,A), (A,B)}; n=3 uses five tuples whose matrix is unit
    upper-triangular in the canonical partition order.
    """
    A = Window.span(0, 1)
    B = Window.span(1, 2)
    C = Window.span(2, 3)
    if n == 2:
        return [[A, A], [A, B]]
    if n == 3:
        return [[A, A, A], [A, A, B], [A, B, A], [B, A, A], [A, B, C]]
    raise ValueError("shipped designs cover n=2 and n=3")


@dataclass(frozen=True)
class DiagonalWeightResult:
    """Refinement estimates of the diagonal moment weight, coarse to fine.

    estimates[d] is the Monte Carlo mean of sum_i N(cell_i)^n over the
    2^d equal-length cells of A; the sequence decreases toward the weight
    alpha * mu(A) carried by the n-diagonal.
    """

    estimates: tuple[float, ...]
    stderrs: tuple[float, ...]
    n: int
    depth: int
    replicates: int

    @property
    def value(self) -> float:
        return self.estimates[-1]

    @property
    def stderr(self) -> float:
        return self.stderrs[-1]


def _dyadic_cells(A: Window, depth: int) -> list[Window]:
    """The 2^d equal-length cells of A for d = 0..depth, level after level,
    each level in cumulative-length order (a cell may straddle parts)."""
    # each part with the length of A before it
    parts = list(zip(A.parts, accumulate((p.length for p in A.parts),
                                         initial=Fraction(0))))

    def cell(s: Fraction, t: Fraction) -> Window:
        return Window([Interval(p.lo + max(s - b, 0), p.lo + min(t - b, p.length))
                       for p, b in parts if b < t and s < b + p.length])

    total = A.length
    return [cell(total * k / (1 << d), total * (k + 1) / (1 << d))
            for d in range(depth + 1) for k in range(1 << d)]


def diagonal_weight(sampler: Sampler, A: Window, n: int, depth: int, R: int,
                    rng: Rng) -> DiagonalWeightResult:
    """Diagonal mass via dyadic refinement: E[sum_i N(A_i^d)^n] per depth d.

    Cells are the 2^depth equal-length pieces of A in cumulative-length
    order (cells may straddle part boundaries of a multi-part A), and the
    coarser levels' unions of them.  Each replicate counts every cell of
    every level exactly and keeps only the depth + 1 sums of N^n, added
    left to right, so memory is R x (depth + 1).
    """
    if not 1 <= n <= MAX_ESTIMATION_N:
        raise ValueError(f"n must be in 1..{MAX_ESTIMATION_N}")
    if not 0 <= depth <= 12:
        raise ValueError("depth must be in 0..12")
    if A.length <= 0:
        raise ValueError("window must have positive length")
    cells = [(None, w) for w in _dyadic_cells(A, depth)]

    def level_sums(block: np.ndarray) -> np.ndarray:
        if block.dtype.kind == "f":  # weighted counts: Python float powers
            block = block.astype(object)
        return np.column_stack(
            [np.cumsum(block[:, (1 << d) - 1:(2 << d) - 1] ** n, axis=1)[:, -1]
             for d in range(depth + 1)])

    mat = count_matrix(sampler, cells, R, rng, summarize=level_sums)
    means = mat.mean(axis=0)
    ses = mat.std(axis=0, ddof=1) / math.sqrt(R)
    return DiagonalWeightResult(
        tuple(float(v) for v in means), tuple(float(s) for s in ses), n, depth, R
    )
