"""Point configurations, seeded randomness, and exact Poisson sampling.

A realization is a finite set of exact rational points (optionally weighted)
observed through a window.  Sampling follows a fixed draw-order contract so
that whole configurations are reproducible from ``(seed, stream_id)`` alone:

1. one count per window part, by inversion of the Poisson CDF from a single
   uniform each, in canonical part order;
2. then, per part, the positions: uniform integers on the dyadic grid of
   denominator 2**53, sorted and snapped to exact rationals inside the part.

The count-only replication layer (:func:`count_replicates`) reuses the same
inversion, vectorized over fixed-size chunks of derived streams, so parallel
schedules cannot change any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Sequence, Union

import numpy as np

from .dynamics import DEFAULT_MAX_STAGE, TransformHandle
from .windows import IntensitySpec, Window, format_rat

__all__ = [
    "Rng",
    "PointConfig",
    "WeightedConfig",
    "Config",
    "sample_poisson",
    "count_replicates",
    "push_forward",
    "superpose",
    "count",
    "free_check",
    "dissociation_check",
    "dump_csv",
    "DYADIC_BITS",
]

DYADIC_BITS = 53
_GRID = 1 << DYADIC_BITS
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def poisson_cdf_table(lam: float) -> np.ndarray:
    """Poisson CDF values cum_0, cum_1, ... until saturation in float64.

    The table is the reference for inversion: a uniform u maps to the first
    index n with cum_n >= u.  Scalar and vectorized consumers share it, so
    their counts agree bit for bit.
    """
    if lam < 0 or lam > 700:
        raise ValueError("Poisson mean must lie in [0, 700] for stable inversion")
    p = math.exp(-lam)
    cum = p
    out = [cum]
    n = 0
    limit = int(lam + 60 * math.sqrt(lam + 1) + 20)
    while cum < 1.0 and n < limit:
        n += 1
        p *= lam / n
        new = cum + p
        if new == cum:
            break
        cum = new
        out.append(cum)
    return np.asarray(out)


class Rng:
    """Deterministic random stream addressed by (seed, stream_id).

    Wraps a PCG64 generator seeded from the pair; distinct stream ids give
    independent streams, and :meth:`child` derives fresh ids by a splitmix64
    mix so hierarchical fan-out never collides.
    """

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed, self.stream_id)))
        )

    def child(self, index: int) -> "Rng":
        mixed = _splitmix64((self.stream_id + (int(index) + 1) * _GOLDEN) & _MASK64)
        return Rng(self.seed, mixed)

    def random(self) -> float:
        return float(self._gen.random())

    def random_block(self, size: int) -> np.ndarray:
        return self._gen.random(size)

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        return self._gen.integers(low, high, size=size, dtype=np.uint64)

    def poisson_count(self, lam: float) -> int:
        """One Poisson draw by CDF inversion; consumes exactly one uniform."""
        table = poisson_cdf_table(lam)
        u = self.random()
        return int(np.searchsorted(table, u, side="left"))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream_id={self.stream_id})"


@dataclass(frozen=True)
class PointConfig:
    """Finite simple configuration: distinct sorted rational points in a window."""

    points: tuple[Fraction, ...]
    window: Window

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        for a, b in zip(pts, pts[1:]):
            if not a < b:
                raise ValueError("points must be strictly increasing")
        for p in pts:
            if p not in self.window:
                raise ValueError(f"point {p} outside window {self.window}")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class WeightedConfig:
    """Finite discrete measure: distinct sorted points with positive weights."""

    atoms: tuple[tuple[Fraction, Fraction], ...]
    window: Window

    def __post_init__(self):
        atoms = tuple((p, w) for p, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        for (a, _), (b, _) in zip(atoms, atoms[1:]):
            if not a < b:
                raise ValueError("atom points must be strictly increasing")
        for p, w in atoms:
            if w <= 0:
                raise ValueError("weights must be positive")
            if p not in self.window:
                raise ValueError(f"atom {p} outside window {self.window}")

    def __len__(self) -> int:
        return len(self.atoms)


Config = Union[PointConfig, WeightedConfig]


def _sample_part_positions(rng: Rng, lo: Fraction, width: Fraction, n: int):
    """n distinct sorted dyadic-snapped points in [lo, lo+width)."""
    if n == 0:
        return []
    for _ in range(2):  # coincidences get one resample, then are an error
        ks = rng.integers(0, _GRID, size=n)
        uniq = np.unique(ks)
        if uniq.size == n:
            return [lo + Fraction(int(k), _GRID) * width for k in uniq]
    raise RuntimeError("coincident sampled points persist after one resample")


def sample_poisson(intensity: IntensitySpec, window: Window, rng: Rng) -> PointConfig:
    """Poisson configuration with mean alpha x length on every part.

    Counts on disjoint parts are independent; given the counts, positions
    are i.i.d. uniform.  Draw order (all counts, then all positions) is part
    of the reproducibility contract.
    """
    lam_parts = [float(intensity.alpha * p.length) for p in window.parts]
    counts = [rng.poisson_count(lam) for lam in lam_parts]
    pts: list[Fraction] = []
    for part, n in zip(window.parts, counts):
        pts.extend(_sample_part_positions(rng, part.lo, part.length, n))
    return PointConfig(tuple(pts), window)


def count_replicates(
    intensity: IntensitySpec,
    cells: Sequence[Window],
    rng: Rng,
    replicates: int,
    chunk: int = 1024,
) -> np.ndarray:
    """Counts over disjoint cells for many independent realizations.

    Returns an int64 array of shape (replicates, len(cells)).  Row r holds
    jointly Poisson counts: independent across cells, mean alpha x length.
    Replicate r lives in chunk r // chunk, which has its own derived stream,
    so results do not depend on how chunks are scheduled; for a fixed chunk
    size the output is a pure function of the rng address.
    """
    for i, a in enumerate(cells):
        for b in cells[i + 1 :]:
            if not a.intersect(b).is_empty:
                raise ValueError("cells must be pairwise disjoint")
    lams = [float(intensity.alpha * c.length) for c in cells]
    tables = [poisson_cdf_table(lam) for lam in lams]
    out = np.empty((replicates, len(cells)), dtype=np.int64)
    for c_start in range(0, replicates, chunk):
        c_stop = min(c_start + chunk, replicates)
        g = rng.child(c_start // chunk)
        # u values interleave cell-by-cell within a replicate, matching the
        # scalar draw order of repeated poisson_count calls on one stream
        us = g.random_block((c_stop - c_start) * len(cells))
        us = us.reshape(c_stop - c_start, len(cells))
        for j, table in enumerate(tables):
            out[c_start:c_stop, j] = np.searchsorted(table, us[:, j], side="left")
    return out


def push_forward(c: Config, T: TransformHandle, k: int,
                 max_stage: int = DEFAULT_MAX_STAGE) -> Config:
    """Image configuration under T^k; weights ride along, window follows."""
    new_window = T.image_window(c.window, k, max_stage=max_stage)
    if isinstance(c, PointConfig):
        pts = sorted(T.apply(x, k, max_stage=max_stage) for x in c.points)
        return PointConfig(tuple(pts), new_window)
    atoms = sorted((T.apply(x, k, max_stage=max_stage), w) for x, w in c.atoms)
    return WeightedConfig(tuple(atoms), new_window)


def superpose(c1: Config, c2: Config) -> Config:
    """Measure sum of two configurations over one shared window.

    Point + point stays simple when supports are disjoint; a shared point
    promotes the result to a weighted configuration.
    """
    if c1.window != c2.window:
        raise ValueError("superpose requires identical windows")
    w1 = c1.points if isinstance(c1, PointConfig) else None
    w2 = c2.points if isinstance(c2, PointConfig) else None
    if w1 is not None and w2 is not None and not (set(w1) & set(w2)):
        return PointConfig(tuple(sorted(w1 + w2)), c1.window)
    acc: dict[Fraction, Fraction] = {}
    for c in (c1, c2):
        if isinstance(c, PointConfig):
            for p in c.points:
                acc[p] = acc.get(p, Fraction(0)) + 1
        else:
            for p, w in c.atoms:
                acc[p] = acc.get(p, Fraction(0)) + w
    return WeightedConfig(tuple(sorted(acc.items())), c1.window)


def count(c: Config, A: Window):
    """N(A): total weight inside A for a weighted configuration, else the
    point count (marks do not weigh).

    A must be covered by the configuration's window -- counting over
    unobserved territory is an error, not a zero.
    """
    if not A.difference(c.window).is_empty:
        raise ValueError(f"window {A} exceeds observed window {c.window}")
    if isinstance(c, WeightedConfig):
        return sum((w for p, w in c.atoms if p in A), Fraction(0))
    return sum(1 for p in c.points if p in A)


def free_check(c: PointConfig, T: TransformHandle, K: int,
               max_stage: int = DEFAULT_MAX_STAGE) -> bool:
    """True iff no support point maps onto another under T^k, 0 < |k| <= K."""
    support = set(c.points)
    for k in range(-K, K + 1):
        if k == 0:
            continue
        for x in c.points:
            if T.apply(x, k, max_stage=max_stage) in support:
                return False
    return True


def dissociation_check(c1: PointConfig, c2: PointConfig, T: TransformHandle,
                       K: int, max_stage: int = DEFAULT_MAX_STAGE) -> bool:
    """True iff supports never meet under T^k for any |k| <= K (k=0 included)."""
    support2 = set(c2.points)
    for k in range(-K, K + 1):
        for x in c1.points:
            if T.apply(x, k, max_stage=max_stage) in support2:
                return False
    return True


def dump_csv(c: Config, fh: IO[str], *, seed: int | None = None,
             stream_id: int | None = None,
             intensity: IntensitySpec | None = None) -> None:
    """Write a configuration as CSV: exact point strings, decimal weights."""
    meta = [f"window={c.window}"]
    if seed is not None:
        meta.insert(0, f"seed={seed}")
    if stream_id is not None:
        meta.insert(1 if seed is not None else 0, f"stream_id={stream_id}")
    if intensity is not None:
        meta.append(f"intensity={format_rat(intensity.alpha)}")
    fh.write("# " + " ".join(meta) + "\n")
    fh.write("point,weight\n")
    if isinstance(c, PointConfig):
        for p in c.points:
            fh.write(f"{format_rat(p)},1\n")
    else:
        for p, w in c.atoms:
            fh.write(f"{format_rat(p)},{float(w)}\n")
