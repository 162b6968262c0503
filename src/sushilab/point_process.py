"""Point configurations, seeded randomness, and exact Poisson sampling.

A realization is a finite set of exact rational points (optionally weighted)
observed through a window.  Sampling follows a fixed draw-order contract so
that whole configurations are reproducible from ``(seed, stream_id)`` alone:

1. one count per window part, by inversion of the Poisson CDF from a single
   uniform each, in canonical part order.  A part whose mean exceeds 700 is
   first cut into the fewest equal sub-parts whose mean is at most 700
   (Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. X), and
   each sub-part draws its own count;
2. then, per (sub-)part ``[lo, lo + width)``, the positions: distinct
   uniform integers k on the grid ``[0, 2**53)``, sorted; the point is the
   exact rational ``lo + k * width / 2**53``.

A sampled configuration keeps those integers: one sorted uint64 array per
(sub-)part, its lattice frame.  Counting, separation thinning and splitting
work on them.  A window edge b becomes the exact integer threshold
``ceil((b - lo) * 2**53 / width)``, and a count is a ``searchsorted``.  The
``Fraction`` points are built only when ``.points`` is read.

The count-only replication layer (:func:`count_replicates`) reuses the same
inversion, vectorized over fixed-size chunks of derived streams, so parallel
schedules cannot change any result.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
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
# Largest Poisson mean one CDF inversion takes; larger parts are cut.
_MAX_MEAN = 700
# Size bound of every cache below: each holds per-window data that the
# replicates of one battery item share, so a few entries suffice.
_CACHE_SIZE = 256


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _cache_put(cache: dict, key, value):
    if len(cache) >= _CACHE_SIZE:
        cache.clear()
    cache[key] = value
    return value


@lru_cache(maxsize=_CACHE_SIZE)
def poisson_cdf_table(lam: float) -> np.ndarray:
    """Poisson CDF values cum_0, cum_1, ... until saturation in float64.

    The table is the reference for inversion: a uniform u maps to the first
    index n with cum_n >= u.  Scalar and vectorized consumers share it, so
    their counts agree bit for bit.  Tables are cached by mean and
    returned read-only.
    """
    if lam < 0 or lam > _MAX_MEAN:
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
    table = np.asarray(out)
    table.flags.writeable = False
    return table


def _pieces(mass: Fraction) -> int:
    """Fewest equal pieces of a Poisson mean with each piece at most 700."""
    return max(1, math.ceil(mass / _MAX_MEAN))


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


class _Frame:
    """Lattice frame ``[lo, lo + width)``: index k stands for the point
    ``lo + k * width / 2**53``, for integer k in ``[0, 2**53)``.

    It caches, per window, the index thresholds of the window's edges, and,
    per kappa, the largest index gap of points at most kappa apart.  Both
    caches are bounded; windows memoize their hash, and kappa is keyed by
    its integer numerator and denominator, so a cache hit hashes no
    Fraction.
    """

    __slots__ = ("lo", "width", "_num0", "_step", "_den", "_cuts", "_gaps")

    def __init__(self, lo: Fraction, width: Fraction) -> None:
        self.lo, self.width = lo, width
        # lo + k * width / 2**53 == (_num0 + k * _step) / _den, exactly
        self._den = lo.denominator * width.denominator * _GRID
        self._num0 = lo.numerator * width.denominator * _GRID
        self._step = width.numerator * lo.denominator
        self._cuts: dict = {}
        self._gaps: dict = {}

    def points(self, ks: np.ndarray) -> list[Fraction]:
        num0, step, den = self._num0, self._step, self._den
        return [Fraction(num0 + k * step, den) for k in ks.tolist()]

    def _threshold(self, x: Fraction) -> int:
        """Least index whose point is >= x, clipped to [0, 2**53]."""
        return min(max(math.ceil((x - self.lo) * _GRID / self.width), 0), _GRID)

    def cuts(self, A: Window) -> np.ndarray | None:
        """Thresholds ``[t(a_1), t(b_1), t(a_2), ...]`` of A's parts that
        meet the frame, or None when none does: the points in part i have
        the indices in ``[t(a_i), t(b_i))``."""
        try:
            return self._cuts[A]
        except KeyError:
            pass
        hi = self.lo + self.width
        ts = [self._threshold(x) for p in A.parts
              if p.lo < hi and self.lo < p.hi for x in (p.lo, p.hi)]
        return _cache_put(self._cuts, A,
                          np.array(ts, dtype=np.uint64) if ts else None)

    def gap_bound(self, kappa: Fraction) -> int:
        """Largest index gap d with d * width / 2**53 <= kappa, capped at
        2**53 (no two indices of the frame are farther apart)."""
        key = (kappa.numerator, kappa.denominator)
        try:
            return self._gaps[key]
        except KeyError:
            pass
        return _cache_put(self._gaps, key,
                          min(math.floor(kappa * _GRID / self.width), _GRID))


class _Layout:
    """The lattice frames of one sampled window, in point order: each part,
    cut into sub-parts of mean at most 700, with the Poisson mean of each."""

    __slots__ = ("window", "frames", "means")

    def __init__(self, alpha: Fraction, window: Window) -> None:
        frames, means = [], []
        for part in window.parts:
            mass = alpha * part.length
            m = _pieces(mass)
            step = part.length / m
            frames += [_Frame(part.lo + j * step, step) for j in range(m)]
            means += [float(mass / m)] * m
        self.window = window
        self.frames = tuple(frames)
        self.means = tuple(means)


@lru_cache(maxsize=_CACHE_SIZE)
def _layout(alpha_num: int, alpha_den: int, window: Window) -> _Layout:
    # keyed by integers and a window, whose hash is memoized: a hit hashes
    # no Fraction
    return _Layout(Fraction(alpha_num, alpha_den), window)


def _first_outside(xs: Sequence, window: Window, key=None):
    """The first of the sorted xs (or their keys) outside window, or None."""
    done = 0
    for part in window.parts:
        if bisect_left(xs, part.lo, key=key) > done:
            break
        done = bisect_left(xs, part.hi, key=key)
    if done == len(xs):
        return None
    return xs[done] if key is None else key(xs[done])


class PointConfig:
    """Finite simple configuration: distinct sorted rational points in a window.

    ``PointConfig(points, window)`` checks hand-built points.  A sampled
    configuration holds, for each lattice frame of its sampling window, the
    sorted uint64 grid indices of its points instead, and builds the exact
    ``Fraction`` points when ``.points`` is first read.  Counting, thinning
    and splitting never read them.  Either way the configuration is
    immutable, and equality and hashing go by ``(points, window)``.
    """

    __slots__ = ("window", "_points", "_layout", "_ks", "_len")

    def __init__(self, points: Sequence[Fraction], window: Window) -> None:
        pts = tuple(points)
        for a, b in zip(pts, pts[1:]):
            if not a < b:
                raise ValueError("points must be strictly increasing")
        p = _first_outside(pts, window)
        if p is not None:
            raise ValueError(f"point {p} outside window {window}")
        self._set(window=window, _points=pts, _layout=None, _ks=None,
                  _len=len(pts))

    @classmethod
    def _on_lattice(cls, layout: _Layout, ks: Sequence[np.ndarray],
                    window: Window) -> "PointConfig":
        """The points with indices ks[i] on layout.frames[i], in window."""
        for k in ks:
            if k.size and (k[-1] >= _GRID or not (k[1:] > k[:-1]).all()):
                raise ValueError("grid indices must be strictly increasing "
                                 "and below 2**53")
        c = object.__new__(cls)
        c._set(window=window, _points=None, _layout=layout, _ks=tuple(ks),
               _len=sum(k.size for k in ks))
        if window is not layout.window and \
                sum(j - i for i, j in _index_ranges(c, window)) != len(c):
            raise ValueError(f"points outside window {window}")
        return c

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"PointConfig is immutable; cannot set {name!r}")

    @property
    def points(self) -> tuple[Fraction, ...]:
        if self._points is None:
            pts: list[Fraction] = []
            for frame, ks in zip(self._layout.frames, self._ks):
                pts += frame.points(ks)
            object.__setattr__(self, "_points", tuple(pts))
        return self._points

    def _subset(self, keep: np.ndarray, window: Window) -> "PointConfig":
        """The points where the boolean mask keep is set, in window."""
        if self._ks is None:
            return PointConfig(
                tuple(p for p, k in zip(self.points, keep.tolist()) if k), window)
        ks, start = [], 0
        for k in self._ks:
            ks.append(k[keep[start:start + k.size]])
            start += k.size
        return PointConfig._on_lattice(self._layout, ks, window)

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointConfig):
            return NotImplemented
        if self._len != other._len or self.window != other.window:
            return False
        if self._layout is not None and self._layout is other._layout:
            return all(np.array_equal(a, b) for a, b in zip(self._ks, other._ks))
        return self.points == other.points

    def __hash__(self) -> int:
        return hash((self.points, self.window))

    def __reduce__(self):
        # pickle and copy go through the public constructor
        return PointConfig, (self.points, self.window)

    def __repr__(self) -> str:
        return f"PointConfig(points={self.points!r}, window={self.window!r})"


_atom_point = itemgetter(0)


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
        p = _first_outside(atoms, self.window, key=_atom_point)
        if p is not None:
            raise ValueError(f"atom {p} outside window {self.window}")

    def __len__(self) -> int:
        return len(self.atoms)


Config = Union[PointConfig, WeightedConfig]


def _sample_part_positions(rng: Rng, n: int) -> np.ndarray:
    """n distinct sorted grid indices in [0, 2**53), as uint64."""
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    for _ in range(2):  # coincidences get one resample, then are an error
        ks = rng.integers(0, _GRID, size=n)
        uniq = np.unique(ks)
        if uniq.size == n:
            return uniq
    raise RuntimeError("coincident sampled points persist after one resample")


def sample_poisson(intensity: IntensitySpec, window: Window, rng: Rng) -> PointConfig:
    """Poisson configuration with mean alpha x length on every part.

    Counts on disjoint parts are independent; given the counts, positions
    are i.i.d. uniform.  Draw order (all counts, then all positions) is part
    of the reproducibility contract.  The result holds its points as grid
    indices on the window's lattice frames.
    """
    alpha = intensity.alpha
    layout = _layout(alpha.numerator, alpha.denominator, window)
    counts = [rng.poisson_count(lam) for lam in layout.means]
    ks = [_sample_part_positions(rng, n) for n in counts]
    return PointConfig._on_lattice(layout, ks, window)


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
    A cell whose mean exceeds 700 sums the counts of the fewest equal
    pieces of mean at most 700, drawn one after another.  Replicate r lives
    in chunk r // chunk, which has its own derived stream, so results do
    not depend on how chunks are scheduled; for a fixed chunk size the
    output is a pure function of the rng address.
    """
    for i, a in enumerate(cells):
        for b in cells[i + 1 :]:
            if not a.intersect(b).is_empty:
                raise ValueError("cells must be pairwise disjoint")
    masses = [intensity.alpha * c.length for c in cells]
    pieces = [_pieces(mass) for mass in masses]
    tables = [poisson_cdf_table(float(mass / m)) for mass, m in zip(masses, pieces)]
    width = sum(pieces)
    out = np.empty((replicates, len(cells)), dtype=np.int64)
    for c_start in range(0, replicates, chunk):
        c_stop = min(c_start + chunk, replicates)
        g = rng.child(c_start // chunk)
        # u values interleave cell-by-cell within a replicate, matching the
        # scalar draw order of repeated poisson_count calls on one stream
        us = g.random_block((c_stop - c_start) * width)
        us = us.reshape(c_stop - c_start, width)
        col = 0
        for j, (table, m) in enumerate(zip(tables, pieces)):
            out[c_start:c_stop, j] = np.searchsorted(
                table, us[:, col:col + m], side="left").sum(axis=1)
            col += m
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


@lru_cache(maxsize=_CACHE_SIZE)
def _covers(window: Window, A: Window) -> bool:
    return A.difference(window).is_empty


def _index_ranges(c, A: Window):
    """Index ranges [i, j) of the points (or atoms) of c that lie in A, one
    per part of A that meets them, in point order."""
    if isinstance(c, PointConfig) and c._ks is not None:
        start = 0
        for frame, ks in zip(c._layout.frames, c._ks):
            if ks.size:
                cuts = frame.cuts(A)
                if cuts is not None:
                    idx = ks.searchsorted(cuts).tolist()
                    for i, j in zip(idx[::2], idx[1::2]):
                        yield start + i, start + j
            start += ks.size
        return
    if isinstance(c, WeightedConfig):
        xs, key = c.atoms, _atom_point
    else:
        xs, key = c.points, None
    for part in A.parts:
        yield bisect_left(xs, part.lo, key=key), bisect_left(xs, part.hi, key=key)


def _window_mask(c: PointConfig, A: Window) -> np.ndarray:
    """Boolean per point of c: does it lie in A?"""
    mask = np.zeros(len(c), dtype=bool)
    for i, j in _index_ranges(c, A):
        mask[i:j] = True
    return mask


def _gaps_above(c: PointConfig, kappa: Fraction) -> np.ndarray:
    """Boolean per pair of neighbouring points of c: is their gap > kappa?

    On a lattice, a gap within a frame is an index gap compared with the
    frame's integer bound; neighbours in different frames are compared as
    exact Fractions.
    """
    if c._ks is None:
        pts = c.points
        return np.array([b - a > kappa for a, b in zip(pts, pts[1:])], dtype=bool)
    out, last = [], None
    for frame, ks in zip(c._layout.frames, c._ks):
        if not ks.size:
            continue
        if last is not None:
            out.append(np.array([frame.points(ks[:1])[0] - last > kappa]))
        out.append(ks[1:] - ks[:-1] > frame.gap_bound(kappa))
        last = frame.points(ks[-1:])[0]
    return np.concatenate(out) if out else np.zeros(0, dtype=bool)


def count(c: Config, A: Window):
    """N(A): total weight inside A for a weighted configuration, else the
    point count (marks do not weigh).

    A must be covered by the configuration's window -- counting over
    unobserved territory is an error, not a zero.  Points on a lattice are
    counted by their index thresholds, any others by bisection.
    """
    if not _covers(c.window, A):
        raise ValueError(f"window {A} exceeds observed window {c.window}")
    if isinstance(c, WeightedConfig):
        return sum((w for i, j in _index_ranges(c, A) for _, w in c.atoms[i:j]),
                   Fraction(0))
    return sum(j - i for i, j in _index_ranges(c, A))


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
