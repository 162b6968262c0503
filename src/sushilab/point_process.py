"""Point configurations, seeded randomness, and exact Poisson sampling.

A realization is a finite set of exact rational points observed through a
window, each point optionally marked (a split is marked by component, a
cluster ground by catalog entry) or, off the lattice, weighted (a cluster
measure weighs each point by the mass its clusters hang there): one type,
:class:`PointConfig`, holds them all.  Sampling follows a fixed draw-order
contract so
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

:func:`counts` gives N(A) of one realization for every column ``(j, A)``,
j naming the whole realization (None) or a mark: one ``searchsorted`` per
frame ranks every edge among the points, and a table of cumulative mark
counts reads each mark's count at those ranks; a weighted configuration
sums the exact weights between the ranks.  :func:`count` is the one-column
case.

:class:`Streams` gives the raw PCG64 words of the child streams
``rng.child(r)`` of many replicates at once, bit-identical to numpy's: a
uniform is the top 53 bits of a word times 2**-53 and a grid index its top
53 bits.  A block of replicates is sampled from them as arrays, each
replicate reading its own stream in the draw order above, and counted with
the same edge thresholds, so its counts are those of one
:func:`sample_poisson` per replicate.

:func:`free_check` and :func:`dissociation_check` ask whether ``T^k x ==
y`` for points x, y.  On lattice configurations of one layout, and on whole
blocks, they read ``T^k`` from ``T.piecewise``: a point of frame f with
index i in a piece moved by s lands on frame g's index ``j`` exactly when
``f.lo + i * f.width / 2**53 + s == g.lo + j * g.width / 2**53``, a linear
congruence solved once per (frame, k, piece, frame), so membership is a
lookup of packed (row, index) keys.  Points in the residual that
``T.piecewise`` leaves unresolved, and hand-built points, take the
point-by-point ``Fraction`` path.

The count-only replication layer (:func:`count_replicates`) reuses the same
inversion, vectorized over chunks of :data:`_CHUNK` replicates, one derived
stream per chunk; its output is a pure function of the rng address.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from typing import IO, Iterable, Sequence

import numpy as np

from .dynamics import DEFAULT_MAX_STAGE, TransformHandle
from .windows import Interval, IntensitySpec, RatLike, Window, as_rat, format_rat

__all__ = [
    "Rng",
    "Streams",
    "PointConfig",
    "sample_poisson",
    "count_replicates",
    "push_forward",
    "superpose",
    "Columns",
    "counts",
    "count",
    "free_check",
    "dissociation_check",
    "dump_csv",
    "DYADIC_BITS",
]

DYADIC_BITS = 53
_GRID = 1 << DYADIC_BITS
# Rows (or runs) that one uint64 key holds above a grid index.
KEY_ROWS = 1 << (64 - DYADIC_BITS)
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Largest Poisson mean one CDF inversion takes; larger parts are cut.
_MAX_MEAN = 700
# Replicates that count_replicates draws from one derived stream; a pinned
# part of its draw order.
_CHUNK = 1024
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


# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe), and the
# PCG64 multiplier
_U32, _U64 = np.uint32, np.uint64
_LO32, _SH32 = _U64(0xFFFFFFFF), _U64(32)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_steps(init: int, mult: int, n: int) -> list[tuple]:
    """The (xor, multiplier) pair of each of n hashmix calls: the hash
    constant evolves alike for every stream."""
    out, h = [], init
    for _ in range(n):
        nxt = (h * mult) & 0xFFFFFFFF
        out.append((_U32(h), _U32(nxt)))
        h = nxt
    return out


_POOL_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
_STATE_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(v: np.ndarray, step: tuple) -> np.ndarray:
    v = (v ^ step[0]) * step[1]
    return v ^ (v >> _U32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _U32(0xCA01F9DD) * x - _U32(0x4973F715) * y
    return r ^ (r >> _U32(16))


def _mulhi(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products x * y, from 32-bit halves."""
    x0, x1, y0, y1 = x & _LO32, x >> _SH32, y & _LO32, y >> _SH32
    p01, p10 = x0 * y1, x1 * y0
    mid = ((x0 * y0) >> _SH32) + (p01 & _LO32) + (p10 & _LO32)
    return x1 * y1 + (p01 >> _SH32) + (p10 >> _SH32) + (mid >> _SH32)


def _mul128(a: tuple, b: tuple) -> tuple:
    """a * b mod 2**128 for (hi, lo) pairs of uint64 arrays."""
    return _mulhi(a[1], b[1]) + a[0] * b[1] + a[1] * b[0], a[1] * b[1]


def _add128(a: tuple, b: tuple) -> tuple:
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _pairs(xs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit integers as (hi, lo) uint64 arrays."""
    return (np.array([x >> 64 for x in xs], dtype=np.uint64),
            np.array([x & _MASK64 for x in xs], dtype=np.uint64))


@lru_cache(maxsize=None)
def _jumps(bits: int) -> tuple:
    """Jump-ahead pairs for k < 2**bits steps: k PCG64 steps take state s
    to M**k * s + c_k * inc, with c_k = 1 + M + ... + M**(k-1)."""
    ms, cs, m, c = [], [], 1, 0
    for _ in range(1 << bits):
        ms.append(m)
        cs.append(c)
        m, c = (m * _PCG_MULT) & _MASK128, (c * _PCG_MULT + 1) & _MASK128
    return _pairs(ms), _pairs(cs)


class Streams:
    """The raw PCG64 words of ``rng.child(r)`` for r = start..stop-1, as
    arrays; row i is replicate start + i.

    Each stream is seeded as numpy seeds ``PCG64(SeedSequence((seed,
    sid)))``: child ids by splitmix64, the 4-word SeedSequence pool mixed in
    uint32 arithmetic, and the PCG64 state held as uint64 (hi, lo) pairs.
    Word k of a stream is one multiply-add, ``M**(k+1) * s + c_(k+1) *
    inc``, from the stream's seeded state s, so any words of any streams
    are drawn at once, bit-identical to numpy's ``random_raw`` of
    ``rng.child(r)``.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, rng: Rng, stop: int, start: int = 0) -> None:
        ids = np.arange(start + 1, stop + 1, dtype=np.uint64) * _U64(_GOLDEN)
        R = ids.size
        z = ids + _U64(rng.stream_id) + _U64(_GOLDEN)  # splitmix64, as child
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        sid = z ^ (z >> _U64(31))
        # SeedSequence's 4-word pool: [seed, sid] as uint32 words, zero
        # padded; a zero pad word hashes like an absent one
        seed = [rng.seed & 0xFFFFFFFF, rng.seed >> 32] if rng.seed >> 32 else \
            [rng.seed]
        pool = [np.full(R, w, dtype=np.uint32) for w in seed]
        pool += [(sid & _LO32).astype(np.uint32), (sid >> _SH32).astype(np.uint32)]
        pool += [np.zeros(R, dtype=np.uint32)] * (4 - len(pool))
        steps = iter(_POOL_STEPS)
        pool = [_hashmix(w, next(steps)) for w in pool]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(steps)))
        w = [_hashmix(pool[i % 4], step).astype(np.uint64)
             for i, step in enumerate(_STATE_STEPS)]
        s_hi, s_lo, q_hi, q_lo = (w[2 * j] | (w[2 * j + 1] << _SH32) for j in range(4))
        # PCG64 seeding: inc = 2q + 1, state = (inc + s) * M + inc
        inc = ((q_hi << _U64(1)) | (q_lo >> _U64(63)), (q_lo << _U64(1)) | _U64(1))
        mult = (_U64(_PCG_MULT >> 64), _U64(_PCG_MULT & _MASK64))
        self._state = _add128(_mul128(_add128(inc, (s_hi, s_lo)), mult), inc)
        self._inc = inc

    def __len__(self) -> int:
        return self._inc[0].size

    def words(self, rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Word k (from 0) of stream rows, elementwise, as uint64.

        The uint64 products wrap by design; they are taken on arrays of at
        least one dimension, since numpy warns of overflow only on scalars.
        """
        rows, k = np.broadcast_arrays(rows, np.asarray(k) + 1)
        shape = rows.shape
        rows, k = np.atleast_1d(rows, k)
        m, c = _jumps(max(6, int(k.max(initial=0)).bit_length()))
        s = (self._state[0][rows], self._state[1][rows])
        inc = (self._inc[0][rows], self._inc[1][rows])
        hi, lo = _add128(_mul128((m[0][k], m[1][k]), s),
                         _mul128((c[0][k], c[1][k]), inc))
        v, r = hi ^ lo, hi >> _U64(58)  # XSL-RR output
        return ((v >> r) | (v << ((_U64(64) - r) & _U64(63)))).reshape(shape)[()]


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """numpy's ``random()`` of raw words: their top 53 bits times 2**-53."""
    return (raw >> _U64(11)) * (1.0 / _GRID)


def _grid_index(raw: np.ndarray) -> np.ndarray:
    """numpy's ``integers(0, 2**53)`` of raw words: Lemire's method never
    rejects for a power-of-two range and keeps the top 53 bits."""
    return raw >> _U64(11)


class _Frame:
    """Lattice frame ``[lo, lo + width)``: index k stands for the point
    ``lo + k * width / 2**53``, for integer k in ``[0, 2**53)``.

    It caches, per :class:`Columns`, the index thresholds of their edges,
    and, per kappa, the largest index gap of points at most kappa apart.
    Both caches are bounded; Columns hash by identity, and kappa is keyed
    by its integer numerator and denominator, so a cache hit hashes no
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

    def cuts(self, columns: "Columns") -> np.ndarray:
        """The threshold of each edge of columns: the frame's points below an
        edge are those with indices below its threshold."""
        try:
            return self._cuts[columns]
        except KeyError:
            pass
        return _cache_put(self._cuts, columns, np.array(
            [self._threshold(x) for x in columns.edges], dtype=np.uint64))

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


def _check_points(pts: Sequence[Fraction], window: Window) -> None:
    """Refuse points that are not strictly increasing or not in window: the
    one check of every hand-built configuration."""
    for a, b in zip(pts, pts[1:]):
        if not a < b:
            raise ValueError("points must be strictly increasing")
    done = 0  # the points below the current part's end lie in the window
    for part in window.parts:
        if bisect_left(pts, part.lo) > done:
            break
        done = bisect_left(pts, part.hi)
    if done < len(pts):
        raise ValueError(f"point {pts[done]} outside window {window}")


class PointConfig:
    """Finite configuration: distinct sorted rational points in a window,
    point i with the mark ``marks[i]`` in ``0..mark_count-1``, or with the
    exact positive weight ``weights[i]``, if any.

    ``PointConfig(points, window, marks=None, mark_count=None,
    weights=None)`` checks hand-built points.  A mark is a label and a
    marked point counts 1; a weighted configuration is the discrete measure
    that counts each point's weight.  Marks and weights never go together.
    A sampled configuration carries no weights, and holds, for each lattice
    frame of its sampling window, the sorted uint64 grid indices of its
    points instead, building the exact ``Fraction`` points when ``.points``
    is first read.  Counting, thinning, marking and splitting never read
    them.  Either way the configuration is immutable, and equality goes by
    ``(points, window, marks, mark_count, weights)``.
    """

    __slots__ = ("window", "marks", "mark_count", "weights", "_points",
                 "_layout", "_ks", "_len")

    def __init__(self, points: Sequence[Fraction], window: Window,
                 marks: Sequence[int] | None = None,
                 mark_count: int | None = None,
                 weights: Sequence[RatLike] | None = None) -> None:
        pts = tuple(points)
        _check_points(pts, window)
        if (marks is None) != (mark_count is None):
            raise ValueError("marks and mark_count go together")
        if marks is not None:
            if weights is not None:
                raise ValueError("weights and marks do not go together")
            if isinstance(mark_count, bool) or \
                    not hasattr(type(mark_count), "__index__"):
                raise TypeError("mark_count must be an integer")
            mark_count = operator.index(mark_count)
            marks = np.array([operator.index(m) for m in marks], dtype=np.intp)
            if not (mark_count >= 1 and marks.size == len(pts)
                    and ((marks >= 0) & (marks < mark_count)).all()):
                raise ValueError(f"need one mark in 0..{mark_count - 1} per point")
            marks.flags.writeable = False
        if weights is not None:
            weights = tuple(map(as_rat, weights))
            if len(weights) != len(pts):
                raise ValueError(f"weights: need one per point, not {len(weights)} "
                                 f"for {len(pts)}")
            if any(w.numerator <= 0 for w in weights):  # denominators are positive
                raise ValueError("weights must be positive")
        self._set(window=window, marks=marks, mark_count=mark_count,
                  weights=weights, _points=pts, _layout=None, _ks=None,
                  _len=len(pts))

    @classmethod
    def of_sum(cls, pairs: Iterable[tuple[Fraction, RatLike]],
               window: Window) -> "PointConfig":
        """The measure summing, at each point, its weights among pairs."""
        acc: dict[Fraction, Fraction] = {}
        for p, w in pairs:
            acc[p] = acc[p] + as_rat(w) if p in acc else as_rat(w)
        atoms = sorted(acc.items())
        return cls([p for p, _ in atoms], window, weights=[w for _, w in atoms])

    @classmethod
    def _on_lattice(cls, layout: _Layout, ks: Sequence[np.ndarray],
                    window: Window) -> "PointConfig":
        """The points with indices ks[i] on layout.frames[i], in window."""
        for k in ks:
            if k.size and (k[-1] >= _GRID or not (k[1:] > k[:-1]).all()):
                raise ValueError("grid indices must be strictly increasing "
                                 "and below 2**53")
        c = object.__new__(cls)
        c._set(window=window, marks=None, mark_count=None, weights=None,
               _points=None, _layout=layout, _ks=tuple(ks),
               _len=sum(k.size for k in ks))
        if window is not layout.window and \
                _exact_counts(c, _one_column(window))[0] != len(c):
            raise ValueError(f"points outside window {window}")
        return c

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"PointConfig is immutable; cannot set {name!r}")

    def _marked(self, marks: np.ndarray, mark_count: int) -> "PointConfig":
        """These points with the marks marks, which the caller has checked."""
        if self.weights is not None:
            raise ValueError("weights and marks do not go together")
        marks.flags.writeable = False
        c = object.__new__(PointConfig)
        for name in PointConfig.__slots__:
            object.__setattr__(c, name, getattr(self, name))
        c._set(marks=marks, mark_count=mark_count)
        return c

    @property
    def points(self) -> tuple[Fraction, ...]:
        if self._points is None:
            pts: list[Fraction] = []
            for frame, ks in zip(self._layout.frames, self._ks):
                pts += frame.points(ks)
            object.__setattr__(self, "_points", tuple(pts))
        return self._points

    @property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The (point, weight) pairs of the measure; an unweighted point
        weighs 1."""
        return tuple(zip(self.points, self.weights or repeat(Fraction(1))))

    def _subset(self, keep: np.ndarray, window: Window) -> "PointConfig":
        """The points where the boolean mask keep is set, in window, with
        their weights but not their marks."""
        if self._ks is None:
            at = np.flatnonzero(keep).tolist()
            return PointConfig([self.points[i] for i in at], window,
                               weights=self.weights and [self.weights[i] for i in at])
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
        if (self._len, self.window, self.mark_count, self.weights) != \
                (other._len, other.window, other.mark_count, other.weights):
            return False
        if self.marks is not None and not np.array_equal(self.marks, other.marks):
            return False
        if self._layout is not None and self._layout is other._layout:
            return all(np.array_equal(a, b) for a, b in zip(self._ks, other._ks))
        return self.points == other.points

    def __hash__(self) -> int:
        return hash((self.points, self.window, self.mark_count, self.weights))

    def __reduce__(self):
        # pickle and copy go through the public constructor
        return PointConfig, (self.points, self.window, self.marks,
                             self.mark_count, self.weights)

    def __repr__(self) -> str:
        extra = "" if self.marks is None else \
            f", marks={tuple(self.marks.tolist())!r}, mark_count={self.mark_count}"
        if self.weights is not None:
            extra = f", weights={self.weights!r}"
        return f"PointConfig(points={self.points!r}, window={self.window!r}{extra})"


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
    # the layout's own window, equal to window, needs no coverage check
    return PointConfig._on_lattice(layout, ks, layout.window)


def count_replicates(
    intensity: IntensitySpec,
    cells: Sequence[Window],
    rng: Rng,
    replicates: int,
) -> np.ndarray:
    """Counts over disjoint cells for many independent realizations.

    Returns an int64 array of shape (replicates, len(cells)).  Row r holds
    jointly Poisson counts: independent across cells, mean alpha x length.
    A cell whose mean exceeds 700 sums the counts of the fewest equal
    pieces of mean at most 700, drawn one after another.  Replicate r lives
    in chunk ``r // _CHUNK`` and reads that chunk's stream ``rng.child(r //
    _CHUNK)``, so the output is a pure function of the rng address.
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
    for c_start in range(0, replicates, _CHUNK):
        c_stop = min(c_start + _CHUNK, replicates)
        g = rng.child(c_start // _CHUNK)
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


def push_forward(c: PointConfig, T: TransformHandle, k: int) -> PointConfig:
    """Image configuration under T^k; marks and weights ride along, window follows."""
    new_window = T.image_window(c.window, k)
    images = [T.apply(x, k) for x in c.points]
    order = sorted(range(len(images)), key=images.__getitem__)
    marks = None if c.marks is None else c.marks[order]
    weights = None if c.weights is None else [c.weights[i] for i in order]
    return PointConfig([images[i] for i in order], new_window, marks,
                       c.mark_count, weights)


def superpose(c1: PointConfig, c2: PointConfig) -> PointConfig:
    """Measure sum of two configurations over one shared window.

    Unweighted configurations stay unweighted when their supports are
    disjoint; a shared point or a weighted summand gives a weighted sum.
    Marks are labels, not weights: every marked point counts 1, and the sum
    carries no marks.
    """
    if c1.window != c2.window:
        raise ValueError("superpose requires identical windows")
    if c1.weights is None and c2.weights is None:
        pts = set(c1.points).union(c2.points)
        if len(pts) == len(c1) + len(c2):
            return PointConfig(sorted(pts), c1.window)
    return PointConfig.of_sum(c1.atoms + c2.atoms, c1.window)


class Columns:
    """Count columns ``(j, A)`` for :func:`counts`, with their windows' part
    edges ``[a_1, b_1, a_2, ...]`` listed once, and per edge the row of
    :func:`_mark_table` its column reads (None when no column names a mark).
    Frames cache their edge thresholds by Columns object, so pass the same
    one for every replicate."""

    __slots__ = ("windows", "edges", "parts", "rows", "top", "_bounds")

    def __init__(self, columns: Sequence[tuple[int | None, Window]]) -> None:
        columns = list(columns)
        self.top = max((j for j, _ in columns if j is not None), default=-1)
        if any(j is not None and j < 0 for j, _ in columns):
            raise ValueError("column selectors must be marks, at least 0")
        self.windows = tuple(A for _, A in columns)
        self.edges = [x for A in self.windows for p in A.parts
                      for x in (p.lo, p.hi)]
        self.rows = None if self.top < 0 else np.array(
            [-1 if j is None else j for j, A in columns for _ in A.parts
             for _ in range(2)], dtype=np.intp)
        nparts = [len(A.parts) for A in self.windows]
        bounds = [0, *accumulate(nparts)]
        self.parts = list(zip(bounds, bounds[1:]))  # each window's parts
        self._bounds = None if set(nparts) <= {1} else \
            (np.array(bounds[:-1]), np.array(bounds[1:]))

    def __len__(self) -> int:
        return len(self.windows)

    def totals(self, per_part: np.ndarray) -> np.ndarray:
        """Per window, the sum over its parts of the integers per_part, along
        its last axis."""
        if self._bounds is None:  # one part per window
            return per_part
        run = np.cumsum(per_part, axis=-1)
        run = np.concatenate((np.zeros(run.shape[:-1] + (1,), run.dtype), run),
                             axis=-1)
        return run[..., self._bounds[1]] - run[..., self._bounds[0]]


@lru_cache(maxsize=_CACHE_SIZE)
def _one_column(A: Window) -> Columns:
    return Columns([(None, A)])


@lru_cache(maxsize=_CACHE_SIZE)
def _uncovered(window: Window, columns: Columns) -> Window | None:
    """The first window of columns that window does not cover, or None."""
    return next((A for A in columns.windows if not A.difference(window).is_empty),
                None)


def _check_columns(window: Window, mark_count: int | None,
                   columns: Columns) -> None:
    """Refuse columns that reach beyond window or name a mark not in
    0..mark_count-1."""
    A = _uncovered(window, columns)
    if A is not None:
        raise ValueError(f"window {A} exceeds observed window {window}")
    if columns.top >= (mark_count or 0):
        raise ValueError(f"column selector {columns.top} names no component or mark")


def _ranks(c: PointConfig, columns: Columns) -> np.ndarray:
    """For each edge of columns, the number of points of c below it.  On a
    lattice, one ``searchsorted`` per frame, summed: a frame wholly below an
    edge gives all its points, one above it none.  Hand-built
    configurations bisect their points."""
    if c._ks is not None:
        return sum((ks.searchsorted(frame.cuts(columns))
                    for frame, ks in zip(c._layout.frames, c._ks) if ks.size),
                   np.zeros(len(columns.edges), dtype=np.int64))
    xs = c.points
    return np.array([bisect_left(xs, x) for x in columns.edges], dtype=np.int64)


def _mark_table(c: PointConfig) -> np.ndarray:
    """Entry (j, i) counts the points of mark j among the first i points of
    c; the last row, j = -1 = mark_count, counts them all."""
    m, n = c.mark_count, len(c)
    table = np.zeros((m + 1, n + 1), dtype=np.int64)
    table[c.marks, np.arange(1, n + 1)] = 1  # point i - 1 steps its row at i
    table[m, 1:] = 1
    return table.cumsum(axis=1)


def _window_mask(c: PointConfig, A: Window) -> np.ndarray:
    """Boolean per point of c: does it lie in A?"""
    mask = np.zeros(len(c), dtype=bool)
    rank = _ranks(c, _one_column(A)).tolist()
    for i, j in zip(rank[::2], rank[1::2]):
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


def _exact_counts(c: PointConfig, columns: Columns) -> np.ndarray:
    """N(A) for each column (j, A) of columns: point counts as int64, or a
    list of exact Fraction weights for a weighted configuration."""
    _check_columns(c.window, c.mark_count, columns)
    rank = _ranks(c, columns)
    if c.weights is not None:
        r, w = rank.tolist(), c.weights
        spans = list(zip(r[::2], r[1::2]))  # per part, its points' ranks
        return [sum((x for i, j in spans[a:b] for x in w[i:j]), Fraction(0))
                for a, b in columns.parts]
    if columns.rows is not None:
        rank = _mark_table(c)[columns.rows, rank]
    return columns.totals(rank[1::2] - rank[::2])


def counts(sample: PointConfig,
           columns: Columns | Sequence[tuple[int | None, Window]]) -> np.ndarray:
    """N(A) of one realization for every column ``(j, A)``, as float64.

    j is None for the whole realization (its points, or the total weight of
    a weighted configuration), or a mark of a marked configuration, such as
    a component of a split.  Each value is exact until its one rounding to
    float.  A must be covered by the configuration's window: unobserved
    territory is an error, not 0.
    """
    if not isinstance(columns, Columns):
        columns = Columns(columns)
    return np.asarray(_exact_counts(sample, columns), dtype=np.float64)


def count(c: PointConfig, A: Window):
    """N(A): the one-column case of :func:`counts`, kept exact -- the point
    count (marks do not weigh), or the total weight, a Fraction, of a
    weighted configuration."""
    n = _exact_counts(c, _one_column(A))[0]
    return int(n) if c.weights is None else n


# ---------------------------------------------------------------------------
# batched replicates: the replicates of a Streams drawn and counted at once,
# each consuming its stream word for word as the serial sampler does

# Bound of one block of replicates, in raw words and count-table entries: a
# constant, so that peak memory does not grow with the number of replicates.
BLOCK_WORDS = 1 << 13


@dataclass(slots=True)
class _Batch:
    """The samples of the rows of streams on one layout, flat in point
    order: row by row, frame by frame, sorted in a frame.  Per point: its
    row, its frame and grid index, and its mark once marked.  ``used[i]`` is
    the next word of row i's stream.  A row in ``redo`` drew coincident
    points; its points are dropped, and it is left to the serial sampler."""

    streams: Streams
    layout: _Layout
    window: Window
    row: np.ndarray
    frame: np.ndarray
    ks: np.ndarray
    used: np.ndarray
    redo: np.ndarray
    marks: np.ndarray | None = None
    mark_count: int | None = None


def _rank_in_row(row: np.ndarray, n: int) -> np.ndarray:
    """Per point, its index among the points of its row; rows ascend."""
    per_row = np.bincount(row, minlength=n)
    return np.arange(row.size) - np.repeat(np.cumsum(per_row) - per_row, per_row)


def _sort_runs(ks: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """ks sorted within each run of equal seg, for seg ascending.  Grid
    indices leave 11 bits free, so 2**11 runs at a time sort as one uint64
    key, the run above the index."""
    out, step = np.empty_like(ks), KEY_ROWS
    runs = int(seg[-1]) + 1 if seg.size else 0
    for first in range(0, runs, step):
        lo, hi = seg.searchsorted([first, first + step])
        run = (seg[lo:hi] - first).astype(np.uint64)
        out[lo:hi] = np.sort((run << _U64(DYADIC_BITS)) | ks[lo:hi]) & _U64(_GRID - 1)
    return out


def _poisson_batch(intensity: IntensitySpec, window: Window,
                   streams: Streams, used: np.ndarray | None = None) -> _Batch:
    """:func:`sample_poisson` of every row of streams, row i from its word
    ``used[i]`` on (from word 0 when used is None): one count word per
    frame, then the position words, sorted per (row, frame)."""
    alpha = intensity.alpha
    layout = _layout(alpha.numerator, alpha.denominator, window)
    nf, n = len(layout.frames), len(streams)
    start = np.zeros(n, dtype=np.int64) if used is None else used
    us = _uniforms(streams.words(np.arange(n)[:, None],
                                 start[:, None] + np.arange(nf)))
    sizes = np.empty((n, nf), dtype=np.int64)
    for f, lam in enumerate(layout.means):
        sizes[:, f] = poisson_cdf_table(lam).searchsorted(us[:, f], side="left")
    row = np.repeat(np.arange(n), sizes.sum(axis=1))
    frame = np.repeat(np.tile(np.arange(nf), n), sizes.ravel())
    ks = _grid_index(streams.words(row, start[row] + nf + _rank_in_row(row, n)))
    seg = row * nf + frame
    ks = _sort_runs(ks, seg)
    redo = np.zeros(n, dtype=bool)
    redo[row[1:][(ks[1:] == ks[:-1]) & (seg[1:] == seg[:-1])]] = True
    if redo.any():
        keep = ~redo[row]
        row, frame, ks = row[keep], frame[keep], ks[keep]
    return _Batch(streams=streams, layout=layout, window=window,
                  row=row, frame=frame, ks=ks, used=start + nf + sizes.sum(axis=1),
                  redo=redo)


def _frames_of(b: _Batch):
    """(frame, selector of its points) for each frame of b's layout."""
    if len(b.layout.frames) == 1:
        return [(b.layout.frames[0], slice(None))]
    return [(frame, b.frame == f) for f, frame in enumerate(b.layout.frames)]


def _inside(b: _Batch, A: Window) -> np.ndarray:
    """Boolean per point of b: does it lie in A?  Inside a part of A, a
    point has an odd number of A's edge thresholds at or below its index."""
    keep = np.empty(b.ks.size, dtype=bool)
    for frame, at in _frames_of(b):
        cuts = frame.cuts(_one_column(A))
        keep[at] = cuts.searchsorted(b.ks[at], side="right") % 2 == 1
    return keep


def _batch_counts(b: _Batch, columns: Columns) -> np.ndarray:
    """:func:`counts` of every row of b, as int64 rows; rows in ``b.redo``
    are left to the caller.

    Per frame, the distinct edge thresholds cut the grid into bins; a table
    of points per (row, mark, bin), cumulated over bins, gives each edge's
    rank, as ``searchsorted`` and the mark table give it for one sample.
    """
    _check_columns(b.window, b.mark_count, columns)
    n, marked = b.used.size, columns.rows is not None
    m = b.mark_count if marked else 0  # slot m counts every mark
    rank = np.zeros((n, len(columns.edges)), dtype=np.int64)
    for frame, at in _frames_of(b):
        cuts, where = np.unique(frame.cuts(columns), return_inverse=True)
        slot = b.row[at] * (m + 1) + (b.marks[at] if marked else 0)
        key = slot * (cuts.size + 1) + cuts.searchsorted(b.ks[at], side="right")
        table = np.bincount(key, minlength=n * (m + 1) * (cuts.size + 1))
        table = table.reshape(n, m + 1, cuts.size + 1)
        if marked:
            table[:, m] = table[:, :m].sum(axis=1)
        # cumulated up to bin i, the table counts the points below cuts[i]
        rank += table.cumsum(axis=2)[:, columns.rows if marked else 0, where]
    return columns.totals(rank[:, 1::2] - rank[:, ::2])


# ---------------------------------------------------------------------------
# exact meeting checks: T^k x == y on grid indices, through T's pieces

# The stage at which piece tables stop.  A row with a point in the residual
# takes the per-point path, which resolves on to DEFAULT_MAX_STAGE as apply
# does, so the cap changes no outcome, only which rows go point by point.
# At stage 11 a chacon3 window's residual is about 1e-4 of its length; a
# twelfth stage would resolve no row the per-point path does not, and would
# grow chacon3 a stage deeper than the per-point checks of the chacon3-split
# benchmark spec reach.
_PIECE_STAGE = DEFAULT_MAX_STAGE - 1


def _move(f: _Frame, g: _Frame, shift: Fraction, lo: int, hi: int):
    """Where the points of frame f with indices in [lo, hi), moved by shift,
    land on frame g's grid: ``(first, stop, m, j0, r)``, the index i in
    ``range(first, stop, m)`` landing on index ``j0 + (i - first) // m * r``
    of g, in ``[0, 2**53)``; None when none lands there.

    ``f.lo + i * f.width / 2**53 + shift == g.lo + j * g.width / 2**53``
    is ``j = (U + i * P) / D`` for integers U, P > 0, D > 0: a linear
    congruence in i, solved with a gcd.  Frames of equal width give m = r = 1,
    the integer shift ``j - i``, if any.
    """
    a = (f.lo + shift - g.lo) * _GRID / g.width
    b = f.width / g.width
    U, D = a.numerator * b.denominator, a.denominator * b.denominator
    P = b.numerator * a.denominator
    e = math.gcd(P, D)
    if U % e:
        return None
    m, r = D // e, P // e
    i0 = -(U // e) * pow(r, -1, m) % m
    # 0 <= j < 2**53 holds exactly for -U / P <= i < (2**53 * D - U) / P
    lo = max(lo, -(U // P))
    hi = min(hi, -((U - _GRID * D) // P))
    first = lo + (i0 - lo) % m
    if first >= hi:
        return None
    last = first + (hi - 1 - first) // m * m
    if last == first:  # one index: m and r, which may be huge, are not read
        m = r = 1
    return first, last + 1, m, (U + first * P) // D, r


@lru_cache(maxsize=_CACHE_SIZE)
def _meet_table(T: TransformHandle, src: _Layout, dst: _Layout, K: int,
                zero: bool):
    """T^k, for 0 < |k| <= K and k = 0 when zero, from the frames of src to
    those of dst: ``(moves, residual)``.  moves lists ``(f, g, first, stop,
    m, j0, r)``: a point of src frame f with an index in ``range(first,
    stop, m)`` maps onto the point of dst frame g with index ``j0 + (i -
    first) // m * r``, for some k.  residual[f] holds the sorted bounds
    ``[a0, b0, a1, ...]`` of the index ranges of src frame f where some T^k
    does not resolve into pieces."""
    frames = dst.frames
    starts = [g.lo for g in frames]
    moves, residual = [], {}
    for fi, f in enumerate(src.frames):
        part = Interval(f.lo, f.lo + f.width)
        spans = []
        for k in range(-K, K + 1):
            if not (k or zero):
                continue
            pieces, rest = T.piecewise(part, k, _PIECE_STAGE)
            spans += [(f._threshold(I.lo), f._threshold(I.hi)) for I in rest.parts]
            for I, shift in pieces:
                lo, hi = f._threshold(I.lo), f._threshold(I.hi)
                if lo >= hi:
                    continue
                # only the frames that the image of I reaches
                first = max(bisect_right(starts, I.lo + shift) - 1, 0)
                last = bisect_left(starts, I.hi + shift)
                for gi in range(first, last):
                    mv = _move(f, frames[gi], shift, lo, hi)
                    if mv is not None:
                        moves.append((fi, gi, *mv))
        bounds: list[int] = []
        for lo, hi in sorted(sp for sp in spans if sp[0] < sp[1]):
            if bounds and lo <= bounds[-1]:
                bounds[-1] = max(bounds[-1], hi)
            else:
                bounds += [lo, hi]
        if bounds:
            residual[fi] = np.array(bounds, dtype=np.uint64)
    return moves, residual


def _lattice_meets(T: TransformHandle, layouts: tuple[_Layout, _Layout], K: int,
                   zero: bool, n: int, src: tuple,
                   dst: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Per row r < n, at most KEY_ROWS rows: does ``T^k x == y`` for x a
    point of src and y one of dst, both of row r, and k as in
    :func:`_meet_table`?  src and dst are ``(row, frame, ks)`` arrays of
    lattice points of the two layouts, each in point order (row by row,
    frame by frame, sorted in a frame).  Returns ``(meets, unresolved)``: a
    row with a point of src in the residual of some T^k is unresolved, and
    its meets entry is left for the caller to decide."""
    moves, residual = _meet_table(T, *layouts, K, zero)
    meets, unresolved = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    srow, sks, scut = _by_frame(src, len(layouts[0].frames))
    drow, dks, dcut = _by_frame(dst, len(layouts[1].frames))
    for f, bounds in residual.items():
        ks = sks[scut[f]:scut[f + 1]]
        inside = bounds.searchsorted(ks, side="right") % 2 == 1
        unresolved[srow[scut[f]:scut[f + 1]][inside]] = True
    dkeys = (drow.astype(np.uint64) << _U64(DYADIC_BITS)) | dks
    for f, g, first, stop, m, j0, r in moves:
        keys = dkeys[dcut[g]:dcut[g + 1]]  # ascending: rows, then indices
        ks = sks[scut[f]:scut[f + 1]]
        if not (keys.size and ks.size):
            continue
        at = np.flatnonzero((ks >= first) & (ks < stop))
        i = ks[at] - _U64(first)
        if m > 1:
            hit = i % _U64(m) == 0
            at, i = at[hit], i[hit] // _U64(m)
        q = (srow[scut[f]:scut[f + 1]][at].astype(np.uint64) << _U64(DYADIC_BITS)) \
            | (i * _U64(r) + _U64(j0))
        pos = np.minimum(keys.searchsorted(q), keys.size - 1)
        meets[(q >> _U64(DYADIC_BITS))[keys[pos] == q].astype(np.intp)] = True
    return meets, unresolved


def _by_frame(side: tuple, frames: int) -> tuple:
    """(row, ks, cut): side's points grouped by frame, frame f's at
    ``cut[f]:cut[f + 1]``, each group still in row order."""
    row, frame, ks = side
    if frames > 1:
        order = np.argsort(frame, kind="stable")
        row, frame, ks = row[order], frame[order], ks[order]
    return row, ks, np.searchsorted(frame, np.arange(frames + 1))


def _batch_meets(b: _Batch, T: TransformHandle, K: int,
                 pair: tuple[int, int] | None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_lattice_meets` of every row of b: the points of mark pair[0]
    against those of mark pair[1] for k in -K..K, or, when pair is None,
    all points against all for 0 < |k| <= K.  Rows in ``b.redo`` are left
    to the caller."""
    if pair is None:
        src = dst = (b.row, b.frame, b.ks)
    else:
        src, dst = ((b.row[at], b.frame[at], b.ks[at])
                    for at in (b.marks == pair[0], b.marks == pair[1]))
    return _lattice_meets(T, (b.layout, b.layout), K, pair is not None,
                          b.used.size, src, dst)


def _one_row(c: PointConfig) -> tuple:
    """A lattice configuration's points as the one row of a batch."""
    frame = np.repeat(np.arange(len(c._ks)), [k.size for k in c._ks])
    ks = np.concatenate(c._ks) if c._ks else np.empty(0, dtype=np.uint64)
    return np.zeros(frame.size, dtype=np.intp), frame, ks


def _config_meets(c1: PointConfig, c2: PointConfig, T: TransformHandle, K: int,
                  zero: bool) -> bool | None:
    """Whether T^k maps a point of c1 onto one of c2, decided on grid
    indices, for lattice configurations of one layout; None when they are
    not, or when a point of c1 lies in a residual."""
    if c1._layout is None or c1._layout is not c2._layout:
        return None
    src = _one_row(c1)
    meets, unresolved = _lattice_meets(T, (c1._layout, c1._layout), K, zero, 1,
                                       src, src if c2 is c1 else _one_row(c2))
    return None if unresolved[0] else bool(meets[0])


def free_check(c: PointConfig, T: TransformHandle, K: int) -> bool:
    """True iff no support point maps onto another under T^k, 0 < |k| <= K."""
    meets = _config_meets(c, c, T, K, False)
    if meets is None:
        meets = _meets(c.points, set(c.points), [k for k in range(-K, K + 1) if k], T)
    return not meets


def dissociation_check(c1: PointConfig, c2: PointConfig, T: TransformHandle,
                       K: int) -> bool:
    """True iff supports never meet under T^k for any |k| <= K (k=0 included)."""
    meets = _config_meets(c1, c2, T, K, True)
    if meets is None:
        meets = _meets(c1.points, set(c2.points), range(-K, K + 1), T)
    return not meets


def _meets(xs, support: set, ks, T: TransformHandle) -> bool:
    """Does T^k x lie in support for some k of ks, x of xs?  k by k, point
    by point: the oracle of the lattice checks, and their path for
    hand-built points and for points in a residual."""
    return any(T.apply(x, k) in support for k in ks for x in xs)


def dump_csv(c: PointConfig, fh: IO[str], *, seed: int | None = None,
             stream_id: int | None = None,
             intensity: IntensitySpec | None = None) -> None:
    """Write a configuration as CSV: exact point strings, then decimal
    weights, or the marks of a marked configuration."""
    meta = [f"window={c.window}"]
    if seed is not None:
        meta.insert(0, f"seed={seed}")
    if stream_id is not None:
        meta.insert(1 if seed is not None else 0, f"stream_id={stream_id}")
    if intensity is not None:
        meta.append(f"intensity={format_rat(intensity.alpha)}")
    fh.write("# " + " ".join(meta) + "\n")
    fh.write("point,weight\n" if c.marks is None else "point,mark\n")
    values = [1] * len(c) if c.weights is None else map(float, c.weights)
    rows = zip(c.points, values if c.marks is None else c.marks.tolist())
    fh.writelines(f"{format_rat(p)},{v}\n" for p, v in rows)
