"""Splittings, separation thinning, and marks.

Marks are one small integer per point of a
:class:`~sushilab.point_process.PointConfig`.  Splitting is marking: a
Bernoulli split draws one mark per point and its components are the
projections on single marks, so they superpose to the input exactly
(Kingman's colouring theorem, *Poisson Processes*, 1993, ch. 5), and a
split is counted per mark of that one marked sample.  Marking and
projection keep a sampled configuration's grid indices on its lattice.

Separation thinning follows a buffered-window protocol: the input must be
observed on a window extending at least kappa beyond the evaluation core on
every side, otherwise edge points have unobservable neighbors and the thin
is not well defined.  On a lattice, two points of one frame lie at most
kappa apart exactly when their index gap is at most
``floor(kappa * 2**53 / width)``.

:class:`LatticeSampler` is a Poisson sample, marked or thinned, that also
counts whole blocks of replicates at once with the same draws, and runs
the exact ``free`` and ``dissociation`` checks on them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dynamics import TransformHandle
from .point_process import (
    _CACHE_SIZE,
    BLOCK_WORDS,
    KEY_ROWS,
    Columns,
    PointConfig,
    Rng,
    Streams,
    _Batch,
    _batch_counts,
    _batch_meets,
    _gaps_above,
    _inside,
    _layout,
    _poisson_batch,
    _rank_in_row,
    _uniforms,
    _window_mask,
    counts,
    dissociation_check,
    free_check,
    sample_poisson,
)
from .windows import IntensitySpec, RatLike, Window, as_rat

__all__ = [
    "MarkLaw",
    "attach_marks",
    "project_mark_set",
    "bernoulli_split",
    "separation_thin",
    "LatticeSampler",
]


class MarkLaw:
    """A mark law, checked once: its mark count and the thresholds that
    each point's uniform u is compared with.

    Mark i is the first whose cumulative probability q_i exceeds u, the
    last when none does.  Threshold i is the least float at or above the
    exact q_i, so for a float u, ``u < q_i`` exactly when u is below it.
    Probabilities are exact rationals, or floats taken at their exact
    values, and must sum to 1 within 1e-12.
    """

    __slots__ = ("count", "thresholds")

    def __init__(self, probs: Sequence[RatLike]) -> None:
        exact = [as_rat(p) for p in probs]
        if not exact or any(p < 0 for p in exact):
            raise ValueError("probabilities must be nonnegative and nonempty")
        cum = list(accumulate(exact))
        if abs(cum[-1] - 1) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        self.count = len(exact)
        self.thresholds = np.array([_ceil_float(q) for q in cum[:-1]], dtype=float)
        self.thresholds.flags.writeable = False


def _ceil_float(q: Fraction) -> float:
    """The least float at or above q."""
    t = float(q)
    return t if Fraction(t) >= q else float(np.nextafter(t, np.inf))


def _draw_marks(law: MarkLaw, us: np.ndarray) -> np.ndarray:
    """The marks of the uniforms us, one per point, in point order."""
    return np.searchsorted(law.thresholds, us, side="right")


def attach_marks(c: PointConfig, mark_probs: MarkLaw | Sequence[RatLike],
                 rng: Rng) -> PointConfig:
    """The points of c with i.i.d. marks of law mark_probs, marks
    0..len(mark_probs)-1; one uniform per point, in point order."""
    law = mark_probs if isinstance(mark_probs, MarkLaw) else MarkLaw(mark_probs)
    return c._marked(_draw_marks(law, rng.random_block(len(c))), law.count)


def project_mark_set(mc: PointConfig, B: Iterable[int]) -> PointConfig:
    """Sub-process of points whose mark lies in B, unmarked."""
    if mc.marks is None:
        raise ValueError("projection needs a marked configuration")
    keep = np.zeros(mc.mark_count, dtype=bool)  # per mark: does B hold it?
    for m in B:
        if not 0 <= m < mc.mark_count:
            raise ValueError(f"mark {m} outside alphabet")
        keep[m] = True
    return mc._subset(keep[mc.marks], mc.window)


def bernoulli_split(c: PointConfig, probs: Sequence[RatLike], rng: Rng) -> list[PointConfig]:
    """Independent assignment of each point to one of len(probs) components.

    The draws are those of :func:`attach_marks`, and component i is the
    projection on mark i; a lattice configuration splits into lattice
    configurations without building its points.
    """
    mc = attach_marks(c, probs, rng)
    return [project_mark_set(mc, {i}) for i in range(mc.mark_count)]


def separation_thin(c: PointConfig, kappa: RatLike) -> PointConfig:
    """Keep core points whose nearest neighbor is farther than kappa.

    The evaluation core is the observed window shrunk by kappa; a tie at
    exactly kappa blocks (keeping requires strictly larger separation).
    Raises when shrinking empties the window: then every point's
    neighborhood reaches unobserved territory.  A lattice configuration is
    thinned on its grid indices and stays on its lattice.
    """
    kappa = as_rat(kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    core = _core(c.window, kappa.numerator, kappa.denominator)
    if core.is_empty and not c.window.is_empty:
        raise ValueError(
            f"window {c.window} leaves no core after buffering by {kappa}"
        )
    keep = _window_mask(c, core)
    apart = _gaps_above(c, kappa)
    keep[1:] &= apart
    keep[:-1] &= apart
    return c._subset(keep, core)


@lru_cache(maxsize=_CACHE_SIZE)
def _core(window: Window, kappa_num: int, kappa_den: int) -> Window:
    """window shrunk by kappa, shared by every replicate thinned alike."""
    return window.shrink(Fraction(kappa_num, kappa_den))


def _mark_batch(b: _Batch, law: MarkLaw) -> _Batch:
    """:func:`attach_marks` of every row of b: one word per point, after the
    row's words so far."""
    n = b.used.size
    words = b.streams.words(b.row, b.used[b.row] + _rank_in_row(b.row, n))
    b.marks, b.mark_count = _draw_marks(law, _uniforms(words)), law.count
    b.used = b.used + np.bincount(b.row, minlength=n)
    return b


def _thin_batch(b: _Batch, kappa: Fraction) -> _Batch:
    """:func:`separation_thin` of every row of b: index gaps in a frame,
    exact Fractions across frames, no neighbour across rows."""
    core = _core(b.window, kappa.numerator, kappa.denominator)
    keep = _inside(b, core)
    frames = b.layout.frames
    bounds = np.array([f.gap_bound(kappa) for f in frames], dtype=np.uint64)
    same_row = b.row[1:] == b.row[:-1]
    same_frame = same_row & (b.frame[1:] == b.frame[:-1])
    apart = ~same_row | ((b.ks[1:] - b.ks[:-1]) > bounds[b.frame[1:]])
    for i in np.flatnonzero(same_row & ~same_frame).tolist():
        lo, hi = frames[b.frame[i]], frames[b.frame[i + 1]]
        gap = hi.points(b.ks[i + 1:i + 2])[0] - lo.points(b.ks[i:i + 1])[0]
        apart[i] = gap > kappa
    keep[1:] &= apart
    keep[:-1] &= apart
    b.row, b.frame, b.ks, b.window = b.row[keep], b.frame[keep], b.ks[keep], core
    return b


class LatticeSampler:
    """Poisson points on a window, then marked with a :class:`MarkLaw` or
    separation-thinned by kappa (or neither).

    Called with an Rng, it draws one sample.  :meth:`count_blocks` counts
    R replicates block by block, replicate r drawing the words of
    ``rng.child(r)`` from :class:`~sushilab.point_process.Streams` in the
    order a call with ``rng.child(r)`` draws them: its frame counts, then
    its positions, then its marks.  A replicate whose positions coincide is
    drawn by a call, which resamples as
    :func:`~sushilab.point_process.sample_poisson` does.
    """

    def __init__(self, intensity: IntensitySpec, window: Window,
                 marks: MarkLaw | None = None, kappa: Fraction | None = None) -> None:
        if marks is not None and kappa is not None:
            raise ValueError("a lattice sampler marks or thins, not both")
        self.intensity, self.window = intensity, window
        self.marks, self.kappa = marks, kappa
        alpha = intensity.alpha
        frames = len(_layout(alpha.numerator, alpha.denominator, window).frames)
        # a replicate's expected words, and its count-table entries per
        # column edge: an entry takes about an eighth of the temporaries of
        # a word
        self._words = frames + (1 + (marks is not None)) * float(alpha * window.length)
        self._slots = frames * (1 + (marks.count if marks else 0)) / 8

    def __call__(self, rng: Rng) -> PointConfig:
        c = sample_poisson(self.intensity, self.window, rng)
        if self.marks is not None:
            return attach_marks(c, self.marks, rng)
        if self.kappa is not None:
            return separation_thin(c, self.kappa)
        return c

    def cost(self, columns: Columns) -> float:
        """A replicate's share of a block counted on columns, in words."""
        return self._words + self._slots * len(columns.edges)

    def batch(self, streams: Streams, used: np.ndarray | None = None) -> _Batch:
        """The samples of every row of streams, as calls draw them, row i
        from its word ``used[i]`` on (from word 0 when used is None)."""
        b = _poisson_batch(self.intensity, self.window, streams, used)
        if self.marks is not None:
            b = _mark_batch(b, self.marks)
        if self.kappa is not None:
            b = _thin_batch(b, self.kappa)
        return b

    def meet_blocks(self, rng: Rng, R: int, T: TransformHandle, K: int,
                    pair: tuple[int, int] | None = None) -> Iterator[np.ndarray]:
        """Per replicate r < R, whether the sample of ``rng.child(r)`` fails
        ``free_check(sample, T, K)``, or, given a pair (i, j) of marks,
        ``dissociation_check`` of its projections on marks i and j; as bool
        rows, in blocks of at most KEY_ROWS replicates.

        A block's rows are decided on grid indices through T's pieces.  A
        row that the batch leaves to the serial sampler, or with a point
        where some T^k does not resolve into pieces, gets the check itself
        on a call's sample, in row order, so it raises what that check
        raises.
        """
        if pair is None:
            def meets(c):
                return not free_check(c, T, K)
        else:
            def meets(c):
                return not dissociation_check(project_mark_set(c, {pair[0]}),
                                              project_mark_set(c, {pair[1]}), T, K)
        step = max(1, min(KEY_ROWS, int(BLOCK_WORDS // self._words)))
        for lo in range(0, R, step):
            b = self.batch(Streams(rng, min(lo + step, R), lo))
            block, unresolved = _batch_meets(b, T, K, pair)
            for i in np.flatnonzero(unresolved | b.redo).tolist():
                block[i] = meets(self(rng.child(lo + i)))
            yield block

    def count_blocks(self, rng: Rng, R: int,
                     columns: Columns) -> Iterator[np.ndarray]:
        """``counts(sample, columns)`` of the sample of each replicate
        ``rng.child(r)``, r < R, as int64 rows, in blocks of about
        BLOCK_WORDS words."""
        step = max(1, int(BLOCK_WORDS // self.cost(columns)))
        for lo in range(0, R, step):
            b = self.batch(Streams(rng, min(lo + step, R), lo))
            block = _batch_counts(b, columns)
            for i in np.flatnonzero(b.redo).tolist():
                block[i] = counts(self(rng.child(lo + i)), columns)
            yield block
