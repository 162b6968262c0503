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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .point_process import (
    _CACHE_SIZE,
    PointConfig,
    Rng,
    _gaps_above,
    _window_mask,
)
from .windows import RatLike, Window, as_rat

__all__ = [
    "attach_marks",
    "project_mark_set",
    "bernoulli_split",
    "separation_thin",
]


def _validate_probs(probs: Sequence[float]) -> np.ndarray:
    arr = np.asarray([float(p) for p in probs], dtype=float)
    if arr.size == 0 or (arr < 0).any():
        raise ValueError("probabilities must be nonnegative and nonempty")
    if abs(arr.sum() - 1.0) > 1e-12:
        raise ValueError("probabilities must sum to 1")
    return arr


def _draw_marks(probs: np.ndarray, n: int, rng: Rng) -> np.ndarray:
    """n i.i.d. marks with law probs: one uniform per point, in point order."""
    us = rng.random_block(n)
    return np.minimum(np.searchsorted(np.cumsum(probs), us, side="right"),
                      len(probs) - 1)


def attach_marks(c: PointConfig, mark_probs: Sequence[float], rng: Rng) -> PointConfig:
    """The points of c with i.i.d. marks of law mark_probs, marks
    0..len(mark_probs)-1; one uniform per point, in point order."""
    probs = _validate_probs(mark_probs)
    return c._marked(_draw_marks(probs, len(c), rng), len(probs))


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


def bernoulli_split(c: PointConfig, probs: Sequence[float], rng: Rng) -> list[PointConfig]:
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
