"""Splittings, separation thinning, and marked configurations.

Splitting is implemented *through* marking: a Bernoulli split draws one mark
per point and projects, so the split components superpose to the input
exactly, realization by realization, and marking followed by projection over
a partition of the mark alphabet is literally the same object.  A split
of a sampled configuration selects its grid indices with one boolean mask
per component, so the components stay on the lattice.

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
    MarkedConfig,
    PointConfig,
    Rng,
    _gaps_above,
    _window_mask,
)
from .windows import RatLike, Window, as_rat

__all__ = [
    "MarkedConfig",
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
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    us = rng.random_block(n)
    return np.minimum(np.searchsorted(np.cumsum(probs), us, side="right"),
                      len(probs) - 1)


def attach_marks(c: PointConfig, mark_probs: Sequence[float], rng: Rng) -> MarkedConfig:
    """I.i.d. marks with law mark_probs; one uniform per point, in point order."""
    probs = _validate_probs(mark_probs)
    marks = _draw_marks(probs, len(c), rng)
    atoms = tuple((p, int(m)) for p, m in zip(c.points, marks))
    return MarkedConfig(atoms, c.window, len(probs))


def project_mark_set(mc: MarkedConfig, B: Iterable[int]) -> PointConfig:
    """Sub-process of points whose mark lies in B."""
    keep = set(B)
    for m in keep:
        if not 0 <= m < mc.mark_count:
            raise ValueError(f"mark {m} outside alphabet")
    return PointConfig(tuple(p for p, m in mc.atoms if m in keep), mc.window)


def bernoulli_split(c: PointConfig, probs: Sequence[float], rng: Rng) -> list[PointConfig]:
    """Independent assignment of each point to one of len(probs) components.

    The draws are those of :func:`attach_marks`, and component i is the
    projection on mark i; a lattice configuration splits into lattice
    configurations without building its points.
    """
    p = _validate_probs(probs)
    marks = _draw_marks(p, len(c), rng)
    return [c._subset(marks == i, c.window) for i in range(len(p))]


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
