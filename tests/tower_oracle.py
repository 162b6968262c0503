"""Reference rank-one machine that materializes and sorts every level.

This is the engine ``sushilab.dynamics.RankOneMachine`` used before it
switched to per-stage tables.  Tests compare the two on fresh machines;
it is far too slow and memory-hungry for deep stages, so keep it to
chacon3 at ``max_stage <= 9`` and infinite-chacon at ``max_stage <= 6``.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from fractions import Fraction

from sushilab.dynamics import DEFAULT_MAX_STAGE, OrbitError, RankOneRecipe
from sushilab.windows import Interval, RatLike, Window, as_rat


class TowerOracle:
    """Materialized-tower rank-one machine, kept as a reference for tests.

    The machine starts from a single base interval (default ``[0, 1)``) and
    keeps, per built stage, the ordered list of levels of the current column.
    All levels share one width; the space is exactly ``[base.lo, frontier)``
    tiled by the levels, where fresh spacers are allocated consecutively from
    the frontier.

    Thread-safe: concurrent ``apply`` calls may trigger growth; stage
    extension is serialized internally and results are independent of the
    interleaving (growth is a deterministic function of the stage).
    """

    def __init__(
        self,
        recipe: RankOneRecipe,
        base: Interval | None = None,
        label: str | None = None,
    ) -> None:
        self._recipe = recipe
        self._base = base if base is not None else Interval(Fraction(0), Fraction(1))
        self._label = label
        self._lock = threading.Lock()
        # state tuple: (stage, width, los, sorted_los, order, frontier) where
        # los[j] is the left endpoint of level j (all levels share the width)
        self._state = (
            0,
            self._base.length,
            (self._base.lo,),
            [self._base.lo],
            [0],
            self._base.hi,
        )

    # -- introspection ----------------------------------------------------

    @property
    def stage(self) -> int:
        return self._state[0]

    @property
    def space(self) -> Window:
        """Currently materialized part of the space, ``[base.lo, frontier)``."""
        _, _, _, _, _, frontier = self._state
        return Window([Interval(self._base.lo, frontier)])

    @property
    def tower(self) -> tuple[Interval, int, tuple[Interval, ...]]:
        """(base level, height, level intervals bottom to top) at the
        deepest built stage."""
        _, width, los, _, _, _ = self._state
        levels = tuple(Interval(lo, lo + width) for lo in los)
        return levels[0], len(levels), levels

    @property
    def pieces(self) -> list[tuple[Interval, Fraction]]:
        """Piecewise map at the deepest built stage: (source level, offset)."""
        _, width, los, _, _, _ = self._state
        return [
            (Interval(los[j], los[j] + width), los[j + 1] - los[j])
            for j in range(len(los) - 1)
        ]

    def __str__(self) -> str:
        return self._label or f"RankOneMachine(stage={self.stage})"

    # -- growth -----------------------------------------------------------

    def grow_to(self, stage: int) -> None:
        """Build stages up to ``stage`` (no-op if already there)."""
        while self._state[0] < stage:
            self._grow_one(self._state[0])

    def _grow_one(self, from_stage: int) -> None:
        with self._lock:
            stage, width, los, _, _, frontier = self._state
            if stage != from_stage:
                return  # another thread already grew this stage
            cuts, spacers = self._recipe(stage, len(los))
            cuts = int(cuts)
            spacers = tuple(int(s) for s in spacers)
            if cuts < 2 or len(spacers) != cuts or any(s < 0 for s in spacers):
                raise ValueError(f"invalid recipe output at stage {stage}")
            w = width / cuts
            new_los: list[Fraction] = []
            for c in range(cuts):
                off = c * w
                new_los.extend(lo + off for lo in los)
                for _ in range(spacers[c]):
                    new_los.append(frontier)
                    frontier += w
            order = sorted(range(len(new_los)), key=new_los.__getitem__)
            sorted_los = [new_los[i] for i in order]
            self._state = (stage + 1, w, tuple(new_los), sorted_los, order, frontier)

    # -- the map ----------------------------------------------------------

    def apply(self, x: RatLike, k: int = 1, max_stage: int = DEFAULT_MAX_STAGE) -> Fraction:
        """Exact ``T^k x``; grows the tower until the orbit segment is defined."""
        x = as_rat(x)
        if x < self._base.lo:
            raise ValueError(f"point {x} is outside the machine space")
        if k == 0:
            return x
        while True:
            stage, width, los, sorted_los, order, frontier = self._state
            if x < frontier:
                pos = bisect_right(sorted_los, x) - 1
                lvl = order[pos]
                target = lvl + k
                if 0 <= target < len(los):
                    return x + (los[target] - los[lvl])
            if stage >= max_stage:
                raise OrbitError(x, k, max_stage)
            self._grow_one(stage)

    def image_window(self, w: Window, k: int, max_stage: int = DEFAULT_MAX_STAGE) -> Window:
        """Exact image ``T^k w``; length is preserved.

        Every sliver of ``w`` must reach a defined level within ``max_stage``
        stages, otherwise :class:`OrbitError` names the unresolved point.
        """
        if w.is_empty:
            return w
        if w.parts[0].lo < self._base.lo:
            raise ValueError(f"window {w} is outside the machine space")
        if k == 0:
            return w
        while True:
            stage, width, los, sorted_los, order, frontier = self._state
            pieces: list[Interval] = []
            stuck: Fraction | None = None
            if w.hi > frontier:
                stuck = frontier
            else:
                h = len(los)
                for part in w.parts:
                    pos = bisect_right(sorted_los, part.lo) - 1
                    while stuck is None:
                        lvl = order[pos]
                        a = max(part.lo, los[lvl])
                        b = min(part.hi, los[lvl] + width)
                        target = lvl + k
                        if 0 <= target < h:
                            off = los[target] - los[lvl]
                            pieces.append(Interval(a + off, b + off))
                        else:
                            stuck = a
                        if b >= part.hi:
                            break
                        pos += 1
                    if stuck is not None:
                        break
            if stuck is None:
                return Window(pieces)
            if stage >= max_stage:
                raise OrbitError(stuck, k, max_stage)
            self._grow_one(stage)
