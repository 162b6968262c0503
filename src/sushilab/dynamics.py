"""Invertible measure-preserving transformations, applied exactly.

Two kinds of transformation are provided:

* :class:`Translation`: ``x -> x + step`` on the whole line.
* :class:`RankOneMachine`: a cutting-and-stacking construction.  The column
  at stage ``s`` is a stack of same-width rational intervals (the *levels*);
  the map sends each level onto the one above it by translation.  Growing a
  stage cuts the column into ``cuts`` equal subcolumns, adds fresh spacer
  intervals on top of each subcolumn, and stacks the subcolumns left to
  right.  The map defined at stage ``s + 1`` extends the one at stage ``s``
  wherever both are defined, so each query is answered at the first stage
  where it is defined.  The machine keeps only a small table per stage
  (height, width, frontier, where each subcolumn starts, spacer counts)
  and never lists the levels; tables are grown lazily from the recipe.

All arithmetic is exact; points are rationals and images of windows are
windows.  When the partial map is undefined at a point up to ``max_stage``
stages, :class:`OrbitError` is raised; there is no silent approximation.

``T.piecewise(part, k)`` is the piece layer under both: ``T^k`` on an
interval as a list of translations ``(I, shift)``, plus the residual where
``T^k`` does not resolve within ``max_stage`` stages, so it never raises.
A translation is one piece.  A rank-one machine's pieces are the slivers
that :meth:`RankOneMachine.image_window` walks, a run of spacer levels that
``T^k`` carries onto spacer levels making one sliver, and adjacent slivers
with equal shifts merged.  Lattice checks read ``T^k`` from these pieces on
grid indices instead of applying it point by point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence, Union

from .windows import Interval, RatLike, Window, as_rat

__all__ = [
    "OrbitError",
    "Translation",
    "RankOneMachine",
    "RankOneRecipe",
    "TransformHandle",
    "recipe_from_arrays",
    "chacon3_recipe",
    "infinite_chacon_recipe",
    "cesaro_overlap",
    "orbit",
    "DEFAULT_MAX_STAGE",
]

# Stages a query may descend before OrbitError.  A stage costs one small
# table and a few integer operations per query, so the cap bounds how far a
# point on a null set (a level edge that never becomes interior) is chased,
# not memory; raise it per call for deeper orbits.
DEFAULT_MAX_STAGE = 12

#: ``recipe(stage, height) -> (cut_count, spacer_counts)`` for the stage
#: about to be built; ``height`` is the column height entering that stage.
RankOneRecipe = Callable[[int, int], tuple[int, Sequence[int]]]


class OrbitError(RuntimeError):
    """The partial map is undefined along the requested orbit segment.

    Raised exactly when the first stage at which the point (or the first
    unresolved point of a window, in scan order) is defined, or born,
    exceeds ``max_stage``.
    """

    def __init__(self, point: Fraction, requested_power: int, max_stage: int):
        self.point = point
        self.requested_power = requested_power
        self.max_stage = max_stage
        super().__init__(
            f"T^{requested_power} undefined at {point} after {max_stage} stages"
        )


@dataclass(frozen=True)
class Translation:
    """The translation ``x -> x + step``, total on the line."""

    step: Fraction

    def __init__(self, step: RatLike = 1) -> None:
        object.__setattr__(self, "step", as_rat(step))

    def apply(self, x: RatLike, k: int = 1, max_stage: int = DEFAULT_MAX_STAGE) -> Fraction:
        return as_rat(x) + k * self.step

    def image_window(self, w: Window, k: int, max_stage: int = DEFAULT_MAX_STAGE) -> Window:
        return w.translate(k * self.step)

    def piecewise(self, part: Interval, k: int, max_stage: int = DEFAULT_MAX_STAGE
                  ) -> tuple[list[tuple[Interval, Fraction]], Window]:
        """T^k on part: the one piece ``(part, k * step)``, no residual."""
        return [(part, k * self.step)], Window()

    def __str__(self) -> str:
        return f"Translation({self.step})"


def recipe_from_arrays(
    cuts: Sequence[int], spacers: Sequence[Sequence[int]]
) -> RankOneRecipe:
    """Stage-indexed recipe from explicit ``cuts`` / ``spacers`` arrays.

    Stages beyond the supplied arrays repeat the final entry, so a
    single-entry recipe is a stationary construction.
    """
    if len(cuts) != len(spacers) or not cuts:
        raise ValueError("cuts and spacers must be nonempty arrays of equal length")
    cuts_t = tuple(int(c) for c in cuts)
    spac_t = tuple(tuple(int(s) for s in row) for row in spacers)
    for c, row in zip(cuts_t, spac_t):
        if c < 2:
            raise ValueError("cut count must be at least 2")
        if len(row) != c:
            raise ValueError("spacer row length must equal the cut count")
        if any(s < 0 for s in row):
            raise ValueError("spacer counts must be nonnegative")

    def recipe(stage: int, height: int) -> tuple[int, Sequence[int]]:
        i = min(stage, len(cuts_t) - 1)
        return cuts_t[i], spac_t[i]

    return recipe


def chacon3_recipe() -> RankOneRecipe:
    """Classical Chacon recipe: 3 cuts, one spacer on the middle subcolumn."""
    return recipe_from_arrays([3], [[0, 1, 0]])


def infinite_chacon_recipe() -> RankOneRecipe:
    """Infinite-measure Chacon schedule: 3 cuts, one spacer on the middle
    subcolumn and ``3 * height`` spacers on the last."""

    def recipe(stage: int, height: int) -> tuple[int, Sequence[int]]:
        return 3, (0, 1, 3 * height)

    return recipe


@dataclass(frozen=True, slots=True)
class _Stage:
    """Table of one stage of a rank-one column.

    Positions are integers in units of this stage's level width, counted
    from 0, the left end of the base interval.  Stage ``s`` stacks ``cuts``
    copies of the stage ``s - 1`` column, each cut to the new width and
    followed by its fresh spacer levels, which are allocated left to right
    from the old frontier.
    """

    height: int  # levels in the column
    scale: int  # base width / level width
    frontier: int  # right end of the space built so far
    cuts: int = 1
    below: int = 0  # height of the previous column
    starts: tuple[int, ...] = (0,)  # level index of the bottom of each copy
    prefix: tuple[int, ...] = (0, 0)  # spacers stacked on the copies before j
    spacer_lo: int = 0  # left end of this stage's first spacer


class RankOneMachine:
    """Lazily grown cutting-and-stacking transformation.

    The machine starts from the base interval ``[0, 1)`` and keeps one
    small table per built stage (:class:`_Stage`): the column height, the
    level width, the frontier of the space, where each copy of the previous
    column starts and how many spacers sit on each copy.  No level is ever
    stored.  A query is resolved at the first stage where it
    is defined: :meth:`apply` finds the stage at which ``x`` is born (the
    base, or the spacers of some stage), follows ``x`` down the stages until
    ``T^k`` is defined on its level, and rebuilds the target level's left
    end from the tables.  Offsets within a level are carried as an integer
    numerator over a fixed denominator, so each stage costs a few integer
    operations.

    ``stage`` is the deepest stage built so far; the space is exactly
    ``[0, frontier)`` at that stage, tiled by its levels.
    """

    def __init__(
        self,
        recipe: RankOneRecipe,
        label: str | None = None,
    ) -> None:
        self._recipe = recipe
        self._label = label
        # stage -> table; setdefault keeps the first table published for a
        # stage, and keys stay contiguous because a stage is built from the
        # one below it
        self._tables: dict[int, _Stage] = {0: _Stage(height=1, scale=1, frontier=1)}

    # -- introspection ----------------------------------------------------

    @property
    def stage(self) -> int:
        return len(self._tables) - 1

    @property
    def space(self) -> Window:
        """Currently built part of the space, ``[0, frontier)``."""
        return self.space_at(self.stage)

    def space_at(self, stage: int) -> Window:
        """The space ``[0, frontier)`` that ``stage`` builds.  A stage beyond
        the deepest built one is built on a throwaway machine, so asking
        leaves :attr:`stage` at the depth that queries needed."""
        t = self._tables[stage] if stage <= self.stage else \
            RankOneMachine(self._recipe)._table(stage)
        return Window([Interval(Fraction(0), Fraction(t.frontier, t.scale))])

    @property
    def tower(self) -> tuple[Interval, int, tuple[Interval, ...]]:
        """(base level, height, level intervals bottom to top) at the
        deepest built stage, rebuilt from the stage tables."""
        s = self.stage
        scale = self._tables[s].scale
        levels = tuple(
            Interval(Fraction(u, scale), Fraction(u + 1, scale))
            for u in self._level_units(s)
        )
        return levels[0], len(levels), levels

    @property
    def pieces(self) -> list[tuple[Interval, Fraction]]:
        """Piecewise map at the deepest built stage: (source level, offset)."""
        _, _, levels = self.tower
        return [(lv, up.lo - lv.lo) for lv, up in zip(levels, levels[1:])]

    def __str__(self) -> str:
        return self._label or f"RankOneMachine(stage={self.stage})"

    def _level_units(self, stage: int) -> list[int]:
        """Left ends of the stage's levels, bottom to top, in level widths."""
        units = [0]
        for s in range(1, stage + 1):
            t = self._tables[s]
            column: list[int] = []
            for j in range(t.cuts):
                column.extend(u * t.cuts + j for u in units)
                column.extend(range(t.spacer_lo + t.prefix[j],
                                    t.spacer_lo + t.prefix[j + 1]))
            units = column
        return units

    # -- growth -----------------------------------------------------------

    def grow_to(self, stage: int) -> None:
        """Build the stage tables up to ``stage`` (no-op if already there)."""
        self._table(stage)

    def _table(self, stage: int) -> _Stage:
        """The table of ``stage``, building the stages below it first."""
        tables = self._tables
        while len(tables) <= stage:
            s = len(tables)
            prev = tables[s - 1]
            cuts, spacers = self._recipe(s - 1, prev.height)
            cuts = int(cuts)
            spacers = tuple(int(n) for n in spacers)
            if cuts < 2 or len(spacers) != cuts or any(n < 0 for n in spacers):
                raise ValueError(f"invalid recipe output at stage {s - 1}")
            prefix = tuple(accumulate(spacers, initial=0))
            tables.setdefault(s, _Stage(
                height=cuts * prev.height + prefix[-1],
                scale=prev.scale * cuts,
                frontier=prev.frontier * cuts + prefix[-1],
                cuts=cuts,
                below=prev.height,
                starts=tuple(j * prev.height + prefix[j] for j in range(cuts)),
                prefix=prefix,
                spacer_lo=prev.frontier * cuts,
            ))
        return tables[stage]

    # -- the map ----------------------------------------------------------

    def _locate(self, x: Fraction, k: int, max_stage: int) -> tuple[int, int, int, int]:
        """``(s, level, n, d)``: the first stage ``s`` at which ``T^k`` is
        defined at ``x``, the index of ``x``'s level there, and ``x``'s
        offset in that level as ``n / d`` of the level width.

        Raises :class:`OrbitError` when ``s`` would exceed ``max_stage``.
        """
        s, level, n, d = self._descend(x, k, max_stage)
        if level is None or not 0 <= level + k < self._tables[s].height:
            raise OrbitError(x, k, max_stage)
        return s, level, n, d

    def _descend(self, x: Fraction, k: int,
                 max_stage: int) -> tuple[int, int | None, int, int]:
        """``(s, level, n, d)`` as :meth:`_locate` gives them, except where
        ``T^k`` is undefined at ``x`` up to ``max_stage``: then ``s`` is the
        last stage looked at and ``level + k`` lies outside its column, or
        ``level`` is None when ``x`` is not born by ``max_stage``."""
        d = x.denominator
        q, n = divmod(x.numerator, d)
        s = 0
        t = self._tables[0]
        while q >= t.frontier:  # not born yet: x is a spacer of a later stage
            if s >= max_stage:
                return s, None, n, d
            s += 1
            t = self._table(s)
            i, n = divmod(n * t.cuts, d)
            q = q * t.cuts + i
        if s:
            r = q - t.spacer_lo
            j = bisect_right(t.prefix, r) - 1
            level = t.starts[j] + t.below + r - t.prefix[j]
        else:
            level = 0
        while not 0 <= level + k < t.height:
            if s >= max_stage:
                break
            s += 1
            t = self._table(s)
            i, n = divmod(n * t.cuts, d)
            level += t.starts[i]
        return s, level, n, d

    def _point(self, stage: int, level: int, n: int, d: int) -> Fraction:
        """The point ``n / d`` of the way into ``level`` of ``stage``; the
        level's left end is rebuilt top-down through the tables."""
        tables = self._tables
        scale = tables[stage].scale
        units = 0
        s = stage
        while s:
            t = tables[s]
            j = bisect_right(t.starts, level) - 1
            level -= t.starts[j]
            if level >= t.below:  # a spacer added at stage s
                units += (t.spacer_lo + t.prefix[j] + level - t.below) * (scale // t.scale)
                break
            units += j * (scale // t.scale)
            s -= 1
        return Fraction(units * d + n, scale * d)

    def apply(self, x: RatLike, k: int = 1, max_stage: int = DEFAULT_MAX_STAGE) -> Fraction:
        """Exact ``T^k x``, resolved at the first stage where it is defined."""
        x = as_rat(x)
        if x < 0:
            raise ValueError(f"point {x} is outside the machine space")
        if k == 0:
            return x
        s, level, n, d = self._locate(x, k, max_stage)
        return self._point(s, level + k, n, d)

    @staticmethod
    def _run(t: _Stage, level: int, k: int) -> int:
        """How many levels from ``level`` on are spacers of one copy at stage
        t whose ``T^k`` images are spacers of one copy: the levels of such a
        run are adjacent in space, and so are their images.  At least 1."""
        left = []
        for v in (level, level + k):
            j = bisect_right(t.starts, v) - 1
            r = v - t.starts[j] - t.below
            if r < 0:  # a level of the copy, not a spacer
                return 1
            left.append(t.prefix[j + 1] - t.prefix[j] - r)
        return max(1, min(left))

    def _slivers(self, lo: Fraction, hi: Fraction, k: int, max_stage: int):
        """Walk ``[lo, hi)``, ``0 <= lo``, ``k != 0``, in slivers ``(a, b,
        shift)``, left to right: ``T^k y = y + shift`` for y in ``[a, b)``,
        or shift is None where ``T^k`` does not resolve within max_stage
        stages.  A sliver runs from a point to the end of its level at the
        first stage where ``T^k`` is defined there, and on over the rest of
        a run of spacer levels (:meth:`_run`).  An unresolved sliver is the
        point's level at max_stage, or all of ``[a, hi)`` when the point is
        beyond the space that max_stage builds."""
        x = lo
        while x < hi:
            s, level, n, d = self._descend(x, k, max_stage)
            if level is None:
                yield x, hi, None
                return
            t = self._tables[s]
            end = x + Fraction(d - n, d * t.scale)
            if 0 <= level + k < t.height:
                shift = self._point(s, level + k, n, d) - x
                end += Fraction(self._run(t, level, k) - 1, t.scale)
            else:
                shift = None
            end = min(end, hi)
            yield x, end, shift
            x = end

    def piecewise(self, part: Interval, k: int, max_stage: int = DEFAULT_MAX_STAGE
                  ) -> tuple[list[tuple[Interval, Fraction]], Window]:
        """T^k on part as translations: ``(pieces, residual)``.

        ``T^k y = y + shift`` for y in each piece ``(I, shift)``; the pieces,
        left to right, and the residual tile part.  The residual is where
        ``T^k`` does not resolve within max_stage stages, and the part of
        part below 0, outside the space, so this never raises OrbitError.
        Adjacent slivers with one shift make one piece.
        """
        pieces: list[tuple[Interval, Fraction]] = []
        residual: list[Interval] = []
        lo = part.lo
        if lo < 0:
            residual.append(Interval(lo, min(part.hi, 0)))
            lo = Fraction(0)
        if lo >= part.hi:
            return pieces, Window(residual)
        slivers = [(lo, part.hi, Fraction(0))] if k == 0 else \
            self._slivers(lo, part.hi, k, max_stage)
        for a, b, shift in slivers:
            if shift is None:
                residual.append(Interval(a, b))
            elif pieces and pieces[-1][1] == shift and pieces[-1][0].hi == a:
                pieces[-1] = (Interval(pieces[-1][0].lo, b), shift)
            else:
                pieces.append((Interval(a, b), shift))
        return pieces, Window(residual)

    def image_window(self, w: Window, k: int, max_stage: int = DEFAULT_MAX_STAGE) -> Window:
        """Exact image ``T^k w``; length is preserved.

        Each part is scanned in the slivers of :meth:`piecewise`, each
        translated whole.  A point that needs more than ``max_stage`` stages
        raises :class:`OrbitError` naming it: the first one in scan order.
        """
        if w.is_empty:
            return w
        if w.parts[0].lo < 0:
            raise ValueError(f"window {w} is outside the machine space")
        if k == 0:
            return w
        images: list[Interval] = []
        for part in w.parts:
            for a, b, shift in self._slivers(part.lo, part.hi, k, max_stage):
                if shift is None:
                    raise OrbitError(a, k, max_stage)
                images.append(Interval(a + shift, b + shift))
        return Window(images)


TransformHandle = Union[Translation, RankOneMachine]


def orbit(
    T: TransformHandle, x: RatLike, k: int, max_stage: int = DEFAULT_MAX_STAGE
) -> list[tuple[int, Fraction]]:
    """Orbit segment ``[(j, T^j x)]`` for ``j`` from 0 to ``k`` inclusive."""
    x = as_rat(x)
    step = 1 if k >= 0 else -1
    out = [(0, x)]
    y = x
    for j in range(step, k + step, step):
        y = T.apply(y, step, max_stage=max_stage)
        out.append((j, y))
    return out


def cesaro_overlap(
    T: TransformHandle,
    A: Window,
    B: Window,
    L: int,
    max_stage: int = DEFAULT_MAX_STAGE,
) -> list[Fraction]:
    """Cesàro averages ``(1/l) * sum_{k=1..l} mu(T^-k A ∩ B)`` for l = 1..L.

    mu is length measure; every term is exact.  Terms are evaluated as
    ``mu(A ∩ T^k B)`` (equal by measure preservation) so that windows
    anchored at the base of a rank-one machine stay finitely resolvable;
    the backward form is used as a fallback.
    """
    if L < 1:
        raise ValueError("L must be at least 1")
    total = Fraction(0)
    out = []
    for k in range(1, L + 1):
        try:
            term = A.intersect(T.image_window(B, k, max_stage=max_stage)).length
        except OrbitError:
            term = B.intersect(T.image_window(A, -k, max_stage=max_stage)).length
        total += term
        out.append(total / k)
    return out
