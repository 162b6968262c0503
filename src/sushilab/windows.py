"""Exact interval arithmetic on the real line.

Everything downstream (transformations, samplers, moment estimators) works
with finite disjoint unions of half-open rational intervals.  Keeping the
endpoints as exact rationals means set algebra, lengths and transformation
images are computed without any rounding, so structural equality of two
windows is the same thing as set equality.

The reference measure is a nonnegative multiple ``alpha`` of length measure;
``IntensitySpec`` carries that scalar exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "RatLike",
    "Interval",
    "Window",
    "IntensitySpec",
    "as_rat",
    "format_rat",
    "parse_window",
    "EMPTY",
]

RatLike = Union[int, Fraction, float, str]


def as_rat(value: RatLike) -> Fraction:
    """Convert to an exact rational.

    Strings use the ``a/b`` or plain-integer literal syntax.  Finite floats
    convert exactly (binary floats are dyadic rationals); there is no
    rounding step anywhere in this package.  An infinite or NaN float
    raises ValueError, and a bool TypeError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"cannot interpret {value!r} as a rational")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def format_rat(value: Fraction) -> str:
    """Inverse of :func:`as_rat` for the config/report literal syntax."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True, order=True)
class Interval:
    """Half-open rational interval ``[lo, hi)`` with ``lo < hi``."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", as_rat(self.lo))
        object.__setattr__(self, "hi", as_rat(self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"empty or reversed interval [{self.lo}, {self.hi})")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x: object) -> bool:
        return self.lo <= x < self.hi  # type: ignore[operator]

    def shift(self, t: Fraction) -> "Interval":
        return Interval(self.lo + t, self.hi + t)

    def __str__(self) -> str:
        return f"[{format_rat(self.lo)},{format_rat(self.hi)})"


@dataclass(frozen=True)
class Window:
    """Finite disjoint union of half-open intervals, in canonical form.

    Canonical means: parts sorted by ``lo``, pairwise disjoint, and adjacent
    parts merged (``hi`` of one strictly below ``lo`` of the next).  The
    constructor canonicalizes any iterable of intervals, so ``==`` on windows
    is set equality.
    """

    parts: tuple[Interval, ...]

    def __init__(self, parts: Iterable[Interval] = ()) -> None:
        object.__setattr__(self, "parts", _canonicalize(parts))

    def __hash__(self) -> int:
        # The parts are immutable, so the hash is computed once: windows key
        # the counting layer's caches, and hashing their Fraction endpoints
        # on every lookup would cost more than the lookup saves.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.parts)
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def span(lo: RatLike, hi: RatLike) -> "Window":
        """Single-interval window ``[lo, hi)``."""
        return Window([Interval(as_rat(lo), as_rat(hi))])

    @property
    def is_empty(self) -> bool:
        return not self.parts

    @property
    def length(self) -> Fraction:
        """Total length, exact.  Empty window has length 0."""
        return sum((p.length for p in self.parts), Fraction(0))

    @property
    def lo(self) -> Fraction:
        if not self.parts:
            raise ValueError("empty window has no lower endpoint")
        return self.parts[0].lo

    @property
    def hi(self) -> Fraction:
        if not self.parts:
            raise ValueError("empty window has no upper endpoint")
        return self.parts[-1].hi

    def __contains__(self, x: object) -> bool:
        for p in self.parts:
            if x < p.lo:  # type: ignore[operator]
                return False
            if x < p.hi:  # type: ignore[operator]
                return True
        return False

    def intersect(self, other: "Window") -> "Window":
        """Set intersection, canonical."""
        out = []
        i = j = 0
        a, b = self.parts, other.parts
        while i < len(a) and j < len(b):
            lo = max(a[i].lo, b[j].lo)
            hi = min(a[i].hi, b[j].hi)
            if lo < hi:
                out.append(Interval(lo, hi))
            if a[i].hi <= b[j].hi:
                i += 1
            else:
                j += 1
        return Window(out)

    def union(self, other: "Window") -> "Window":
        return Window(self.parts + other.parts)

    def difference(self, other: "Window") -> "Window":
        """Set difference ``self \\ other``, canonical."""
        out = []
        cuts = other.parts
        for p in self.parts:
            lo = p.lo
            for c in cuts:
                if c.hi <= lo:
                    continue
                if c.lo >= p.hi:
                    break
                if c.lo > lo:
                    out.append(Interval(lo, c.lo))
                lo = max(lo, c.hi)
                if lo >= p.hi:
                    break
            if lo < p.hi:
                out.append(Interval(lo, p.hi))
        return Window(out)

    def translate(self, t: RatLike) -> "Window":
        """Shift every endpoint by ``t``; structure and length are preserved."""
        t = as_rat(t)
        return Window([p.shift(t) for p in self.parts])

    def buffer(self, margin: RatLike) -> "Window":
        """Enlarge every part by ``margin`` on each side (margin >= 0)."""
        m = as_rat(margin)
        if m < 0:
            raise ValueError("buffer margin must be nonnegative")
        return Window([Interval(p.lo - m, p.hi + m) for p in self.parts])

    def shrink(self, margin: RatLike) -> "Window":
        """Remove ``margin`` from each side of every part; short parts vanish."""
        m = as_rat(margin)
        if m < 0:
            raise ValueError("shrink margin must be nonnegative")
        return Window(
            [Interval(p.lo + m, p.hi - m) for p in self.parts if p.hi - p.lo > 2 * m]
        )

    def covers(self, other: "Window") -> bool:
        return self.intersect(other) == other

    def __str__(self) -> str:
        if not self.parts:
            return "[)"
        return "+".join(str(p) for p in self.parts)


def _canonicalize(parts: Iterable[Interval]) -> tuple[Interval, ...]:
    items = sorted(parts, key=lambda p: p.lo)
    merged: list[Interval] = []
    for p in items:
        if merged and p.lo <= merged[-1].hi:
            # overlapping or abutting parts collapse (union semantics)
            last = merged[-1]
            merged[-1] = Interval(last.lo, max(last.hi, p.hi))
        else:
            merged.append(p)
    return tuple(merged)


EMPTY = Window()


def parse_window(text: str) -> Window:
    """Parse the window literal syntax, e.g. ``"[0,1)+[3/2,2)"``.

    The empty window is written ``"[)"``.  Round trips exactly with
    ``str(w)``.
    """
    if not isinstance(text, str):
        raise TypeError(f"window literal must be a string, not {text!r}")
    text = text.strip()
    if text in ("", "[)"):
        return Window()
    parts = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not (chunk.startswith("[") and chunk.endswith(")")):
            raise ValueError(f"bad interval literal {chunk!r}")
        lo_s, _, hi_s = chunk[1:-1].partition(",")
        if not _:
            raise ValueError(f"bad interval literal {chunk!r}")
        parts.append(Interval(as_rat(lo_s), as_rat(hi_s)))
    return Window(parts)


@dataclass(frozen=True)
class IntensitySpec:
    """Reference intensity: ``alpha`` times length measure, ``alpha >= 0``.

    ``alpha`` is held exactly so that measures of rational windows are exact
    rationals.
    """

    alpha: Fraction

    def __init__(self, alpha: RatLike = 1) -> None:
        a = as_rat(alpha)
        if a < 0:
            raise ValueError("intensity scale must be nonnegative")
        object.__setattr__(self, "alpha", a)

    def mass(self, w: Window) -> Fraction:
        """mu(w) = alpha * length(w), exact."""
        return self.alpha * w.length

