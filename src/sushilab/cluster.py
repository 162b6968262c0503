"""Cluster measures along orbits, their ID representation, and orbit coding.

A cluster law is a finite catalog of finitely supported weight sequences
``{a_k}`` with selection probabilities.  A realization places a Poisson
ground configuration and hangs, on each ground point x, the atoms
``(T^k x, a_k)`` of an independently chosen catalog entry; the observable
is the resulting weighted measure restricted to a core window, a
:class:`~sushilab.point_process.PointConfig` with weights.

Two samplers produce this law.  :func:`sample_sushi` is the direct route:
its ground is a Poisson sample marked by catalog entry, with i.i.d. marks
independent of the points (Kingman's marking theorem, *Poisson Processes*,
1993, ch. 5), drawn by :func:`~sushilab.split_mark.attach_marks` with the
law's :class:`~sushilab.split_mark.MarkLaw`.  :func:`sample_id_measure`
goes through the Poisson-integral representation of an infinitely
divisible measure: one independent Poisson ground per catalog entry,
thinned by the entry probability, then integrated.  The two routes are
equal in distribution, and the test battery checks exactly that.

:class:`ClusterSampler` is either route with its ground windows built
once.  It counts whole blocks of replicates without building atoms: the
grounds are drawn as lattice samples from
:class:`~sushilab.point_process.Streams`, with the serial samplers' draws,
and a count is pulled back to them, N(A) = Σ_e Σ_k a_{e,k} N_e(T^{-k} A),
in exact integers scaled by the weights' common denominator.

The orbit coding pairs every realization made of whole clusters with a
canonical list of (origin, relative weights): the origin is the earliest
maximal-weight point of its orbit group, so decoding is exact inversion.
It inverts when distinct clusters lie in distinct orbit groups.
:meth:`ClusterSampler.round_trip_blocks` decides the coding's round trip
on the same blocks: a replicate whose ground points meet under no power
of T within the coding's reach provably groups by cluster, and passes on
grid indices; every other replicate is sampled and coded on ``Fraction``
points (:func:`_round_trip_fails`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .dynamics import OrbitError, TransformHandle
from .point_process import (
    BLOCK_WORDS,
    KEY_ROWS,
    Columns,
    PointConfig,
    Rng,
    Streams,
    _batch_counts,
    _check_columns,
    _inside,
    _lattice_meets,
    counts,
    sample_poisson,
)
from .split_mark import LatticeSampler, MarkLaw, attach_marks
from .windows import EMPTY, IntensitySpec, RatLike, Window, as_rat

__all__ = [
    "ClusterEntry",
    "ClusterLaw",
    "SushiSpec",
    "EncodedCluster",
    "cluster_buffer",
    "sample_sushi",
    "sample_id_measure",
    "ClusterSampler",
    "truncate_weights",
    "simplify",
    "phi_encode",
    "phi_decode",
    "unit_intensity_c",
    "sushi_mean",
    "sushi_variance",
]


@dataclass(frozen=True)
class ClusterEntry:
    """One weight sequence: finite map k -> a_k > 0, with its probability."""

    weights: tuple[tuple[int, Fraction], ...]
    prob: Fraction

    def __init__(self, weights: Mapping[int, RatLike], prob: RatLike) -> None:
        items = tuple(sorted((int(k), as_rat(a)) for k, a in weights.items()))
        object.__setattr__(self, "weights", items)
        object.__setattr__(self, "prob", as_rat(prob))
        if not items:
            raise ValueError("weight map must have at least one entry")
        if any(a <= 0 for _, a in items):
            raise ValueError("weights must be positive")
        if self.prob < 0:
            raise ValueError("probability must be nonnegative")

    @property
    def total_weight(self) -> Fraction:
        return sum((a for _, a in self.weights), Fraction(0))

    @property
    def reach(self) -> int:
        return max(abs(k) for k, _ in self.weights)


@dataclass(frozen=True)
class ClusterLaw:
    """Finite catalog of weight sequences; probabilities sum to one exactly.
    ``marks`` is the law of a ground point's catalog entry, as a mark law."""

    catalog: tuple[ClusterEntry, ...]

    def __init__(self, catalog: Iterable[ClusterEntry]) -> None:
        entries = tuple(catalog)
        object.__setattr__(self, "catalog", entries)
        if not entries:
            raise ValueError("catalog must be nonempty")
        if sum((e.prob for e in entries), Fraction(0)) != 1:
            raise ValueError("catalog probabilities must sum to 1 exactly")
        object.__setattr__(self, "marks", MarkLaw([e.prob for e in entries]))

    @property
    def reach(self) -> int:
        return max(e.reach for e in self.catalog)

    @property
    def span(self) -> int:
        """Largest orbit offset of the catalog minus its smallest."""
        ks = [k for e in self.catalog for k, _ in e.weights]
        return max(ks) - min(ks)

    @property
    def mean_total_weight(self) -> Fraction:
        """Expected sum of weights of one cluster."""
        return sum((e.prob * e.total_weight for e in self.catalog), Fraction(0))


@dataclass(frozen=True)
class SushiSpec:
    """Parameters of one cluster measure: ground scale, law, transformation."""

    c: Fraction
    law: ClusterLaw
    T: TransformHandle

    def __post_init__(self):
        object.__setattr__(self, "c", as_rat(self.c))
        if self.c <= 0:
            raise ValueError("ground intensity scale must be positive")


@dataclass(frozen=True)
class EncodedCluster:
    """Origin point plus relative weights beta_n = weight at T^n(origin).

    The origin is pinned by the weight profile itself: beta_0 positive,
    strictly above every beta_n with n < 0 and at least every beta_n with
    n >= 0, so each abstract cluster has exactly one encoding.
    """

    origin: Fraction
    weights: tuple[tuple[int, Fraction], ...]

    def __init__(self, origin: RatLike, weights: Mapping[int, RatLike]) -> None:
        object.__setattr__(self, "origin", as_rat(origin))
        items = tuple(sorted((int(k), as_rat(b)) for k, b in weights.items()))
        object.__setattr__(self, "weights", items)
        wmap = dict(items)
        b0 = wmap.get(0)
        if b0 is None or b0 <= 0:
            raise ValueError("encoded cluster needs a positive weight at 0")
        for n, b in items:
            if b <= 0:
                raise ValueError("encoded weights must be positive")
            if n < 0 and b >= b0:
                raise ValueError("origin must strictly dominate earlier positions")
            if n > 0 and b > b0:
                raise ValueError("origin must dominate later positions")


def cluster_buffer(spec: SushiSpec, core: Window,
                   entry: ClusterEntry | None = None) -> Window:
    """Ground window of the clusters that can reach core: the union of
    T^{-k}(core) over the orbit offsets k of one catalog entry, or of the
    whole law when entry is None."""
    entries = spec.law.catalog if entry is None else (entry,)
    buf = EMPTY
    for k in sorted({k for e in entries for k, _ in e.weights}):
        buf = buf.union(spec.T.image_window(core, -k))
    return buf


def _hang_clusters(ground: Sequence[Fraction], entries: Iterable[ClusterEntry],
                   T: TransformHandle, core: Window):
    """The atoms (T^k x, a_k) in core of each ground point x's cluster."""
    atoms = ((T.apply(x, k), a)
             for x, entry in zip(ground, entries) for k, a in entry.weights)
    return [(p, a) for p, a in atoms if p in core]


def sample_sushi(spec: SushiSpec, core: Window, rng: Rng,
                 buffer: Window | None = None) -> PointConfig:
    """Direct cluster sampler restricted to the core window.

    Draw order: ground Poisson(c x length) on the buffered window, then its
    marks, one uniform per ground point (in point order) naming the catalog
    entry that hangs there.  A caller that samples many replicates passes
    the ground window, as ``cluster_buffer(spec, core)``, so it is built
    once.
    """
    if buffer is None:
        buffer = cluster_buffer(spec, core)
    ground = attach_marks(sample_poisson(IntensitySpec(spec.c), buffer, rng),
                          spec.law.marks, rng)
    entries = [spec.law.catalog[m] for m in ground.marks.tolist()]
    return PointConfig.of_sum(_hang_clusters(ground.points, entries, spec.T,
                                             core), core)


def sample_id_measure(spec: SushiSpec, core: Window, rng: Rng,
                      buffers: Sequence[Window] | None = None) -> PointConfig:
    """Poisson-integral sampler: one independent ground per catalog entry.

    The cluster point process on (space x catalog) with intensity
    c x length x prob is sampled entry by entry and integrated; equal in law
    to :func:`sample_sushi` with the same spec.  The drift of the Lévy triple
    is zero for point-valued measures, so a SushiSpec is the whole triple.
    ``buffers``, when given, holds each entry's ground window, as
    ``cluster_buffer(spec, core, entry)``, in catalog order; entries of
    probability 0 draw nothing, and their slot is not read.
    """
    atoms: list[tuple[Fraction, Fraction]] = []
    for i, entry in enumerate(spec.law.catalog):
        if entry.prob == 0:
            continue
        buffer = (cluster_buffer(spec, core, entry)
                  if buffers is None else buffers[i])
        ground = sample_poisson(IntensitySpec(spec.c * entry.prob), buffer, rng)
        atoms += _hang_clusters(ground.points, repeat(entry), spec.T, core)
    return PointConfig.of_sum(atoms, core)


class ClusterSampler:
    """The cluster measure of spec on core, by the route "sushi" or "id",
    with its ground windows built once.

    Called with an Rng, it is :func:`sample_sushi` or
    :func:`sample_id_measure`.  :meth:`count_blocks` counts whole blocks of
    replicates with the same draws, and :meth:`round_trip_blocks` decides
    the orbit coding's round trip on them, running the ``Fraction`` coding
    only on the replicates that its certificate does not clear.  Its
    grounds are :class:`~sushilab.split_mark.LatticeSampler` samples:
    sushi's one ground marked by catalog entry, or id's one ground per entry
    of positive probability, in catalog order, on the same stream.  A count
    is pulled back to them: N(A) = Σ_e Σ_k a_{e,k} N_e(T^{-k} A), N_e
    counting the ground points that carry entry e.

    Raises :class:`~sushilab.dynamics.OrbitError` unless T^k resolves on
    the whole ground window for every offset k hung there, and ValueError
    when that window leaves T's space: then every cluster a call hangs
    resolves, and the pull-back counts its atoms.
    """

    def __init__(self, spec: SushiSpec, core: Window, route: str) -> None:
        if route not in ("sushi", "id"):
            raise ValueError("route must be 'sushi' or 'id'")
        self.spec, self.core, self.route = spec, core, route
        law = spec.law
        hung = [(e, entry) for e, entry in enumerate(law.catalog) if entry.prob]
        # each ground: its sampler, and (selector, entry) per entry it hangs
        if route == "sushi":
            self.buffer = cluster_buffer(spec, core)
            self._grounds = [(LatticeSampler(IntensitySpec(spec.c), self.buffer,
                                             marks=law.marks), hung)]
        else:
            self.buffers = tuple(cluster_buffer(spec, core, entry) if entry.prob
                                 else None for entry in law.catalog)
            self._grounds = [(LatticeSampler(IntensitySpec(spec.c * entry.prob),
                                             self.buffers[e]), [(None, entry)])
                             for e, entry in hung]
        for ground, entries in self._grounds:
            for k in sorted({k for _, entry in entries for k, _ in entry.weights}):
                spec.T.image_window(ground.window, k)

    def __call__(self, rng: Rng) -> PointConfig:
        if self.route == "sushi":
            return sample_sushi(self.spec, self.core, rng, buffer=self.buffer)
        return sample_id_measure(self.spec, self.core, rng, buffers=self.buffers)

    def count_blocks(self, rng: Rng, R: int,
                     columns: Columns) -> Iterator[np.ndarray]:
        """``counts(sample, columns)`` of the sample of each replicate
        ``rng.child(r)``, r < R, as float64 rows, in blocks of about
        BLOCK_WORDS words.  A replicate whose positions coincide in any
        ground is drawn by a call."""
        _check_columns(self.core, None, columns)
        pull = _PullBack(self, columns)
        step = max(1, int(BLOCK_WORDS // sum(
            ground.cost(cols) for (ground, _), cols in zip(self._grounds, pull.columns))))
        for lo in range(0, R, step):
            batches = self._batches(Streams(rng, min(lo + step, R), lo))
            block = pull.weigh(np.concatenate(
                [_batch_counts(b, cols) for b, cols in zip(batches, pull.columns)],
                axis=1))
            redo = np.logical_or.reduce([b.redo for b in batches])
            for i in np.flatnonzero(redo).tolist():
                block[i] = counts(self(rng.child(lo + i)), columns)
            yield block

    def _batches(self, streams: Streams) -> list:
        """The batch of each ground of every row of streams, drawn one after
        another from each row's stream."""
        out, used = [], None
        for ground, _ in self._grounds:
            out.append(ground.batch(streams, used))
            used = out[-1].used
        return out

    def round_trip_blocks(self, rng: Rng, R: int,
                          K_max: int) -> Iterator[np.ndarray]:
        """Per replicate r < R, whether the sample of ``rng.child(r)`` fails
        :func:`_round_trip_fails` with K_max, as bool rows, in blocks of at
        most KEY_ROWS replicates.

        A block's grounds are drawn as :meth:`count_blocks` draws them.  With
        M = (largest - smallest offset of the law) + K_max, a row passes
        without its atoms being built when :meth:`_certified` clears it:

        (a) no ground point x meets another, T^m x = y, nor itself, for
            0 < |m| <= M; on the id route no two points of different
            grounds meet for |m| <= M, m = 0 included;
        (b) T^m resolves into pieces at every ground point, 0 < |m| <= M,
            so that (a) is decided exactly on grid indices;
        (c) the batch drew the row: one it leaves to a call holds none of
            the row's points; and
        (d) no cluster has atoms in core at offsets more than K_max apart.

        Proof that a cleared row passes.  Let S_x be the offsets k of the
        entry hung on ground point x with T^k x in core; the sample is the
        atoms T^k x, k in S_x, summed by point.  Two atoms T^k x = T^k' y
        of distinct clusters would meet x and y within the span <= M, and
        T^k x = T^k' x with k != k' would meet x with itself, so (a) leaves
        every atom its own point.  ``_orbit_groups`` scans from an atom T^k
        x the points T^(k+j) x, 0 < |j| <= K_max.  One of them equal to an
        atom T^k' y of another cluster gives T^(k+j-k') x = y, with |k + j
        - k'| <= span + K_max = M, which (a) excludes; one equal to T^k'' x,
        k'' != k + j, meets x with itself within M.  By (d) the scan from
        the first atom of a cluster in point order reaches all of S_x, and
        it resolves up to them, since T^k x resolves for every k in S_x.  So
        the groups are exactly the clusters with an atom in core, each
        anchored at its first atom.  ``phi_encode`` drops a group by its
        anchor and offsets alone, so the decoded configuration is the sample
        less the dropped clusters; its groups are again exactly its
        clusters, with the same anchors, so the second encoding equals the
        first and decodes to the same configuration.

        Every other row runs :func:`_round_trip_fails` on a call's sample,
        in row order, so it fails, or raises, as one call per replicate.
        """
        T = self.spec.T
        words = sum(ground._words for ground, _ in self._grounds)
        step = max(1, min(KEY_ROWS, int(BLOCK_WORDS // words)))
        for lo in range(0, R, step):
            streams = Streams(rng, min(lo + step, R), lo)
            batches = self._batches(streams)
            block = np.zeros(len(streams), dtype=bool)
            for i in np.flatnonzero(~self._certified(batches, K_max)).tolist():
                block[i] = _round_trip_fails(self(rng.child(lo + i)), T, K_max,
                                             self.core)
            yield block

    def _certified(self, batches: list, K_max: int) -> np.ndarray:
        """Per row of batches, one per ground: do conditions (a)-(d) of
        :meth:`round_trip_blocks` hold?"""
        T, M = self.spec.T, self.spec.law.span + K_max
        n = batches[0].used.size
        bad = np.zeros(n, dtype=bool)
        points = [(b.row, b.frame, b.ks) for b in batches]
        for g, (b, (_, entries)) in enumerate(zip(batches, self._grounds)):
            bad |= b.redo
            for h in range(g, len(batches)):
                meets, unresolved = _lattice_meets(
                    T, (b.layout, batches[h].layout), M, h != g, n, points[g],
                    points[h])
                bad |= meets | unresolved
            for sel, entry in entries:
                ks = [k for k, _ in entry.weights]
                if ks[-1] - ks[0] <= K_max:
                    continue
                # per offset and point: is the atom T^k x in core?
                hit = np.array([_inside(b, T.image_window(self.core, -k))
                                for k in ks])
                first = np.take(ks, hit.argmax(axis=0))
                last = np.take(ks, len(ks) - 1 - hit[::-1].argmax(axis=0))
                wide = hit.any(axis=0) & (last - first > K_max)
                if sel is not None:
                    wide &= b.marks == sel
                bad[b.row[wide]] = True
        return ~bad


# float64 holds every integer up to 2**53 exactly
_EXACT = 1 << 53


class _PullBack:
    """The ground columns ``(selector, T^{-k} A)`` of a sampler's grounds
    for the windows A of columns, and the integer matrix M and scale D with
    N(A_j) = (ground counts @ M)[j] / D: D is the least common denominator
    of the weights, and row g of M holds D times the weights its ground
    column carries to each window."""

    __slots__ = ("columns", "M", "M64", "D", "peak")

    def __init__(self, sampler: ClusterSampler, columns: Columns) -> None:
        T, pulled = sampler.spec.T, {}  # (k, j) -> T^{-k} A_j
        terms, self.columns, base = [], [], 0  # terms: (ground column, j, weight)
        for _, entries in sampler._grounds:
            at: dict = {}  # ground column -> its index in this ground
            for sel, entry in entries:
                for k, a in entry.weights:
                    for j, A in enumerate(columns.windows):
                        if (k, j) not in pulled:
                            pulled[k, j] = T.image_window(A, -k)
                        key = (sel, pulled[k, j])
                        terms.append((base + at.setdefault(key, len(at)), j, a))
            self.columns.append(Columns(list(at)))
            base += len(at)
        self.D = math.lcm(*(a.denominator for _, _, a in terms))
        self.M = np.zeros((base, len(columns)), dtype=object)
        for g, j, a in terms:
            self.M[g, j] += a.numerator * (self.D // a.denominator)
        self.peak = int(self.M.max(initial=0))
        self.M64 = self.M.astype(np.int64) if self.peak <= _EXACT else None

    def weigh(self, ground: np.ndarray) -> np.ndarray:
        """The rows (ground @ M) / D, as float64.

        Weights are positive, so no entry exceeds (row total) x max(M).
        While that and D are at most 2**53, the quotient of the two exact
        float64 integers is their ratio correctly rounded, as
        ``float(Fraction)`` rounds it; beyond, the sums are Python integers
        and their quotients correctly rounded too.
        """
        top = int(ground.sum(axis=1).max(initial=0)) * self.peak
        if self.M64 is not None and self.D <= _EXACT and top <= _EXACT:
            return (ground @ self.M64) / self.D
        num = ground.astype(object) @ self.M
        return np.array([[n / self.D for n in row] for row in num.tolist()],
                        dtype=np.float64).reshape(num.shape)


def truncate_weights(v: PointConfig, eps: RatLike) -> PointConfig:
    """Drop atoms with weight strictly below eps; an exact tie survives."""
    eps = as_rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    kept = [(p, w) for p, w in v.atoms if w >= eps]
    return PointConfig([p for p, _ in kept], v.window,
                       weights=[w for _, w in kept])


def simplify(v: PointConfig) -> PointConfig:
    """Forget weights: the support as a simple configuration."""
    return PointConfig(v.points, v.window)


def unit_intensity_c(law: ClusterLaw) -> Fraction:
    """Ground scale making the cluster measure unit-intensity:
    1/c = expected total cluster weight."""
    m = law.mean_total_weight
    if m == 0:
        raise ValueError("law has zero expected total weight")
    return 1 / m


def sushi_mean(spec: SushiSpec, A: Window) -> Fraction:
    """Closed-form E[N(A)] = c x (expected total weight) x length(A)."""
    return spec.c * spec.law.mean_total_weight * A.length


def sushi_variance(spec: SushiSpec, A: Window) -> Fraction:
    """Closed-form Var(N(A)) = c Σ_e p_e Σ_{k,l} a_k a_l mu(A ∩ T^{k-l}A).

    This is the second moment of the Poisson integral: the ground is
    Poisson, so the variance is c times the mu-integral of the squared
    cluster evaluation, expanded over weight pairs and reduced with
    mu(T^{-k}A ∩ T^{-l}A) = mu(A ∩ T^{k-l}A).
    """
    overlaps: dict[int, Fraction] = {}

    def overlap(d: int) -> Fraction:
        if d not in overlaps:
            overlaps[d] = A.intersect(spec.T.image_window(A, d)).length
        return overlaps[d]

    total = Fraction(0)
    for e in spec.law.catalog:
        s = Fraction(0)
        for k, ak in e.weights:
            for l, al in e.weights:
                s += ak * al * overlap(k - l)
        total += e.prob * s
    return spec.c * total


def _orbit_groups(v: PointConfig, T: TransformHandle, K_max: int):
    """Partition atoms into orbit groups within +-K_max steps."""
    support = dict(v.atoms)
    seen: set[Fraction] = set()
    groups = []
    for p in v.points:
        if p in seen:
            continue
        rel = {0: support[p]}
        seen.add(p)
        for sgn in (1, -1):
            y = p
            for j in range(1, K_max + 1):
                try:
                    y = T.apply(y, sgn)
                except OrbitError:
                    # unresolvable direction: scan stops, the group splits;
                    # decoding stays exact, the boundary guard stays sound
                    break
                if y in support and y not in seen:
                    rel[sgn * j] = support[y]
                    seen.add(y)
        groups.append((p, rel))
    return groups


def _touches_boundary(anchor: Fraction, rel: dict[int, Fraction],
                      T: TransformHandle, K_max: int, window: Window) -> bool:
    """Could unobserved cluster mass exist beyond the window edge?

    True when some orbit position within K_max of an observed member falls
    outside the window: an atom there would have been invisible.  Interior
    gaps count too; orbit order need not follow spatial order.  A position
    the dynamics cannot resolve within the stage budget counts as outside:
    it cannot be certified observable.
    """
    for j in range(min(rel) - K_max, max(rel) + K_max + 1):
        if j in rel:
            continue
        try:
            pos = T.apply(anchor, j)
        except OrbitError:
            return True
        if pos not in window:
            return True
    return False


def phi_encode(v: PointConfig, T: TransformHandle,
               K_max: int) -> list[EncodedCluster]:
    """Canonical orbit coding of a realization built from whole clusters.

    Atoms are grouped by exact orbit scans up to K_max steps; each group is
    encoded relative to its origin, the earliest position carrying the
    maximal weight.  Groups whose K_max-reach leaves the window are dropped,
    since their full extent is unobservable: one ``UserWarning`` counts
    them, so a caller that must refuse a dropped group turns warnings into
    errors (``warnings.simplefilter("error")``).
    """
    out = []
    dropped = 0
    for anchor, rel in _orbit_groups(v, T, K_max):
        if _touches_boundary(anchor, rel, T, K_max, v.window):
            dropped += 1
            continue
        wmax = max(rel.values())
        origin_j = min(j for j, w in rel.items() if w == wmax)
        origin = T.apply(anchor, origin_j)
        out.append(EncodedCluster(
            origin, {j - origin_j: w for j, w in rel.items()}
        ))
    if dropped:
        warnings.warn(f"dropped {dropped} boundary-touching orbit group(s)",
                      stacklevel=2)
    out.sort(key=lambda e: e.origin)
    return out


def _round_trip_fails(v: PointConfig, T: TransformHandle, K_max: int,
                      window: Window) -> bool:
    """Does the orbit coding of v fail to round-trip exactly?  v is
    encoded, decoded on window, encoded again and decoded again; the check
    fails unless the two encodings and the two decoded configurations agree.
    Groups dropped at the boundary are allowed, and not counted."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        enc = phi_encode(v, T, K_max)
        v2 = phi_decode(enc, T, window=window)
        enc2 = phi_encode(v2, T, K_max)
    return enc2 != enc or phi_decode(enc2, T, window=window) != v2


def phi_decode(enc: Sequence[EncodedCluster], T: TransformHandle,
               window: Window | None = None) -> PointConfig:
    """Inverse coding: place each cluster's weights along its orbit.

    Two clusters claiming one support point is an error, not a merge: the
    coding is only defined where orbit groups are disjoint.
    """
    acc: dict[Fraction, Fraction] = {}
    for cluster in enc:
        for j, b in cluster.weights:
            pos = T.apply(cluster.origin, j)
            if pos in acc:
                raise ValueError(f"support collision at {pos}")
            acc[pos] = b
    if window is None:
        window = Window.span(min(acc), max(acc) + 1) if acc else EMPTY
    return PointConfig.of_sum(acc.items(), window)
