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

The orbit coding pairs every realization made of whole clusters with a
canonical list of (origin, relative weights): the origin is the earliest
maximal-weight point of its orbit group, so decoding is exact inversion.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from .dynamics import DEFAULT_MAX_STAGE, OrbitError, TransformHandle
from .point_process import PointConfig, Rng, sample_poisson
from .split_mark import MarkLaw, attach_marks
from .windows import EMPTY, IntensitySpec, RatLike, Window, as_rat

__all__ = [
    "ClusterEntry",
    "ClusterLaw",
    "SushiSpec",
    "EncodedCluster",
    "cluster_buffer",
    "sample_sushi",
    "sample_id_measure",
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
    def mean_total_weight(self) -> Fraction:
        """Expected sum of weights of one cluster."""
        return sum((e.prob * e.total_weight for e in self.catalog), Fraction(0))


@dataclass(frozen=True)
class SushiSpec:
    """Parameters of one cluster measure: ground scale, law, transformation."""

    c: Fraction
    law: ClusterLaw
    T: TransformHandle
    K_support: int = field(default=-1)

    def __post_init__(self):
        object.__setattr__(self, "c", as_rat(self.c))
        if self.c <= 0:
            raise ValueError("ground intensity scale must be positive")
        reach = self.law.reach
        if self.K_support < 0:
            object.__setattr__(self, "K_support", reach)
        elif self.K_support < reach:
            raise ValueError("K_support smaller than the catalog's orbit reach")


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
                   entry: ClusterEntry | None = None,
                   max_stage: int = DEFAULT_MAX_STAGE) -> Window:
    """Ground window of the clusters that can reach core: the union of
    T^{-k}(core) over the orbit offsets k of one catalog entry, or of the
    whole law when entry is None."""
    entries = spec.law.catalog if entry is None else (entry,)
    buf = EMPTY
    for k in sorted({k for e in entries for k, _ in e.weights}):
        buf = buf.union(spec.T.image_window(core, -k, max_stage=max_stage))
    return buf


def _hang_clusters(ground: Sequence[Fraction], entries: Iterable[ClusterEntry],
                   T: TransformHandle, core: Window, max_stage: int):
    """The atoms (T^k x, a_k) in core of each ground point x's cluster."""
    atoms = ((T.apply(x, k, max_stage=max_stage), a)
             for x, entry in zip(ground, entries) for k, a in entry.weights)
    return [(p, a) for p, a in atoms if p in core]


def sample_sushi(spec: SushiSpec, core: Window, rng: Rng,
                 max_stage: int = DEFAULT_MAX_STAGE,
                 buffer: Window | None = None) -> PointConfig:
    """Direct cluster sampler restricted to the core window.

    Draw order: ground Poisson(c x length) on the buffered window, then its
    marks, one uniform per ground point (in point order) naming the catalog
    entry that hangs there.  A caller that samples many replicates passes
    the ground window, as ``cluster_buffer(spec, core)``, so it is built
    once.
    """
    if buffer is None:
        buffer = cluster_buffer(spec, core, max_stage=max_stage)
    ground = attach_marks(sample_poisson(IntensitySpec(spec.c), buffer, rng),
                          spec.law.marks, rng)
    entries = [spec.law.catalog[m] for m in ground.marks.tolist()]
    return PointConfig.of_sum(_hang_clusters(ground.points, entries, spec.T,
                                             core, max_stage), core)


def sample_id_measure(spec: SushiSpec, core: Window, rng: Rng,
                      max_stage: int = DEFAULT_MAX_STAGE,
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
        buffer = (cluster_buffer(spec, core, entry, max_stage)
                  if buffers is None else buffers[i])
        ground = sample_poisson(IntensitySpec(spec.c * entry.prob), buffer, rng)
        atoms += _hang_clusters(ground.points, repeat(entry), spec.T, core,
                                max_stage)
    return PointConfig.of_sum(atoms, core)


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


def sushi_variance(spec: SushiSpec, A: Window,
                   max_stage: int = DEFAULT_MAX_STAGE) -> Fraction:
    """Closed-form Var(N(A)) = c Σ_e p_e Σ_{k,l} a_k a_l mu(A ∩ T^{k-l}A).

    This is the second moment of the Poisson integral: the ground is
    Poisson, so the variance is c times the mu-integral of the squared
    cluster evaluation, expanded over weight pairs and reduced with
    mu(T^{-k}A ∩ T^{-l}A) = mu(A ∩ T^{k-l}A).
    """
    overlaps: dict[int, Fraction] = {}

    def overlap(d: int) -> Fraction:
        if d not in overlaps:
            overlaps[d] = A.intersect(
                spec.T.image_window(A, d, max_stage=max_stage)
            ).length
        return overlaps[d]

    total = Fraction(0)
    for e in spec.law.catalog:
        s = Fraction(0)
        for k, ak in e.weights:
            for l, al in e.weights:
                s += ak * al * overlap(k - l)
        total += e.prob * s
    return spec.c * total


def _orbit_groups(v: PointConfig, T: TransformHandle, K_max: int,
                  max_stage: int):
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
                    y = T.apply(y, sgn, max_stage=max_stage)
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
                      T: TransformHandle, K_max: int, window: Window,
                      max_stage: int) -> bool:
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
            pos = T.apply(anchor, j, max_stage=max_stage)
        except OrbitError:
            return True
        if pos not in window:
            return True
    return False


def phi_encode(v: PointConfig, T: TransformHandle, K_max: int,
               boundary: str = "drop",
               max_stage: int = DEFAULT_MAX_STAGE) -> list[EncodedCluster]:
    """Canonical orbit coding of a realization built from whole clusters.

    Atoms are grouped by exact orbit scans up to K_max steps; each group is
    encoded relative to its origin, the earliest position carrying the
    maximal weight.  Groups whose K_max-reach leaves the window are either
    dropped with a counted warning (default) or rejected, per ``boundary``
    ("drop" | "error"): their full extent is unobservable.
    """
    if boundary not in ("drop", "error"):
        raise ValueError("boundary must be 'drop' or 'error'")
    out = []
    dropped = 0
    for anchor, rel in _orbit_groups(v, T, K_max, max_stage):
        if _touches_boundary(anchor, rel, T, K_max, v.window, max_stage):
            if boundary == "error":
                raise ValueError(
                    f"orbit group at {anchor} reaches the window boundary"
                )
            dropped += 1
            continue
        wmax = max(rel.values())
        origin_j = min(j for j, w in rel.items() if w == wmax)
        origin = T.apply(anchor, origin_j, max_stage=max_stage)
        out.append(EncodedCluster(
            origin, {j - origin_j: w for j, w in rel.items()}
        ))
    if dropped:
        warnings.warn(f"dropped {dropped} boundary-touching orbit group(s)",
                      stacklevel=2)
    out.sort(key=lambda e: e.origin)
    return out


def phi_decode(enc: Sequence[EncodedCluster], T: TransformHandle,
               window: Window | None = None,
               max_stage: int = DEFAULT_MAX_STAGE) -> PointConfig:
    """Inverse coding: place each cluster's weights along its orbit.

    Two clusters claiming one support point is an error, not a merge: the
    coding is only defined where orbit groups are disjoint.
    """
    acc: dict[Fraction, Fraction] = {}
    for cluster in enc:
        for j, b in cluster.weights:
            pos = T.apply(cluster.origin, j, max_stage=max_stage)
            if pos in acc:
                raise ValueError(f"support collision at {pos}")
            acc[pos] = b
    if window is None:
        window = Window.span(min(acc), max(acc) + 1) if acc else EMPTY
    return PointConfig.of_sum(acc.items(), window)
