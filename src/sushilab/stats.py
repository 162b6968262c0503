"""Seeded statistical test battery: calibration, factorization, dispersion.

Every check returns a TestReport whose decision is exactly
``p_value < level``; counterexample batteries that expect a rejection
invert the reading at the orchestration layer, never here.  All inputs
are finite count/realization data produced from explicit Rng streams, so
identical seeds give identical reports.  The checks that sample read one
replicate x column count matrix (:func:`~sushilab.moments.count_matrix`)
and take their products with numpy, left to right.

P-values come from the ``scipy.special`` ufuncs that ``scipy.stats``
itself reduces to for these laws: ``ndtr`` for the normal tail,
``chdtr``/``chdtrc`` for chi-square, and ``xlogy``/``gammaln`` under
``np.exp`` for the Poisson mass.  They are bit-identical to the
``scipy.stats`` calls, whose import costs several times as much.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import chdtr, chdtrc, gammaln, ndtr, xlogy

from .dynamics import TransformHandle
from .moments import _products, count_matrix
from .point_process import Rng
from .windows import IntensitySpec, Window

__all__ = [
    "TestReport",
    "z_test_report",
    "covariance_check",
    "poisson_gof",
    "dispersion_index_test",
    "mixed_moment_factorization",
    "cesaro_factorization",
    "CesaroFactorization",
    "two_sample_count_test",
    "correlation_check",
    "variance_check",
]


@dataclass(frozen=True)
class TestReport:
    """One decision: statistic, p-value, and reject iff p_value < level."""

    name: str
    statistic: float
    p_value: float
    level: float
    seed: int | None
    replicates: int
    target: float | None = None
    estimate: float | None = None
    stderr: float | None = None
    decision: str = field(init=False)

    def __post_init__(self):
        if not 0 <= self.p_value <= 1:
            raise ValueError("p_value must lie in [0,1]")
        object.__setattr__(
            self, "decision", "reject" if self.p_value < self.level else "pass"
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "decision": self.decision,
            "level": self.level,
            "seed": self.seed,
            "R": self.replicates,
        }


def z_test_report(name: str, estimate: float, target: float, stderr: float,
                  level: float, seed: int | None, R: int) -> TestReport:
    """Two-sided z-test of an estimate against an exact target."""
    if stderr == 0:
        z = 0.0 if estimate == target else math.inf
    else:
        z = (estimate - target) / stderr
    p = float(2 * ndtr(-abs(z))) if math.isfinite(z) else 0.0
    return TestReport(name, float(z), p, level, seed, R,
                      target=float(target), estimate=float(estimate),
                      stderr=float(stderr))


def covariance_check(sampler, A: Window, B: Window, intensity: IntensitySpec,
                     R: int, rng: Rng, level: float = 0.01) -> TestReport:
    """Empirical Cov(N(A), N(B)) against the exact overlap mass."""
    target = float(intensity.alpha * A.intersect(B).length)
    mat = count_matrix(sampler, [(None, A), (None, B)], R, rng)
    a, b = mat[:, 0], mat[:, 1]
    cov = float(np.cov(a, b)[0, 1])
    # stderr of the sample covariance via the plug-in fourth-moment formula
    prod = (a - a.mean()) * (b - b.mean())
    se = float(prod.std(ddof=1) / math.sqrt(R))
    name = f"covariance[{A};{B}]"
    return z_test_report(name, cov, target, se, level, rng.seed, R)


def _poisson_pmf(k: int, mean: float) -> float:
    """Poisson(mean) mass at k, by scipy.stats.poisson's own formula."""
    return float(np.exp(xlogy(k, mean) - gammaln(k + 1) - mean))


def _pool_expected(mean: float, kmax: int, R: int, min_expected: float = 5.0):
    """Poisson histogram bins pooled so each expected count is >= 5.

    Bins are contiguous count ranges [lo, hi]; the final bin is open above.
    """
    pmf = [_poisson_pmf(k, mean) for k in range(kmax + 1)]
    tail = max(0.0, 1.0 - sum(pmf))
    edges: list[tuple[int, int]] = []
    expected: list[float] = []
    acc = 0.0
    lo = 0
    for k in range(kmax + 1):
        acc += pmf[k] * R
        if acc >= min_expected:
            edges.append((lo, k))
            expected.append(acc)
            acc = 0.0
            lo = k + 1
    acc += tail * R
    if edges and acc > 0:
        if acc >= min_expected:
            edges.append((lo, kmax))
            expected.append(acc)
        else:
            lo_prev, _ = edges[-1]
            edges[-1] = (lo_prev, kmax)
            expected[-1] += acc
    elif acc > 0:
        edges.append((lo, kmax))
        expected.append(acc)
    return edges, expected


def poisson_gof(counts: Sequence[int], mean: float, level: float = 0.01,
                name: str = "poisson_gof", seed: int | None = None) -> TestReport:
    """Chi-square goodness of fit against Poisson(mean), tails pooled.

    Degrees of freedom = bins - 1: the mean is a fixed hypothesis, not
    estimated from the data.
    """
    xs = np.asarray(counts, dtype=np.int64)
    R = len(xs)
    if R < 1000:
        raise ValueError("need at least 1000 counts")
    kmax = int(xs.max())
    edges, expected = _pool_expected(mean, kmax, R)
    if len(edges) < 2:
        raise ValueError("histogram degenerate: fewer than two pooled bins")
    observed = []
    for i, (lo, hi) in enumerate(edges):
        if i == len(edges) - 1:
            observed.append(int((xs >= lo).sum()))
        else:
            observed.append(int(((xs >= lo) & (xs <= hi)).sum()))
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    df = len(edges) - 1
    p = float(chdtrc(df, stat))
    return TestReport(name, float(stat), p, level, seed, R,
                      target=float(mean), estimate=float(xs.mean()),
                      stderr=float(xs.std(ddof=1) / math.sqrt(R)))


def dispersion_index_test(counts: Sequence[int], level: float = 0.001,
                          alternative: str = "under",
                          name: str = "dispersion_index",
                          seed: int | None = None) -> TestReport:
    """Fisher index of dispersion: (R-1) s^2 / xbar against chi-square(R-1).

    alternative "under" rejects when counts are significantly less
    dispersed than Poisson, "over" the opposite, "two-sided" either.
    """
    xs = np.asarray(counts, dtype=np.float64)
    R = len(xs)
    mean = xs.mean()
    if mean == 0:
        raise ValueError("all counts zero: dispersion undefined")
    stat = float((R - 1) * xs.var(ddof=1) / mean)
    lo = float(chdtr(R - 1, stat))
    hi = float(chdtrc(R - 1, stat))
    if alternative == "under":
        p = lo
    elif alternative == "over":
        p = hi
    elif alternative == "two-sided":
        p = min(1.0, 2 * min(lo, hi))
    else:
        raise ValueError("alternative must be under, over, or two-sided")
    return TestReport(name, stat, p, level, seed, R,
                      target=1.0, estimate=stat / (R - 1),
                      stderr=math.sqrt(2.0 / (R - 1)))


def mixed_moment_factorization(joint_sampler, groupings: Sequence[Sequence[Window]],
                               R: int, rng: Rng, level: float = 0.01,
                               name: str = "mixed_moment_factorization") -> TestReport:
    """Joint mixed moment against the product of per-component moments.

    joint_sampler maps an Rng to a marked configuration, such as the
    components of a split as marks; grouping j supplies the windows
    multiplied within mark (component) j.  The difference joint - product is
    standardized by the delta method using the full empirical covariance of
    the per-replicate vector, so shared replicates are priced in.
    """
    k = len(groupings)
    if k == 0 or any(len(g) == 0 for g in groupings):
        raise ValueError("groupings must be nonempty")
    cols = [(j, w) for j, g in enumerate(groupings) for w in g]
    parts = _products(count_matrix(joint_sampler, cols, R, rng),
                      [len(g) for g in groupings])
    mat = np.column_stack([_products(parts, [k]), parts])
    means = mat.mean(axis=0)
    joint = float(means[0])
    marg = means[1:]
    product = float(np.prod(marg))
    if k == 1:
        return TestReport(name, 0.0, 1.0, level, rng.seed, R,
                          target=product, estimate=joint, stderr=0.0)
    grad = np.empty(k + 1)
    grad[0] = 1.0
    for j in range(k):
        others = np.prod(np.delete(marg, j))
        grad[j + 1] = -others
    S = np.cov(mat, rowvar=False)
    var = float(grad @ S @ grad) / R
    se = math.sqrt(max(var, 0.0))
    return z_test_report(name, joint, product, se, level, rng.seed, R)


@dataclass(frozen=True)
class CesaroFactorization:
    """Cesaro averages of shifted mixed moments plus the final z-test."""

    terms: tuple[float, ...]
    averages: tuple[float, ...]
    product: float
    report: TestReport


def cesaro_factorization(sampler, T: TransformHandle,
                         windows: Sequence[Window], K: Sequence[int],
                         L: int, R: int, rng: Rng, level: float = 0.01,
                         name: str = "cesaro_factorization") -> CesaroFactorization:
    """Averaged shift-decorrelation of a moment product.

    Term k is E[prod_{i in K} N(A_i) * prod_{i not in K} N(T^{-k} A_i)]; the
    running Cesaro average is compared at lag L against the product of the
    two unshifted group moments.  Shifted windows are computed exactly up
    front, so unreachable orbit images fail before any sampling.
    """
    n = len(windows)
    Kset = set(K)
    if not Kset <= set(range(n)):
        raise ValueError("K must be a set of window indices")
    if L < 1:
        raise ValueError("L must be at least 1")
    comp = [i for i in range(n) if i not in Kset]
    cols = [(None, windows[i]) for i in [*Kset, *comp]] + [
        (None, T.image_window(windows[i], -k))
        for k in range(1, L + 1) for i in comp]
    counted = count_matrix(sampler, cols, R, rng)
    base, rest = _products(counted, [len(Kset), len(comp)]).T
    m = len(comp)  # term k: base times the counts of comp shifted by k
    lagged = _products(np.column_stack(
        [col for k in range(L)
         for col in (base, counted[:, n + k * m:n + (k + 1) * m])]), [m + 1] * L)
    # per row: unshifted product (for the target), base, rest, then the terms
    mat = np.column_stack([base * rest, base, rest, lagged])
    means = mat.mean(axis=0)
    m_base, m_rest = float(means[1]), float(means[2])
    product = m_base * m_rest
    terms = tuple(float(v) for v in means[3:])
    averages = tuple(
        float(np.mean(terms[: ell + 1])) for ell in range(L)
    )
    # delta method on (final average, base moment, rest moment)
    avg_rows = mat[:, 3:].mean(axis=1)
    stack = np.column_stack([avg_rows, mat[:, 1], mat[:, 2]])
    S = np.cov(stack, rowvar=False)
    grad = np.array([1.0, -m_rest, -m_base])
    se = math.sqrt(max(float(grad @ S @ grad) / R, 0.0))
    report = z_test_report(name, averages[-1], product, se, level, rng.seed, R)
    return CesaroFactorization(terms, averages, product, report)


def variance_check(values: Sequence[float], target: float,
                   level: float = 0.01, name: str = "variance",
                   seed: int | None = None) -> TestReport:
    """Sample variance against an exact target.

    The standard error of s^2 uses the plug-in fourth central moment:
    sqrt((m4 - s^4) / R).
    """
    xs = np.asarray(values, dtype=np.float64)
    R = len(xs)
    if R < 100:
        raise ValueError("need at least 100 values")
    s2 = float(xs.var(ddof=1))
    centered = xs - xs.mean()
    m4 = float(np.mean(centered**4))
    se = math.sqrt(max(m4 - s2 * s2, 0.0) / R)
    return z_test_report(name, s2, target, se, level, seed, R)


def two_sample_count_test(xs: Sequence[int], ys: Sequence[int],
                          level: float = 0.001,
                          name: str = "two_sample_counts",
                          seed: int | None = None) -> TestReport:
    """Chi-square homogeneity of two count samples on pooled bins.

    Bins pool the combined histogram until each expected cell count is at
    least 5 in both rows under homogeneity.
    """
    a = np.asarray(xs, dtype=np.int64)
    b = np.asarray(ys, dtype=np.int64)
    kmax = int(max(a.max(), b.max()))
    freq = np.zeros((2, kmax + 1), dtype=np.float64)
    for row, data in ((0, a), (1, b)):
        vals, cnt = np.unique(data, return_counts=True)
        freq[row, vals] = cnt
    colsum = freq.sum(axis=0)
    total = colsum.sum()
    rowsum = freq.sum(axis=1)
    min_row = rowsum.min()
    # pooled bins: expected in the smaller row >= 5
    bins: list[list[int]] = []
    cur: list[int] = []
    acc = 0.0
    for kcol in range(kmax + 1):
        cur.append(kcol)
        acc += colsum[kcol] * min_row / total
        if acc >= 5.0:
            bins.append(cur)
            cur, acc = [], 0.0
    if cur:
        if bins:
            bins[-1].extend(cur)
        else:
            bins.append(cur)
    if len(bins) < 2:
        raise ValueError("histogram degenerate: fewer than two pooled bins")
    stat = 0.0
    for cols in bins:
        csum = float(colsum[cols].sum())
        for row in range(2):
            obs = float(freq[row, cols].sum())
            exp = csum * rowsum[row] / total
            stat += (obs - exp) ** 2 / exp
    df = len(bins) - 1
    p = float(chdtrc(df, stat))
    return TestReport(name, float(stat), p, level, seed,
                      int(len(a) + len(b)))


def correlation_check(xs: Sequence[float], ys: Sequence[float],
                      level: float = 0.0027,
                      name: str = "correlation",
                      seed: int | None = None) -> TestReport:
    """Pearson correlation z-test: r * sqrt(R) against standard normal.

    The default level 0.0027 makes rejection equivalent to |r| exceeding
    3 / sqrt(R).
    """
    a = np.asarray(xs, dtype=np.float64)
    b = np.asarray(ys, dtype=np.float64)
    R = len(a)
    if len(b) != R or R < 10:
        raise ValueError("need two equal-length samples of at least 10")
    if a.std() == 0 or b.std() == 0:
        raise ValueError("constant sample: correlation undefined")
    r = float(np.corrcoef(a, b)[0, 1])
    z = r * math.sqrt(R)
    p = float(2 * ndtr(-abs(z)))
    return TestReport(name, z, p, level, seed, R, target=0.0,
                      estimate=r, stderr=1.0 / math.sqrt(R))