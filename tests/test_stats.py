"""Test battery internals: reports, GOF, dispersion, factorization checks."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from sushilab import stats
from sushilab.dynamics import RankOneMachine, Translation, chacon3_recipe
from sushilab.point_process import PointConfig, Rng, count_replicates, sample_poisson
from sushilab.split_mark import attach_marks
from sushilab.stats import (
    TestReport as Report,
)
from sushilab.stats import (
    cesaro_factorization,
    correlation_check,
    covariance_check,
    dispersion_index_test,
    mixed_moment_factorization,
    poisson_gof,
    two_sample_count_test,
    z_test_report,
)
from sushilab.windows import EMPTY, IntensitySpec, Window, parse_window

UNIT = IntensitySpec(1)


def poisson_sampler(alpha, window):
    spec = IntensitySpec(alpha)
    return lambda rng: sample_poisson(spec, window, rng)


def poisson_counts(mean_window, rng, R, alpha=1):
    return count_replicates(IntensitySpec(alpha), [mean_window], rng, R)[:, 0]


class TestReportType:
    def test_decision_tracks_level(self):
        r = Report("t", 1.0, 0.005, 0.01, 1, 100)
        assert r.decision == "reject"
        r = Report("t", 1.0, 0.02, 0.01, 1, 100)
        assert r.decision == "pass"

    def test_p_value_range(self):
        with pytest.raises(ValueError):
            Report("t", 0.0, 1.5, 0.01, 1, 100)

    def test_to_dict_schema(self):
        r = z_test_report("z", 1.0, 1.0, 0.1, 0.01, 7, 500)
        d = r.to_dict()
        assert set(d) == {
            "name", "target", "estimate", "stderr", "statistic",
            "p_value", "decision", "level", "seed", "R",
        }

    def test_zero_stderr_paths(self):
        assert z_test_report("z", 2.0, 2.0, 0.0, 0.01, 1, 10).decision == "pass"
        assert z_test_report("z", 2.0, 1.0, 0.0, 0.01, 1, 10).decision == "reject"


class TestCovariance:
    def test_fixture_pairs(self):
        cases = [
            ("[0,1)", "[2,3)", 0),
            ("[0,3)", "[0,3)", 3),
            ("[0,2)", "[1,3)", 1),
        ]
        sampler = poisson_sampler(1, parse_window("[0,3)"))
        for i, (a, b, target) in enumerate(cases):
            rep = covariance_check(
                sampler, parse_window(a), parse_window(b), UNIT,
                4000, Rng(20260823, 40 + i),
            )
            assert rep.target == target
            assert rep.decision == "pass"
            assert abs(rep.estimate - target) < 4 * rep.stderr


class TestPoissonGof:
    def test_calibration_lite(self):
        window = parse_window("[0,10)")
        rejections = 0
        for s in range(30):
            counts = poisson_counts(window, Rng(20260823, 100 + s), 2000)
            rep = poisson_gof(counts, 10.0, seed=s)
            rejections += rep.decision == "reject"
        assert rejections <= 1

    def test_constant_counts_reject(self):
        rep = poisson_gof([10] * 2000, 10.0)
        assert rep.decision == "reject"

    def test_minimum_sample(self):
        with pytest.raises(ValueError):
            poisson_gof([10] * 999, 10.0)

    def test_degenerate_histogram(self):
        with pytest.raises(ValueError, match="degenerate"):
            poisson_gof([0] * 1000, 1e-9)


class TestDispersion:
    def test_under_dispersed_rejects(self):
        xs = np.tile([10, 10, 10, 11, 9], 400)  # variance far below mean
        rep = dispersion_index_test(xs, alternative="under")
        assert rep.decision == "reject"
        assert dispersion_index_test(xs, alternative="over").decision == "pass"

    def test_over_dispersed_rejects(self):
        xs = np.tile([5, 15], 1000)
        assert dispersion_index_test(xs, alternative="over").decision == "reject"
        assert dispersion_index_test(xs, alternative="under").decision == "pass"

    def test_poisson_passes_two_sided(self):
        xs = poisson_counts(parse_window("[0,10)"), Rng(20260823, 200), 2000)
        rep = dispersion_index_test(xs, level=0.001, alternative="two-sided")
        assert rep.decision == "pass"

    def test_guards(self):
        with pytest.raises(ValueError):
            dispersion_index_test([0, 0, 0])
        with pytest.raises(ValueError):
            dispersion_index_test([1, 2], alternative="sideways")


class TestMixedMoment:
    def test_split_components_factorize(self):
        W = parse_window("[0,10)")

        def joint(rng):
            ground = sample_poisson(UNIT, W, rng)
            return attach_marks(ground, [F(1, 2), F(1, 2)], rng)

        rep = mixed_moment_factorization(
            joint, [[W], [W]], 3000, Rng(20260823, 50)
        )
        assert rep.decision == "pass"

    def test_duplicated_component_rejects(self):
        W = parse_window("[0,10)")

        def joint(rng):
            # mark 1 duplicates mark 0, shifted by 10 onto [10,20)
            c = sample_poisson(UNIT, W, rng)
            return PointConfig(c.points + tuple(p + 10 for p in c.points),
                               parse_window("[0,20)"),
                               [0] * len(c) + [1] * len(c), 2)

        rep = mixed_moment_factorization(
            joint, [[W], [parse_window("[10,20)")]], 3000, Rng(20260823, 51)
        )
        assert rep.decision == "reject"

    def test_single_group_trivial(self):
        W = parse_window("[0,5)")
        rep = mixed_moment_factorization(
            lambda rng: attach_marks(sample_poisson(UNIT, W, rng), [1], rng),
            [[W]],
            500, Rng(1, 1),
        )
        assert rep.statistic == 0.0 and rep.p_value == 1.0

    def test_empty_grouping_guard(self):
        with pytest.raises(ValueError):
            mixed_moment_factorization(lambda rng: (), [], 100, Rng(1, 1))


class TestCesaro:
    def test_poisson_translation_unit(self):
        A = parse_window("[0,1)")
        core = parse_window("[-17,1)")
        res = cesaro_factorization(
            poisson_sampler(1, core), Translation(1), [A, A], [0],
            L=16, R=3000, rng=Rng(20260823, 60),
        )
        assert res.product == pytest.approx(1.0, abs=0.1)
        assert res.report.decision == "pass"

    def test_empty_window_identically_zero(self):
        core = parse_window("[-9,2)")
        res = cesaro_factorization(
            poisson_sampler(1, core), Translation(1),
            [parse_window("[0,2)"), EMPTY], [0],
            L=8, R=500, rng=Rng(2, 2),
        )
        assert all(t == 0.0 for t in res.terms)
        assert res.report.statistic == 0.0

    def test_early_diagonal_excess(self):
        A = parse_window("[0,2)")
        core = parse_window("[-18,2)")
        res = cesaro_factorization(
            poisson_sampler(1, core), Translation(1), [A, A], [0],
            L=16, R=4000, rng=Rng(20260823, 61),
        )
        # k=1 term carries the overlap mu(A ∩ T^{-1}A) = 1 above the product 4
        assert res.terms[0] > res.product + 0.5
        assert res.report.decision == "pass"

    def test_machine_shifts(self):
        m = RankOneMachine(chacon3_recipe())
        A = parse_window("[97/200,1/2)")
        core = A
        for k in range(1, 9):
            core = core.union(m.image_window(A, -k))
        res = cesaro_factorization(
            poisson_sampler(1, core), m, [A, A], [0],
            L=8, R=2000, rng=Rng(20260823, 62),
        )
        assert res.report.decision == "pass"


class TestTwoSample:
    def test_same_law_passes(self):
        W = parse_window("[0,7)")
        a = poisson_counts(W, Rng(20260823, 70), 5000)
        b = poisson_counts(W, Rng(20260823, 71), 5000)
        assert two_sample_count_test(a, b).decision == "pass"

    def test_different_rates_reject(self):
        a = poisson_counts(parse_window("[0,7)"), Rng(20260823, 72), 5000)
        b = poisson_counts(parse_window("[0,9)"), Rng(20260823, 73), 5000)
        assert two_sample_count_test(a, b).decision == "reject"


class TestCorrelation:
    def test_independent_passes(self):
        a = poisson_counts(parse_window("[0,5)"), Rng(20260823, 80), 4000)
        b = poisson_counts(parse_window("[0,5)"), Rng(20260823, 81), 4000)
        rep = correlation_check(a, b)
        assert rep.decision == "pass"
        assert abs(rep.estimate) <= 3 / np.sqrt(4000)

    def test_identical_rejects(self):
        a = poisson_counts(parse_window("[0,5)"), Rng(20260823, 82), 4000)
        assert correlation_check(a, a).decision == "reject"

    def test_constant_guard(self):
        with pytest.raises(ValueError):
            correlation_check([1] * 100, list(range(100)))


# the scipy.stats calls that the chi-square checks made, taking the
# arguments of the scipy.special ufuncs that replaced them
SCIPY_STATS = {
    "chdtrc": lambda df, x: sps.chi2.sf(x, df),
    "_poisson_pmf": lambda k, mean: float(sps.poisson.pmf(k, mean)),
}


def _outcome(check):
    try:
        return check().to_dict()
    except ValueError as err:
        return str(err)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1000, 2500),
       st.floats(0.5, 40), st.floats(0.8, 1.25), st.integers(0, 2),
       st.floats(-50, 50), st.floats(-50, 50), st.floats(1, 50))
def test_p_values_equal_scipy_stats(seed, R, mean, ratio, coupling,
                                    estimate, target, stderr):
    gen = np.random.default_rng(seed)
    a = gen.poisson(mean, R)
    b = gen.poisson(mean * ratio, R) + coupling * a
    for rep in (z_test_report("z", estimate, target, stderr, 0.01, seed, R),
                correlation_check(a, b)):
        assert rep.p_value == float(2 * sps.norm.sf(abs(rep.statistic)))
    pooled = np.concatenate([a, b])
    for alt in ("under", "over", "two-sided"):
        rep = dispersion_index_test(pooled, alternative=alt)
        lo = float(sps.chi2.cdf(rep.statistic, 2 * R - 1))
        hi = float(sps.chi2.sf(rep.statistic, 2 * R - 1))
        assert rep.p_value == {"under": lo, "over": hi,
                               "two-sided": min(1.0, 2 * min(lo, hi))}[alt]
    # degrees of freedom and Poisson bins stay inside these two checks:
    # run them again with the scipy.stats calls in place of the ufuncs
    checks = [lambda: poisson_gof(a, mean * ratio),
              lambda: two_sample_count_test(a, b)]
    got = [_outcome(check) for check in checks]
    with mock.patch.multiple(stats, **SCIPY_STATS):
        assert got == [_outcome(check) for check in checks]


def test_import_leaves_scipy_stats_unloaded():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sushilab, sushilab.cli; "
         "print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
