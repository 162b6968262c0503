"""Partition combinatorics, moment estimation, decomposition, diagonal weight."""

from fractions import Fraction as F

import numpy as np
import pytest

from sushilab.moments import (
    DiagonalWeightResult,
    Partition,
    default_design,
    diagonal_weight,
    estimate_moment,
    fit_partition_decomposition,
    m_pi,
    partitions,
    replicate_matrix,
)
from sushilab.cluster import ClusterEntry, ClusterLaw, SushiSpec, sample_sushi
from sushilab.dynamics import Translation
from sushilab.point_process import PointConfig, Rng, sample_poisson
from sushilab.windows import EMPTY, IntensitySpec, Window, parse_window

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def poisson_sampler(alpha, window):
    spec = IntensitySpec(alpha)
    return lambda rng: sample_poisson(spec, window, rng)


class TestPartitions:
    def test_bell_counts(self):
        for n, bell in BELL.items():
            ps = partitions(n)
            assert len(ps) == bell
            assert len(set(ps)) == bell

    def test_range_guard(self):
        with pytest.raises(ValueError):
            partitions(0)
        with pytest.raises(ValueError):
            partitions(7)

    def test_canonical_block_order(self):
        for pi in partitions(4):
            mins = [b[0] for b in pi.blocks]
            assert mins == sorted(mins)
            for b in pi.blocks:
                assert list(b) == sorted(b)

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition([[1, 2], [2, 3]])
        with pytest.raises(ValueError):
            Partition([[1], [3]])
        assert str(Partition([[2, 1], [3]])) == "1,2|3"


class TestPartitionMeasure:
    def test_spec_examples(self):
        A1, A2 = parse_window("[0,1)"), parse_window("[0,2)")
        assert m_pi(Partition([[1], [2]]), [A1, A2]) == 2
        assert m_pi(Partition([[1, 2]]), [A1, parse_window("[1,2)")]) == 0
        assert m_pi(Partition([[1, 2], [3]]), [A1, A1, A2]) == 2

    def test_diagonal_single_block_is_mass(self):
        A = parse_window("[1/3,7/2)")
        for n in (1, 2, 3, 4):
            pi = Partition([list(range(1, n + 1))])
            assert m_pi(pi, [A] * n) == A.length
            assert m_pi(pi, [A] * n, IntensitySpec(F(2, 3))) == F(2, 3) * A.length

    def test_alpha_scaling_per_block(self):
        A = parse_window("[0,1)")
        pi = Partition([[1], [2]])
        assert m_pi(pi, [A, A], IntensitySpec(2)) == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            m_pi(Partition([[1, 2]]), [parse_window("[0,1)")])


class TestEstimateMoment:
    def test_intensity(self):
        est = estimate_moment(
            poisson_sampler(1, parse_window("[0,10)")),
            [parse_window("[0,10)")], 2000, Rng(20260823, 11),
        )
        assert abs(est.value - 10) < 4 * est.stderr
        assert est.replicates == 2000

    def test_second_moment(self):
        A = parse_window("[0,2)")
        est = estimate_moment(
            poisson_sampler(1, A), [A, A], 3000, Rng(20260823, 12)
        )
        assert abs(est.value - 6) < 4 * est.stderr

    def test_empty_window_exact_zero(self):
        est = estimate_moment(
            poisson_sampler(1, parse_window("[0,4)")),
            [parse_window("[0,2)"), EMPTY], 200, Rng(3, 3),
        )
        assert est.value == 0 and est.stderr == 0

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            estimate_moment(
                poisson_sampler(1, parse_window("[0,1)")),
                [parse_window("[0,1)")], 99, Rng(1, 1),
            )

    def test_permutation_symmetry_matched_seeds(self):
        A, B = parse_window("[0,2)"), parse_window("[1,4)")
        sampler = poisson_sampler(F(1, 2), parse_window("[0,4)"))
        e1 = estimate_moment(sampler, [A, B], 500, Rng(77, 1))
        e2 = estimate_moment(sampler, [B, A], 500, Rng(77, 1))
        assert e1.value == e2.value and e1.stderr == e2.stderr

    def test_thread_count_invariance(self):
        A = parse_window("[0,3)")
        sampler = poisson_sampler(1, A)

        def evaluate(c):
            return [float(len(c.points)), float(len(c.points)) ** 2]

        m1 = replicate_matrix(sampler, evaluate, 2, 400, Rng(5, 5), threads=1)
        m4 = replicate_matrix(sampler, evaluate, 2, 400, Rng(5, 5), threads=4)
        assert np.array_equal(m1, m4)


class TestDecomposition:
    def test_design_matrix_n3_is_unit_triangular(self):
        basis = partitions(3)
        rows = [
            [m_pi(pi, tup) for pi in basis] for tup in default_design(3)
        ]
        expect = [
            [1, 1, 1, 1, 1],
            [0, 1, 0, 0, 1],
            [0, 0, 1, 0, 1],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
        ]
        assert rows == [[F(v) for v in row] for row in expect]

    def test_rank_deficiency_names_partitions(self):
        A = parse_window("[0,1)")
        with pytest.raises(ValueError, match=r"1\|2"):
            fit_partition_decomposition(
                poisson_sampler(1, A), 2, [[A, A], [A, A]], 200, Rng(1, 1)
            )

    def test_exact_recovery_from_deterministic_data(self):
        # one fixed realization: one point in A, one in B; the fit then
        # solves the triangular system exactly: coefficients (0, 1)
        W = parse_window("[0,2)")
        config = PointConfig((F(1, 4), F(3, 2)), W)
        fit = fit_partition_decomposition(
            lambda rng: config, 2, default_design(2), 200, Rng(9, 9)
        )
        single, split = partitions(2)
        assert fit[single] == pytest.approx(0.0, abs=1e-12)
        assert fit[split] == pytest.approx(1.0, abs=1e-12)
        assert fit.stderrs[single] == pytest.approx(0.0, abs=1e-12)
        assert all(abs(z) < 1e-9 for z in fit.residual_z)

    def test_poisson_n2_recovers_alpha_powers(self):
        alpha = F(1, 2)
        sampler = poisson_sampler(alpha, parse_window("[0,2)"))
        fit = fit_partition_decomposition(
            sampler, 2, default_design(2), 20000, Rng(20260823, 21)
        )
        single, split = partitions(2)
        assert abs(fit[single] - 0.5) < 3 * fit.stderrs[single]
        assert abs(fit[split] - 0.25) < 3 * fit.stderrs[split]

    def test_mapping_interface(self):
        sampler = poisson_sampler(1, parse_window("[0,2)"))
        fit = fit_partition_decomposition(
            sampler, 2, default_design(2), 300, Rng(2, 2)
        )
        assert set(fit) == set(partitions(2))
        assert len(fit) == 2


class TestDiagonalWeight:
    def test_poisson_n2(self):
        A = parse_window("[0,1)")
        res = diagonal_weight(
            poisson_sampler(1, A), A, n=2, depth=6, R=4000,
            rng=Rng(20260823, 31),
        )
        assert abs(res.value - 1) < 4 * res.stderr
        # depth 0 carries the full second moment mu + mu^2 = 2
        assert res.estimates[0] > res.value + 0.5

    def test_single_atom_stays_one(self):
        A = parse_window("[0,1)")
        config = PointConfig((F(0),), A)
        res = diagonal_weight(lambda rng: config, A, n=3, depth=5, R=200,
                              rng=Rng(1, 1))
        assert all(v == 1.0 for v in res.estimates)
        assert all(s == 0.0 for s in res.stderrs)

    def test_multipart_window(self):
        A = parse_window("[0,1/2)+[1,3/2)")
        res = diagonal_weight(
            poisson_sampler(1, A), A, n=2, depth=5, R=4000,
            rng=Rng(20260823, 32),
        )
        assert abs(res.value - 1) < 4 * res.stderr

    def test_depth_guard(self):
        A = parse_window("[0,1)")
        with pytest.raises(ValueError):
            diagonal_weight(poisson_sampler(1, A), A, 2, 13, 200, Rng(1, 1))

    def test_matches_point_by_point_refinement(self):
        # the per-point reference: each point's cell index from its offset
        # into A, exact Fraction masses per cell, coarsened pairwise
        def reference(sampler, A, n, depth, R, rng):
            parts, base = [], F(0)
            for p in A.parts:
                parts.append((p, base))
                base += p.length
            ncells = 1 << depth

            def evaluate(config):
                level = {}
                for x, w in config.atoms:
                    for p, b in parts:
                        if x in p:
                            k = int((b + x - p.lo) * ncells / A.length)
                            level[k] = level.get(k, F(0)) + w
                row = []
                for d in range(depth, -1, -1):
                    row.append(sum(float(m) ** n for m in level.values()))
                    coarser = {}
                    for k, m in level.items():
                        coarser[k >> 1] = coarser.get(k >> 1, F(0)) + m
                    level = coarser
                return row[::-1]

            mat = replicate_matrix(sampler, evaluate, depth + 1, R, rng)
            return tuple(mat.mean(axis=0)), tuple(mat.std(axis=0, ddof=1))

        W = parse_window("[0,2)+[5/2,4)")
        A = parse_window("[1/3,2)+[5/2,7/2)")
        law = ClusterLaw([ClusterEntry({0: F(1, 3), 1: F(2, 7)}, 1)])
        samplers = [poisson_sampler(3, W),
                    lambda rng: sample_sushi(SushiSpec(2, law, Translation(F(1, 5))),
                                             W, rng)]
        for sampler in samplers:
            for n, depth in ((2, 4), (3, 6)):
                res = diagonal_weight(sampler, A, n, depth, 100, Rng(9, depth))
                means, sds = reference(sampler, A, n, depth, 100, Rng(9, depth))
                assert res.estimates == means
                assert res.stderrs == tuple(s / np.sqrt(100) for s in sds)
