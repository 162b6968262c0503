"""Cluster measures: samplers, weight ops, orbit coding, closed-form moments."""

import warnings
from fractions import Fraction as F

import pytest

from sushilab.cluster import (
    ClusterEntry,
    ClusterLaw,
    EncodedCluster,
    SushiSpec,
    phi_decode,
    phi_encode,
    sample_id_measure,
    sample_sushi,
    simplify,
    sushi_mean,
    sushi_variance,
    truncate_weights,
    unit_intensity_c,
)
from sushilab.dynamics import RankOneMachine, Translation, chacon3_recipe
from sushilab.point_process import (
    PointConfig,
    Rng,
    count,
    push_forward,
    sample_poisson,
)
from sushilab.windows import IntensitySpec, Window, parse_window

T1 = Translation(1)
PAIR_LAW = ClusterLaw([ClusterEntry({0: 1, 1: 1}, 1)])
POINT_LAW = ClusterLaw([ClusterEntry({0: 1}, 1)])
MIXED_LAW = ClusterLaw([
    ClusterEntry({0: 2}, F(1, 2)),
    ClusterEntry({0: 1, 1: 1}, F(1, 2)),
])


def chacon_level_core(lo_idx=2, hi_idx=10):
    """Fresh machine and a core made of consecutive orbit-order levels."""
    m = RankOneMachine(chacon3_recipe())
    m.grow_to(2)
    _, _, levels = m.tower
    return m, Window(levels[lo_idx : hi_idx + 1])


def drain_warnings():
    return warnings.catch_warnings()


class TestTypes:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            ClusterEntry({}, 1)
        with pytest.raises(ValueError):
            ClusterEntry({0: 0}, 1)
        with pytest.raises(ValueError):
            ClusterEntry({0: -1}, 1)
        with pytest.raises(ValueError):
            ClusterEntry({0: 1}, -1)
        e = ClusterEntry({3: F(1, 2), -2: 1}, F(1, 3))
        assert e.total_weight == F(3, 2)
        assert e.reach == 3

    def test_law_validation(self):
        with pytest.raises(ValueError):
            ClusterLaw([])
        with pytest.raises(ValueError):
            ClusterLaw([ClusterEntry({0: 1}, F(1, 2))])
        assert MIXED_LAW.reach == 1
        assert MIXED_LAW.mean_total_weight == 2

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SushiSpec(0, PAIR_LAW, T1)

    def test_encoded_cluster_origin_rules(self):
        EncodedCluster(0, {0: 2, 1: 1})
        EncodedCluster(0, {0: 1, 1: 1})       # later tie allowed
        EncodedCluster(0, {-1: 1, 0: 2})      # strictly dominated earlier
        with pytest.raises(ValueError):
            EncodedCluster(0, {1: 1})         # no weight at 0
        with pytest.raises(ValueError):
            EncodedCluster(0, {0: 1, -1: 1})  # earlier tie forbidden
        with pytest.raises(ValueError):
            EncodedCluster(0, {0: 1, 2: 2})   # later point heavier


class TestClosedForms:
    def test_unit_intensity(self):
        assert unit_intensity_c(POINT_LAW) == 1
        assert unit_intensity_c(PAIR_LAW) == F(1, 2)
        law = ClusterLaw([
            ClusterEntry({0: 2}, F(1, 2)),
            ClusterEntry({0: 1, 1: 3}, F(1, 2)),
        ])
        assert unit_intensity_c(law) == F(1, 3)

    def test_mean_and_variance_translation(self):
        spec = SushiSpec(F(1, 2), PAIR_LAW, T1)
        A = parse_window("[0,2)")
        assert sushi_mean(spec, A) == 2
        # overlaps: d=0 gives 2, d=+-1 gives 1 each; c*(2+1+1+2) = 3
        assert sushi_variance(spec, A) == 3

    def test_variance_mixed_law(self):
        spec = SushiSpec(1, MIXED_LAW, T1)
        A = parse_window("[0,1)")
        assert sushi_mean(spec, A) == 2
        # entry {0:2}: 4*1; entry {0:1,1:1}: 1+0+0+1; halves sum to 3
        assert sushi_variance(spec, A) == 3

    def test_variance_degenerate_on_machine(self):
        m, core = chacon_level_core()
        spec = SushiSpec(F(3, 2), ClusterLaw([ClusterEntry({0: 2}, 1)]), m)
        assert sushi_variance(spec, core) == F(3, 2) * 4 * core.length


class TestSamplers:
    def test_degenerate_law_is_poisson_sharing_the_stream(self):
        core = parse_window("[0,10)")
        spec = SushiSpec(1, POINT_LAW, T1)
        v = sample_sushi(spec, core, Rng(5, 9))
        p = sample_poisson(IntensitySpec(1), core, Rng(5, 9))
        assert tuple(q for q, _ in v.atoms) == p.points
        assert all(w == 1 for _, w in v.atoms)

    def test_id_route_degenerate_matches_poisson(self):
        core = parse_window("[0,10)")
        v = sample_id_measure(SushiSpec(1, POINT_LAW, T1), core, Rng(5, 9))
        p = sample_poisson(IntensitySpec(1), core, Rng(5, 9))
        assert tuple(q for q, _ in v.atoms) == p.points

    def test_sushi_draw_order_reconstruction(self):
        core = parse_window("[0,6)")
        spec = SushiSpec(F(1, 2), PAIR_LAW, T1)
        v = sample_sushi(spec, core, Rng(11, 3))

        rng = Rng(11, 3)
        buffer = parse_window("[-1,6)")
        ground = sample_poisson(IntensitySpec(F(1, 2)), buffer, rng)
        for _ in ground.points:
            rng.random()  # entry choice, forced here but still drawn
        acc = {}
        for g in ground.points:
            for pos in (g, g + 1):
                if pos in core:
                    acc[pos] = acc.get(pos, F(0)) + 1
        assert v == PointConfig(sorted(acc), core, weights=[acc[p] for p in sorted(acc)])

    @pytest.mark.parametrize("probs", [
        [F(1, 3), F(2, 3)],
        [0, F(1, 2), F(1, 2)],
        [F(1, 7), 0, F(2, 7), F(4, 7)],
        # cumulative probabilities a hair off a float, either side
        [F(1, 2) + F(1, 2**60), F(1, 2) - F(1, 2**60)],
        [F(1, 2) - F(1, 2**60), F(1, 2) + F(1, 2**60)],
    ])
    def test_sushi_entry_choice_matches_the_scalar_scan(self, probs):
        # entry i is the first whose cumulative probability exceeds a single
        # uniform, compared exactly; the stream ends where the scan's ends
        law = ClusterLaw([ClusterEntry({k: k + 1}, p) for k, p in enumerate(probs)])
        spec = SushiSpec(F(3), law, T1)
        core = parse_window("[0,6)")
        cum = [sum(probs[:i + 1], F(0)) for i in range(len(probs))]
        for seed in range(40):
            rng, ref = Rng(seed, 1), Rng(seed, 1)
            v = sample_sushi(spec, core, rng)
            ground = sample_poisson(IntensitySpec(3), parse_window(
                f"[{1 - len(probs)},6)"), ref)
            acc = {}
            for g in ground.points:
                u = ref.random()
                i = next(i for i, q in enumerate(cum) if u < q or i == len(cum) - 1)
                if g + i in core:
                    acc[g + i] = acc.get(g + i, F(0)) + i + 1
            assert v == PointConfig(sorted(acc), core, weights=[acc[p] for p in sorted(acc)])
            assert rng.random() == ref.random()

    def test_sushi_on_machine_lands_in_core(self):
        m, core = chacon_level_core()
        spec = SushiSpec(9, PAIR_LAW, m)
        v = sample_sushi(spec, core, Rng(4, 1))
        assert len(v.atoms) > 0
        assert all(p in core and w > 0 for p, w in v.atoms)
        assert v == sample_sushi(spec, core, Rng(4, 1))

    def test_empirical_mean_both_routes(self):
        core = parse_window("[0,5)")
        spec = SushiSpec(F(1, 2), MIXED_LAW, T1)
        mean = float(sushi_mean(spec, core))            # 5
        var = float(sushi_variance(spec, core))         # c * catalog sum
        reps = 600
        for draw, base in ((lambda r: sample_sushi(spec, core, r), 100),
                           (lambda r: sample_id_measure(spec, core, r), 200)):
            tot = 0.0
            for r in range(reps):
                tot += float(count(draw(Rng(20260823, base + r)), core))
            se = (var / reps) ** 0.5
            assert abs(tot / reps - mean) < 3 * se


class TestWeightOps:
    def test_truncate(self):
        v = PointConfig((F(0), F(1)), parse_window("[0,2)"), weights=(F(1, 10), F(2)))
        assert truncate_weights(v, F(1, 100)) == v
        assert truncate_weights(v, 1).atoms == ((F(1), F(2)),)
        # exact tie survives: removal is strict
        assert truncate_weights(v, F(1, 10)) == v
        with pytest.raises(ValueError):
            truncate_weights(v, 0)

    def test_truncate_monotone_in_eps(self):
        rng = Rng(9, 9)
        pts = sample_poisson(IntensitySpec(2), parse_window("[0,8)"), rng)
        v = PointConfig(pts.points, pts.window,
                        weights=[F(i % 5 + 1, 3) for i in range(len(pts))])
        eps_grid = [F(1, 3), F(2, 3), F(4, 3), F(5, 3), F(2)]
        kept = [set(p for p, _ in truncate_weights(v, e).atoms) for e in eps_grid]
        for small, big in zip(kept, kept[1:]):
            assert big <= small

    def test_simplify(self):
        v = PointConfig((F(0), F(1)), parse_window("[0,2)"), weights=(F(2), F(1)))
        assert simplify(v) == PointConfig((F(0), F(1)), v.window)
        empty = PointConfig((), parse_window("[0,2)"), weights=())
        assert simplify(empty).points == ()

    def test_truncated_count_bound(self):
        rng = Rng(31, 2)
        pts = sample_poisson(IntensitySpec(3), parse_window("[0,10)"), rng)
        v = PointConfig(pts.points, pts.window,
                        weights=[F(i % 7 + 1, 4) for i in range(len(pts))])
        total = sum((w for _, w in v.atoms), F(0))
        for eps in (F(1, 4), F(1, 2), F(3, 2)):
            n = len(simplify(truncate_weights(v, eps)))
            assert n <= total / eps


class TestCoding:
    def test_encode_basic(self):
        w = parse_window("[-5,7)")
        v = PointConfig((F(0), F(1)), w, weights=(F(2), F(1)))
        enc = phi_encode(v, T1, K_max=2)
        assert enc == [EncodedCluster(0, {0: 2, 1: 1})]

    def test_encode_tie_picks_earliest(self):
        w = parse_window("[-5,7)")
        v = PointConfig((F(0), F(1)), w, weights=(F(1), F(1)))
        assert phi_encode(v, T1, K_max=2) == [EncodedCluster(0, {0: 1, 1: 1})]

    def test_encode_origin_is_maximal_weight(self):
        w = parse_window("[-5,7)")
        v = PointConfig((F(0), F(1)), w, weights=(F(1), F(5)))
        assert phi_encode(v, T1, K_max=2) == [EncodedCluster(1, {-1: 1, 0: 5})]

    def test_encode_boundary_drop_warns_and_counts(self):
        w = parse_window("[0,10)")
        v = PointConfig((F(1, 2), F(5)), w, weights=(F(1), F(1)))
        with pytest.warns(UserWarning, match="dropped 1"):
            enc = phi_encode(v, T1, K_max=2)
        assert enc == [EncodedCluster(5, {0: 1})]

    def test_encode_machine_tie_uses_orbit_order(self):
        m, core = chacon_level_core()
        x = m.tower[2][5].lo + F(1, 100)
        y = m.apply(x, 1)
        v = PointConfig(sorted([x, y]), core, weights=(F(1), F(1)))
        enc = phi_encode(v, m, K_max=2)
        assert enc == [EncodedCluster(x, {0: 1, 1: 1})]

    def test_decode_basic(self):
        out = phi_decode([EncodedCluster(0, {0: 2, 1: 1})], T1)
        assert out.atoms == ((F(0), F(2)), (F(1), F(1)))
        assert phi_decode([], T1).atoms == ()

    def test_decode_collision(self):
        enc = [EncodedCluster(0, {0: 2}), EncodedCluster(-1, {0: 1, 1: 1})]
        with pytest.raises(ValueError, match="collision"):
            phi_decode(enc, T1)

    def test_round_trip_translation(self):
        core = parse_window("[0,12)")
        spec = SushiSpec(F(1, 2), PAIR_LAW, T1)
        seen_nonempty = 0
        for s in range(60):
            v = sample_sushi(spec, core, Rng(700 + s, 1))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                enc = phi_encode(v, T1, K_max=2)
            v2 = phi_decode(enc, T1, window=core)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                enc2 = phi_encode(v2, T1, K_max=2)
            assert not caught          # survivors never touch the boundary
            assert enc2 == enc
            assert phi_decode(enc2, T1, window=core) == v2
            seen_nonempty += bool(enc)
        assert seen_nonempty > 30

    def test_round_trip_machine(self):
        m, core = chacon_level_core()
        spec = SushiSpec(9, PAIR_LAW, m)
        seen_nonempty = 0
        for s in range(40):
            v = sample_sushi(spec, core, Rng(900 + s, 2))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                enc = phi_encode(v, m, K_max=2)
            v2 = phi_decode(enc, m, window=core)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                enc2 = phi_encode(v2, m, K_max=2)
            assert not caught
            assert enc2 == enc
            assert phi_decode(enc2, m, window=core) == v2
            seen_nonempty += bool(enc)
        assert seen_nonempty > 10


class TestEquivariance:
    def test_translation_matched_seed(self):
        spec = SushiSpec(F(1, 2), MIXED_LAW, T1)
        core = parse_window("[0,9)")
        for s in range(30):
            for k in (1, -2):
                a = sample_sushi(spec, core, Rng(40 + s, 6))
                b = sample_sushi(spec, core.translate(k), Rng(40 + s, 6))
                assert push_forward(a, T1, k) == b

    def test_machine_clusters_commute_with_power(self):
        m, core = chacon_level_core()
        spec = SushiSpec(9, PAIR_LAW, m)
        for s in range(12):
            v = sample_sushi(spec, core, Rng(60 + s, 4))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                enc = phi_encode(v, m, K_max=2)
            base = phi_decode(enc, m, window=core)
            for k in (1, -1):
                shifted = [
                    EncodedCluster(m.apply(e.origin, k), dict(e.weights))
                    for e in enc
                ]
                img = m.image_window(core, k)
                assert phi_decode(shifted, m, window=img) == push_forward(base, m, k)
