"""Sampling layer: seeded streams, Poisson configs, push-forward algebra."""

import io
import re
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import stats

from sushilab.dynamics import RankOneMachine, Translation, chacon3_recipe
from sushilab.point_process import (
    PointConfig,
    Rng,
    count,
    count_replicates,
    dissociation_check,
    dump_csv,
    free_check,
    poisson_cdf_table,
    push_forward,
    sample_poisson,
    superpose,
)
from sushilab.windows import EMPTY, IntensitySpec, parse_window


def test_rng_reproducible_and_streams_differ():
    a = Rng(7, 3).random_block(8)
    b = Rng(7, 3).random_block(8)
    assert np.array_equal(a, b)
    c = Rng(7, 4).random_block(8)
    assert not np.array_equal(a, c)
    d = Rng(8, 3).random_block(8)
    assert not np.array_equal(a, d)


def test_rng_children_distinct_and_stable():
    r = Rng(123, 0)
    ids = {r.child(i).stream_id for i in range(100)}
    assert len(ids) == 100
    assert r.child(5).stream_id == Rng(123, 0).child(5).stream_id
    # child draws are unrelated to parent draws
    assert r.child(0).random() != Rng(123, 0).random()


def test_poisson_cdf_table_against_scipy():
    for lam in (0.0, 0.3, 1.0, 10.0, 50.0):
        table = poisson_cdf_table(lam)
        ref = stats.poisson.cdf(np.arange(len(table)), lam)
        assert np.allclose(table, ref, atol=1e-12)
        assert table[-1] > 1 - 1e-12
    with pytest.raises(ValueError):
        poisson_cdf_table(-1.0)
    with pytest.raises(ValueError):
        poisson_cdf_table(701.0)


def test_scalar_inversion_matches_table_lookup():
    table = poisson_cdf_table(4.0)
    for u in (0.0, 1e-17, 0.3, float(table[2]), np.nextafter(table[2], 0), 0.999999999):
        n = int(np.searchsorted(table, u, side="left"))
        # searchsorted left: first index with table[idx] >= u
        assert (n == 0 or table[n - 1] < u) and table[n] >= u


def test_sample_poisson_shape_and_determinism():
    w = parse_window("[0,10)")
    spec = IntensitySpec(1)
    c1 = sample_poisson(spec, w, Rng(42, 1))
    c2 = sample_poisson(spec, w, Rng(42, 1))
    assert c1 == c2
    assert all(p in w for p in c1.points)
    assert list(c1.points) == sorted(set(c1.points))
    # dyadic snap: denominators divide 2**53 after scaling by part length
    for p in c1.points:
        assert ((p - 0) * (1 << 53) / 10).denominator == 1 or p.denominator <= 1 << 53
    c3 = sample_poisson(spec, w, Rng(42, 2))
    assert c3 != c1


def test_sample_poisson_empty_cases():
    assert sample_poisson(IntensitySpec(1), EMPTY, Rng(1)).points == ()
    assert sample_poisson(IntensitySpec(0), parse_window("[0,10)"), Rng(1)).points == ()


def test_sample_poisson_multipart_window():
    w = parse_window("[0,2)+[5,9)")
    c = sample_poisson(IntensitySpec(2), w, Rng(9, 0))
    assert all(p in w for p in c.points)
    assert count(c, parse_window("[0,2)")) + count(c, parse_window("[5,9)")) == len(c)


def test_count_replicates_matches_scalar_stream():
    spec = IntensitySpec(F(1, 2))
    cells = [parse_window("[0,1)"), parse_window("[2,3)")]
    rng = Rng(77, 5)
    table = count_replicates(spec, cells, rng, 1026)
    assert table.shape == (1026, 2)
    # chunk 0 holds replicates 0..1023 drawn from child stream 0, interleaved
    # cell-by-cell: identical to repeated scalar poisson_count calls
    g = Rng(77, 5).child(0)
    expect = [[g.poisson_count(0.5), g.poisson_count(0.5)] for _ in range(1024)]
    assert table[:1024].tolist() == expect
    g = Rng(77, 5).child(1)  # replicates 1024..1025
    expect = [[g.poisson_count(0.5), g.poisson_count(0.5)] for _ in range(2)]
    assert table[1024:].tolist() == expect


def test_count_replicates_chunk_schedule_invariance():
    spec = IntensitySpec(1)
    cells = [parse_window("[0,2)")]
    a = count_replicates(spec, cells, Rng(3, 1), 1100)
    b = count_replicates(spec, cells, Rng(3, 1), 1100)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        count_replicates(spec, [parse_window("[0,2)"), parse_window("[1,3)")], Rng(1), 4)


def test_count_replicates_moments_sane():
    spec = IntensitySpec(2)
    counts = count_replicates(spec, [parse_window("[0,5)")], Rng(2024, 0), 4000)[:, 0]
    mean, var = counts.mean(), counts.var()
    se = np.sqrt(10 / 4000)
    assert abs(mean - 10) < 5 * se
    assert abs(var - 10) < 5 * np.sqrt(2 * 100 + 10) / np.sqrt(4000)


def test_push_forward_translation():
    c = PointConfig((F(0), F(1, 2)), parse_window("[0,1)"))
    out = push_forward(c, Translation(1), 2)
    assert out.points == (F(2), F(5, 2))
    assert out.window == parse_window("[2,3)")
    assert push_forward(c, Translation(1), 0) == c
    back = push_forward(out, Translation(1), -2)
    assert back == c


def test_push_forward_machine_round_trip():
    m = RankOneMachine(chacon3_recipe())
    w = parse_window("[97/200,1/2)")
    c = sample_poisson(IntensitySpec(100), w, Rng(5, 0))
    assert len(c) > 0
    fwd = push_forward(c, m, 7)
    assert fwd.window.length == w.length
    assert push_forward(fwd, m, -7) == c


def test_push_forward_weighted():
    c = PointConfig((F(0), F(1, 2)), parse_window("[0,1)"), weights=(F(2), F(1, 3)))
    out = push_forward(c, Translation(F(1, 4)), 1)
    assert out.atoms == ((F(1, 4), F(2)), (F(3, 4), F(1, 3)))


def test_weighted_config_fields():
    w = parse_window("[0,3)")
    v = PointConfig((F(0), F(1, 2), F(2)), w, weights=(F(1, 3), 2, "5/2"))
    assert v.weights == (F(1, 3), F(2), F(5, 2))
    assert v.atoms == ((F(0), F(1, 3)), (F(1, 2), F(2)), (F(2), F(5, 2)))
    same = PointConfig(v.points, w, weights=(F(1, 3), F(2), F(5, 2)))
    assert v == same and hash(v) == hash(same)
    assert v != PointConfig(v.points, w)
    assert v != PointConfig(v.points, w, weights=(F(1, 3), F(2), F(3)))
    assert PointConfig(v.points, w).atoms == tuple((p, F(1)) for p in v.points)
    assert count(v, w) == F(29, 6) and count(v, parse_window("[1,3)")) == F(5, 2)
    with pytest.raises(AttributeError):
        v.weights = None
    assert PointConfig.of_sum([(F(1), 1), (F(0), F(1, 2)), (F(1), F(1, 3))], w) == \
        PointConfig((F(0), F(1)), w, weights=(F(1, 2), F(4, 3)))


@pytest.mark.parametrize("kwargs,message", [
    ({"weights": (F(1), 0)}, "weights must be positive"),
    ({"weights": (F(1), F(-1, 2))}, "weights must be positive"),
    ({"weights": (F(1),)}, "weights: need one per point, not 1 for 2"),
    ({"weights": (F(1), F(1)), "marks": (0, 1), "mark_count": 2},
     "weights and marks do not go together"),
])
def test_weighted_config_refusals_name_the_field(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PointConfig((F(0), F(1, 2)), parse_window("[0,1)"), **kwargs)


def test_marks_refused_on_a_weighted_config():
    from sushilab.split_mark import attach_marks

    v = PointConfig((F(0),), parse_window("[0,1)"), weights=(F(2),))
    with pytest.raises(ValueError, match="weights and marks"):
        attach_marks(v, [F(1, 2), F(1, 2)], Rng(1))


def test_weights_ride_push_forward_and_add_under_superpose():
    m = RankOneMachine(chacon3_recipe())
    c = sample_poisson(IntensitySpec(20), parse_window("[0,1/2)"), Rng(5, 0))
    v = PointConfig(c.points, c.window, weights=[F(i + 1, 3) for i in range(len(c))])
    fwd = push_forward(v, m, 2)
    assert fwd.points != tuple(m.apply(p, 2) for p in v.points)  # reordered
    assert dict(fwd.atoms) == {m.apply(p, 2): w for p, w in v.atoms}
    w = parse_window("[0,4)")
    a = PointConfig((F(1), F(3)), w, weights=(F(1, 2), F(2)))
    b = PointConfig((F(0), F(3)), w)
    assert superpose(a, b) == superpose(b, a) == \
        PointConfig((F(0), F(1), F(3)), w, weights=(F(1), F(1, 2), F(3)))
    assert superpose(a, a) == PointConfig(a.points, w, weights=(F(1), F(4)))
    # a weighted summand keeps the sum weighted, even on disjoint supports
    assert superpose(a, PointConfig((F(2),), w)).weights == (F(1, 2), F(1), F(2))


def test_superpose_examples():
    w = parse_window("[0,1)")
    c = PointConfig((F(1, 4),), w)
    empty = PointConfig((), w)
    assert superpose(c, empty) == c
    a = PointConfig((F(0),), w)
    b = PointConfig((F(1, 2),), w)
    assert superpose(a, b) == PointConfig((F(0), F(1, 2)), w)
    merged = superpose(a, PointConfig((F(0),), w))
    assert merged.weights == (F(2),)
    assert merged.atoms == ((F(0), F(2)),)
    with pytest.raises(ValueError):
        superpose(a, PointConfig((F(0),), parse_window("[0,2)")))


def test_superpose_mixed_types():
    w = parse_window("[0,1)")
    a = PointConfig((F(0), F(1, 2)), w)
    b = PointConfig((F(1, 2),), w, weights=(F(3),))
    out = superpose(a, b)
    assert out.atoms == ((F(0), F(1)), (F(1, 2), F(4)))


def test_count_examples():
    c = PointConfig((F(0), F(1, 2), F(3)), parse_window("[0,4)"))
    assert count(c, parse_window("[0,1)")) == 2
    assert count(c, EMPTY) == 0
    wc = PointConfig((F(0), F(1, 2)), parse_window("[0,4)"), weights=(F(2), F(1)))
    assert count(wc, parse_window("[0,1)")) == 3
    with pytest.raises(ValueError):
        count(c, parse_window("[0,5)"))  # exceeds observed window


def test_count_additive_per_realization():
    c = sample_poisson(IntensitySpec(1), parse_window("[0,10)"), Rng(11, 0))
    a, b = parse_window("[0,3)"), parse_window("[3,10)")
    assert count(c, a) + count(c, b) == count(c, parse_window("[0,10)"))


def test_equivariance_identity():
    # N(A) after push-forward equals N(T^-1 A) before: exact, both transforms
    t = Translation(F(1, 3))
    c = sample_poisson(IntensitySpec(1), parse_window("[0,10)"), Rng(21, 0))
    for k in (1, -2, 5):
        moved = push_forward(c, t, k)
        A = parse_window("[2,4)").translate(k * t.step)
        assert count(moved, A) == count(c, t.image_window(A, -k))
    m = RankOneMachine(chacon3_recipe())
    w = parse_window("[19/100,21/100)")
    cm = sample_poisson(IntensitySpec(200), w, Rng(22, 0))
    for k in (3, -4):
        moved = push_forward(cm, m, k)
        A = m.image_window(parse_window("[19/100,1/5)"), k)
        assert count(moved, A) == count(cm, parse_window("[19/100,1/5)"))


def test_free_check_examples():
    t = Translation(1)
    w = parse_window("[0,4)")
    assert free_check(PointConfig((F(0), F(1, 2)), w), t, 3)
    assert not free_check(PointConfig((F(0), F(1)), w), t, 3)


def test_dissociation_examples():
    t = Translation(1)
    w = parse_window("[0,4)")
    assert dissociation_check(PointConfig((F(0),), w), PointConfig((F(1, 2),), w), t, 2)
    assert not dissociation_check(PointConfig((F(0),), w), PointConfig((F(2),), w), t, 2)
    # k = 0 counts: shared support is never dissociated
    assert not dissociation_check(PointConfig((F(0),), w), PointConfig((F(0),), w), t, 0)


def test_coincident_points_resample_then_error():
    class Stub(Rng):
        def __init__(self, fail_twice):
            super().__init__(0, 0)
            self.fail_twice = fail_twice
            self.calls = 0

        def integers(self, low, high, size):
            self.calls += 1
            if self.calls == 1 or self.fail_twice:
                return np.zeros(size, dtype=np.uint64)
            return np.arange(size, dtype=np.uint64)

    from sushilab.point_process import _sample_part_positions

    ok = _sample_part_positions(Stub(False), 3)
    assert len(ok) == 3  # one resample allowed
    with pytest.raises(RuntimeError):
        _sample_part_positions(Stub(True), 3)


def test_dump_csv_format():
    c = PointConfig((F(1, 8), F(3, 4)), parse_window("[0,1)"), weights=(F(1, 2), F(2)))
    buf = io.StringIO()
    dump_csv(c, buf, seed=7, stream_id=1, intensity=IntensitySpec(F(1, 2)))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=7 stream_id=1 window=[0,1) intensity=1/2"
    assert lines[1] == "point,weight"
    assert lines[2] == "1/8,0.5"
    assert lines[3] == "3/4,2.0"
    buf2 = io.StringIO()
    dump_csv(PointConfig((F(1, 3),), parse_window("[0,1)")), buf2)
    assert buf2.getvalue().splitlines()[2] == "1/3,1"
    buf3 = io.StringIO()
    dump_csv(PointConfig((F(1, 3), F(1, 2)), parse_window("[0,1)"), (2, 0), 3),
             buf3, seed=7)
    assert buf3.getvalue().splitlines() == ["# seed=7 window=[0,1)", "point,mark",
                                            "1/3,2", "1/2,0"]


def test_part_of_mean_700_draws_as_one_inversion():
    # mean 700 exactly: one count, then the positions, as the contract says
    c = sample_poisson(IntensitySpec(1), parse_window("[0,700)"), Rng(3, 4))
    g = Rng(3, 4)
    n = g.poisson_count(700.0)
    ks = np.unique(g.integers(0, 1 << 53, n))
    assert c.points == tuple(F(int(k), 1 << 53) * 700 for k in ks)


def test_part_above_mean_700_is_cut_into_equal_sub_parts():
    w = parse_window("[0,701)")
    c = sample_poisson(IntensitySpec(1), w, Rng(3, 4))
    # two sub-parts of mean 350.5, each with its own count, then positions
    g = Rng(3, 4)
    n0, n1 = g.poisson_count(350.5), g.poisson_count(350.5)
    k0 = np.unique(g.integers(0, 1 << 53, n0))
    k1 = np.unique(g.integers(0, 1 << 53, n1))
    half = F(701, 2)
    expect = [F(int(k), 1 << 53) * half for k in k0]
    expect += [half + F(int(k), 1 << 53) * half for k in k1]
    assert c.points == tuple(expect)
    assert count(c, w) == len(c) == n0 + n1
    counts = [len(sample_poisson(IntensitySpec(1), w, Rng(5, r))) for r in range(200)]
    assert abs(np.mean(counts) - 701) < 5 * np.sqrt(701 / 200)


def test_count_replicates_above_mean_700():
    cells = [parse_window("[0,701)"), parse_window("[701,702)")]
    table = count_replicates(IntensitySpec(1), cells, Rng(8, 1), 400)
    assert abs(table[:, 0].mean() - 701) < 5 * np.sqrt(701 / 400)
    # the big cell draws two uniforms per replicate, then the small one
    g = Rng(8, 1).child(0)
    first = g.poisson_count(350.5) + g.poisson_count(350.5)
    assert table[0].tolist() == [first, g.poisson_count(1.0)]
    small = count_replicates(IntensitySpec(1), [parse_window("[0,700)")],
                             Rng(8, 1), 10)
    g = Rng(8, 1).child(0)
    assert small[:, 0].tolist() == [g.poisson_count(700.0) for _ in range(10)]


def test_poisson_cdf_table_cached_read_only():
    table = poisson_cdf_table(3.5)
    assert poisson_cdf_table(3.5) is table
    with pytest.raises(ValueError):
        table[0] = 0.0
