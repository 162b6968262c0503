"""Splitting, marking, and the separation-thinning counterexample."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sushilab.dynamics import Translation
from sushilab.point_process import PointConfig, Rng, count, push_forward, sample_poisson, superpose
from sushilab.split_mark import (
    MarkLaw,
    _draw_marks,
    attach_marks,
    bernoulli_split,
    project_mark_set,
    separation_thin,
)
from sushilab.windows import IntensitySpec, parse_window


def poisson(seed, alpha=1, win="[0,20)", stream=0):
    return sample_poisson(IntensitySpec(alpha), parse_window(win), Rng(seed, stream))


def test_attach_marks_single_letter():
    c = poisson(1)
    mc = attach_marks(c, [1.0], Rng(1, 9))
    assert all(m == 0 for _, m in zip(mc.points, mc.marks))
    assert project_mark_set(mc, {0}) == c
    assert PointConfig(mc.points, mc.window) == c


def test_attach_marks_determinism_and_law():
    c = poisson(2)
    a = attach_marks(c, [0.5, 0.5], Rng(3, 3))
    b = attach_marks(c, [0.5, 0.5], Rng(3, 3))
    assert a == b
    assert a.mark_count == 2
    marks = [m for _, m in zip(a.points, a.marks)]
    assert set(marks) <= {0, 1}


def test_project_examples():
    c = poisson(4)
    mc = attach_marks(c, [0.3, 0.3, 0.4], Rng(4, 1))
    assert project_mark_set(mc, ()) == PointConfig((), c.window)
    assert project_mark_set(mc, {0, 1, 2}) == c
    with pytest.raises(ValueError):
        project_mark_set(mc, {3})


def test_projection_partition_superposes_to_ground():
    c = poisson(5)
    mc = attach_marks(c, [0.2, 0.5, 0.3], Rng(5, 2))
    parts = [project_mark_set(mc, {i}) for i in range(3)]
    acc = parts[0]
    for part in parts[1:]:
        acc = superpose(acc, part)
    assert acc == c


def test_bernoulli_split_is_marking_then_projection():
    # shared mark draw: split equals attach_marks + project, exactly
    c = poisson(6)
    split = bernoulli_split(c, [0.5, 0.5], Rng(6, 7))
    mc = attach_marks(c, [0.5, 0.5], Rng(6, 7))
    assert split == [project_mark_set(mc, {0}), project_mark_set(mc, {1})]


def test_bernoulli_split_degenerate_coin():
    c = poisson(7)
    c0, c1 = bernoulli_split(c, [1.0, 0.0], Rng(7, 0))
    assert c0 == c and len(c1) == 0


def test_bernoulli_split_partitions_support():
    c = poisson(8)
    comps = bernoulli_split(c, [0.25, 0.25, 0.5], Rng(8, 0))
    merged = sorted(p for comp in comps for p in comp.points)
    assert tuple(merged) == c.points


def test_separation_thin_examples():
    w = parse_window("[-2,12)")
    c = PointConfig((F(0), F(5), F(10)), w)
    out = separation_thin(c, 1)
    assert out.points == (F(0), F(5), F(10))
    assert out.window == parse_window("[-1,11)")
    c2 = PointConfig((F(0), F(1, 2), F(5)), w)
    assert separation_thin(c2, 1).points == (F(5),)


def test_separation_thin_tie_blocks():
    # distance exactly kappa blocks both endpoints
    c = PointConfig((F(0), F(1)), parse_window("[-2,3)"))
    assert separation_thin(c, 1).points == ()
    c2 = PointConfig((F(0), F(1)), parse_window("[-2,3)"))
    assert separation_thin(c2, F(99, 100)).points == (F(0), F(1))


def test_separation_thin_core_restriction():
    # points outside the shrunk core are dropped even if separated
    c = PointConfig((F(-3, 2), F(5)), parse_window("[-2,12)"))
    out = separation_thin(c, 1)
    assert out.points == (F(5),)
    assert F(-3, 2) not in out.window


def test_separation_thin_buffer_error():
    c = PointConfig((F(0),), parse_window("[0,1)"))
    with pytest.raises(ValueError):
        separation_thin(c, 1)
    with pytest.raises(ValueError):
        separation_thin(c, 0)


def test_separation_thin_equivariance_translation():
    # thin then shift equals shift then thin, exactly, on random configs
    t = Translation(F(7, 3))
    for seed in range(200):
        c = poisson(seed, alpha=2, win="[0,12)", stream=11)
        a = push_forward(separation_thin(c, F(1, 2)), t, 3)
        b = separation_thin(push_forward(c, t, 3), F(1, 2))
        assert a == b


def test_separation_thin_kept_rate_ballpark():
    # analytic keep probability for rate-1 input is e^{-2 kappa}
    total_kept = 0
    total_len = 0
    for seed in range(300):
        c = poisson(seed, alpha=1, win="[-1,51)", stream=13)
        kept = separation_thin(c, 1)
        total_kept += len(kept)
        total_len += float(kept.window.length)
    rate = total_kept / total_len
    expect = np.exp(-2.0)
    # 300 x 50 mass units; allow a wide band here, acceptance pins it tight
    assert abs(rate - expect) < 0.02


def test_count_and_diagonal_weight_count_marked_points():
    # marks are labels, not weights: N(A) counts the points whatever they carry
    from sushilab.moments import diagonal_weight

    w = parse_window("[0,10)")
    mc = PointConfig([F(i) for i in range(10)], w,
                     marks=[i % 3 for i in range(10)], mark_count=3)
    assert count(mc, w) == 10
    assert count(mc, parse_window("[0,5)")) == 5
    res = diagonal_weight(lambda rng: mc, w, 2, 4, 100, Rng(1))
    assert res.value == pytest.approx(10.0)


def test_marked_config_validation():
    w = parse_window("[0,1)")
    with pytest.raises(ValueError):
        PointConfig((F(0),), w, marks=(2,), mark_count=2)  # mark out of range
    with pytest.raises(ValueError):
        PointConfig((F(0), F(0)), w, marks=(0, 1), mark_count=2)  # duplicate point
    with pytest.raises(ValueError):
        attach_marks(PointConfig((), w), [0.5, 0.6], Rng(1))  # bad probs
    with pytest.raises(ValueError, match="go together"):
        PointConfig((F(0),), w, marks=(0,))
    with pytest.raises(ValueError, match="one mark in"):
        PointConfig((F(0), F(1, 2)), w, marks=(0,), mark_count=1)
    with pytest.raises(ValueError, match="one mark in"):
        PointConfig((), w, marks=(), mark_count=0)
    with pytest.raises(TypeError):
        PointConfig((F(0),), w, marks=(0.5,), mark_count=2)
    for bad in (2.0, True, "2"):
        with pytest.raises(TypeError, match="mark_count must be an integer"):
            PointConfig((F(0),), w, marks=(0,), mark_count=bad)
    assert PointConfig((F(0),), w, marks=(0,), mark_count=np.int64(2)).mark_count == 2
    with pytest.raises(ValueError, match="marked configuration"):
        project_mark_set(PointConfig((F(0),), w), {0})


def test_marks_are_labels_under_push_forward_and_superpose():
    # a mark rides along with its point and never weighs: two points of
    # marks 2 and 1 stay two points of mass 2, and a mark 0 is a mark
    w = parse_window("[0,10)")
    mc = PointConfig((F(1), F(3)), w, marks=(2, 1), mark_count=3)
    out = push_forward(mc, Translation(1), 1)
    assert out == PointConfig((F(2), F(4)), parse_window("[1,11)"),
                              marks=(2, 1), mark_count=3)
    assert count(out, out.window) == 2
    back = push_forward(PointConfig((F(1), F(3)), w, marks=(0, 1), mark_count=2),
                        Translation(-1), 1)
    assert list(zip(back.points, back.marks.tolist())) == [(F(0), 0), (F(2), 1)]
    zero = PointConfig((F(5),), w, marks=(0,), mark_count=3)
    both = superpose(mc, zero)
    assert both == PointConfig((F(1), F(3), F(5)), w)
    assert count(both, w) == 3
    shared = superpose(mc, PointConfig((F(3),), w, marks=(0,), mark_count=3))
    assert shared.atoms == ((F(1), F(1)), (F(3), F(2)))


def test_mark_rule_is_exact_in_the_last_ulp():
    # the exact cumulative probability of the first two marks is
    # 1/2 + float(1/3), between the grid uniform u below and the next float
    # up; that sum rounded to the nearest float is u itself, which would
    # give mark 2
    u = 0.8333333333333333
    assert F(u) < F(1, 2) + F(1 / 3) < F(u) + F(1, 2**53)
    assert _draw_marks(MarkLaw([1 / 2, 1 / 3, 1 / 6]), [u]).tolist() == [1]
    assert _draw_marks(MarkLaw([F(1, 2), F(1, 3), F(1, 6)]), [u]).tolist() == [1]


def test_mark_law_accepts_floats_within_the_sum_tolerance():
    assert MarkLaw([0.1] * 10).count == 10
    assert MarkLaw([0.5, 0.5 + 1e-13]).count == 2
    for bad in ([0.5, 0.5 + 1e-11], [], [F(3, 2), F(-1, 2)], [F(1, 2), F(1, 3)]):
        with pytest.raises(ValueError):
            MarkLaw(bad)


@st.composite
def laws_and_uniforms(draw):
    """A Fraction law, zero probabilities included, and grid uniforms
    k * 2**-53, some at or next to a cumulative probability."""
    weights = draw(st.lists(st.one_of(st.just(0), st.integers(1, 2**60)),
                            min_size=1, max_size=6).filter(any))
    probs = [F(w, sum(weights)) for w in weights]
    cum = [sum(probs[:i + 1], F(0)) for i in range(len(probs))]
    near = [int(q * 2**53) + d for q in cum for d in (-1, 0, 1)]
    ks = draw(st.lists(st.one_of(st.integers(0, 2**53 - 1),
                                 st.sampled_from(near).filter(lambda k: 0 <= k < 2**53)),
                       min_size=1, max_size=20))
    return probs, cum, [k / 2**53 for k in ks]


@settings(max_examples=200, deadline=None)
@given(laws_and_uniforms())
def test_mark_law_gives_the_first_cumulative_above_the_uniform(case):
    probs, cum, us = case
    expect = [next(i for i, q in enumerate(cum) if F(u) < q) for u in us]
    assert _draw_marks(MarkLaw(probs), np.array(us)).tolist() == expect
