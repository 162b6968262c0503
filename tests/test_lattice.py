"""Sampled configurations held as grid indices agree with Fraction points.

Every lattice result is compared with the same operation on the reference
``PointConfig(points, window)`` built from the sampled Fractions, and with
a direct point-by-point definition.
"""

import copy
import pickle
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from sushilab.point_process import (
    Columns,
    PointConfig,
    Rng,
    count,
    counts,
    sample_poisson,
)
from sushilab.split_mark import attach_marks, bernoulli_split, separation_thin
from sushilab.windows import Interval, IntensitySpec, Window

quarters = st.integers(-20, 40).map(lambda n: F(n, 4))
# below a grid step: every frame here is at least 1/4 wide, so its grid
# step is at least 2**-55
TINY = F(1, 2**60)


@st.composite
def windows(draw, max_parts=4):
    ends = sorted(set(draw(st.lists(quarters, min_size=2, max_size=2 * max_parts))))
    parts = [Interval(a, b) for a, b in zip(ends[::2], ends[1::2])]
    return Window(parts)


@st.composite
def lattice_configs(draw, alphas=(F(1, 3), F(1), F(5, 2), F(6))):
    w = draw(windows())
    alpha = draw(st.sampled_from(alphas))
    seed = draw(st.integers(0, 2**32))
    return sample_poisson(IntensitySpec(alpha), w, Rng(seed, 1))


def reference(c):
    if c.marks is None:
        return PointConfig(c.points, c.window)
    return PointConfig(c.points, c.window, c.marks, c.mark_count)


def edges(draw, c):
    """Candidate window edges: sampled points (grid points) and edges just
    off them, the window's own edges, and quarter-integers."""
    pool = [p + d for p in c.points for d in (0, TINY, -TINY)]
    pool += [e for p in c.window.parts for e in (p.lo, p.hi)]
    return draw(st.lists(st.one_of(st.sampled_from(pool), quarters)
                         if pool else quarters, min_size=2, max_size=8))


def thin_reference(points, window, kappa):
    core = window.shrink(kappa)
    kept = [p for i, p in enumerate(points)
            if p in core
            and (i == 0 or p - points[i - 1] > kappa)
            and (i + 1 == len(points) or points[i + 1] - p > kappa)]
    return PointConfig(kept, core)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_count_agrees_with_fraction_points(data):
    c = data.draw(lattice_configs())
    ends = sorted(set(edges(data.draw, c)))
    parts = [Interval(a, b) for a, b in zip(ends[::2], ends[1::2])]
    A = Window(parts).intersect(c.window)
    expect = sum(1 for p in c.points if p in A)
    assert count(c, A) == count(reference(c), A) == expect
    assert count(c, c.window) == len(c)


def sub_windows(draw, c, n):
    """n windows inside c's window, with edges on and next to its points."""
    out = []
    for _ in range(n):
        ends = sorted(set(edges(draw, c)))
        parts = [Interval(a, b) for a, b in zip(ends[::2], ends[1::2])]
        out.append(Window(parts).intersect(c.window))
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_counts_agree_with_point_by_point_counts(data):
    c = data.draw(lattice_configs())
    ws = sub_windows(data.draw, c, data.draw(st.integers(1, 5)))
    cols = Columns([(None, A) for A in ws])
    expect = [float(sum(1 for p in c.points if p in A)) for A in ws]
    assert counts(c, cols).tolist() == expect
    assert counts(reference(c), cols).tolist() == expect
    assert [count(c, A) for A in ws] == expect
    # a split's components are the marks of the marked sample
    seed = data.draw(st.integers(0, 2**32))
    comps = bernoulli_split(c, [F(1, 3), F(2, 3)], Rng(seed, 2))
    mc = attach_marks(c, [F(1, 3), F(2, 3)], Rng(seed, 2))
    by_j = [(j, A) for A in ws for j in (1, 0)]
    row = [float(sum(1 for p in comps[j].points if p in A)) for j, A in by_j]
    assert counts(mc, by_j).tolist() == row
    assert counts(mc, [(None, A) for A in ws]).tolist() == expect


# F(120) cuts a part longer than 35/6 into frames of mean at most 700
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_counts_agree_for_every_selector(data):
    c = data.draw(lattice_configs(alphas=(F(1, 3), F(5, 2), F(120))))
    m = data.draw(st.integers(1, 4))
    probs = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)
                      .filter(any))
    mc = attach_marks(c, [F(p, sum(probs)) for p in probs],
                      Rng(data.draw(st.integers(0, 2**32)), 2))
    ws = sub_windows(data.draw, c, data.draw(st.integers(1, 4)))
    cols = [(j, A) for A in ws for j in (None, *range(m))]
    labelled = list(zip(mc.points, mc.marks.tolist()))
    expect = [float(sum(1 for p, k in labelled if p in A and j in (None, k)))
              for j, A in cols]
    assert counts(mc, cols).tolist() == expect
    assert counts(reference(mc), cols).tolist() == expect


def test_counts_for_every_selector_on_a_multi_frame_layout():
    # mean 1800 on [0,15) and 60 on [16,16.5): three frames, then a fourth
    w = Window([Interval(F(0), F(15)), Interval(F(16), F(33, 2))])
    c = sample_poisson(IntensitySpec(120), w, Rng(8, 8))
    assert len(c._ks) == 4
    mc = attach_marks(c, [F(1, 2), F(1, 3), F(1, 6)], Rng(8, 9))
    pts = mc.points
    # two parts, each across a meeting of frames; the second also across
    # the gap between the window's parts
    A = Window([Interval(F(1), pts[700]),
                Interval(pts[1200], F(65, 4))]).intersect(w)
    cols = [(j, B) for B in (A, w) for j in (2, None, 0, 1)]
    labelled = list(zip(pts, mc.marks.tolist()))
    expect = [float(sum(1 for p, k in labelled if p in B and j in (None, k)))
              for j, B in cols]
    assert counts(mc, cols).tolist() == expect
    assert counts(reference(mc), cols).tolist() == expect


def test_counts_of_weights_are_exact_sums():
    w = Window.span(0, 3)
    v = PointConfig((F(0), F(1), F(2)), w, weights=(F(1, 3),) * 3)
    A, B = Window.span(0, 2), Window([Interval(F(0), F(1, 2)), Interval(F(2), F(3))])
    assert count(v, A) == F(2, 3) and count(v, B) == F(2, 3)
    assert count(v, Window()) == 0 and isinstance(count(v, Window()), F)
    assert counts(v, [(None, A), (None, B), (None, w)]).tolist() == \
        [float(F(2, 3)), float(F(2, 3)), 1.0]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_weighted_counts_are_per_atom_fraction_sums(data):
    c = data.draw(lattice_configs())
    weights = data.draw(st.lists(
        st.fractions(min_value=F(1, 64), max_value=8, max_denominator=64),
        min_size=len(c), max_size=len(c)))
    v = PointConfig(c.points, c.window, weights=weights)
    ws = sub_windows(data.draw, c, data.draw(st.integers(1, 4)))
    expect = [sum((w for p, w in zip(c.points, weights) if p in A), F(0))
              for A in ws]
    assert [count(v, A) for A in ws] == expect
    assert counts(v, [(None, A) for A in ws]).tolist() == [float(e) for e in expect]
    assert count(v, v.window) == sum(weights, F(0))


def test_counts_refuse_what_the_sample_lacks():
    w = Window.span(0, 4)
    c = sample_poisson(IntensitySpec(2), w, Rng(1, 1))
    mc = PointConfig((F(1), F(2)), w, marks=(0, 1), mark_count=2)
    with pytest.raises(ValueError, match="exceeds observed window"):
        counts(c, [(None, Window.span(3, 5))])
    for sample, j in ((c, 0), (mc, 2), (attach_marks(c, [1.0], Rng(1, 2)), 1)):
        with pytest.raises(ValueError, match="names no component or mark"):
            counts(sample, [(j, w)])
    with pytest.raises(ValueError, match="at least 0"):
        counts(mc, [(-1, w)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_separation_thin_agrees_with_fraction_points(data):
    c = data.draw(lattice_configs())
    pts = c.points
    # kappa at a realized gap puts a tie exactly on the grid; just off it,
    # the gap and kappa fall in one grid step
    gaps = [b - a + d for a, b in zip(pts, pts[1:]) for d in (0, TINY, -TINY)]
    kappa = data.draw(st.sampled_from(gaps + [F(1, 4), F(1, 2), F(1), F(7, 3)]))
    if c.window.shrink(kappa).is_empty:
        return
    thinned = separation_thin(c, kappa)
    assert thinned._ks is not None
    assert thinned == separation_thin(reference(c), kappa)
    assert thinned == thin_reference(pts, c.window, kappa)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bernoulli_split_agrees_with_fraction_points(data):
    c = data.draw(lattice_configs())
    probs = data.draw(st.sampled_from([[0.5, 0.5], [0.2, 0.3, 0.5], [1.0, 0.0]]))
    seed = data.draw(st.integers(0, 2**32))
    comps = bernoulli_split(c, probs, Rng(seed, 2))
    assert comps == bernoulli_split(reference(c), probs, Rng(seed, 2))
    assert sum(len(x) for x in comps) == len(c)


def test_lattice_operations_build_no_fractions():
    w = Window([Interval(F(0), F(5)), Interval(F(11, 2), F(12))])
    c = sample_poisson(IntensitySpec(3), w, Rng(4, 4))
    assert count(c, Window.span(1, 3)) >= 0
    thinned = separation_thin(c, F(1, 2))
    comps = bernoulli_split(thinned, [0.5, 0.5], Rng(4, 5))
    for x in (c, thinned, *comps):
        assert x._points is None
        count(x, x.window)
        assert x._points is None
    assert thinned == thin_reference(c.points, w, F(1, 2))


def test_pickle_and_copy_keep_the_configuration():
    c = sample_poisson(IntensitySpec(2), Window.span(0, 5), Rng(6, 6))
    mc = attach_marks(c, [0.5, 0.5], Rng(6, 7))
    v = PointConfig(c.points, c.window, weights=range(1, len(c) + 1))
    for x in (c, mc, v):
        assert pickle.loads(pickle.dumps(x)) == x
        assert copy.deepcopy(x) == x == copy.copy(x)
    assert mc != c != v
    assert pickle.loads(pickle.dumps(v)).weights == v.weights


def test_empty_parts_and_neighbours_across_parts():
    # parts 1/8 apart: points at the right end of one part block points at
    # the left end of the next; the middle part is mostly empty
    w = Window([Interval(F(0), F(4)), Interval(F(33, 8), F(17, 4)),
                Interval(F(35, 8), F(9))])
    for seed in range(30):
        c = sample_poisson(IntensitySpec(2), w, Rng(seed, 3))
        for kappa in (F(1, 4), F(1, 2), F(1)):
            assert separation_thin(c, kappa) == thin_reference(c.points, w, kappa)


def test_sub_part_frames_thin_and_count_exactly():
    # mean 800 on one part: two frames of mean 400 meeting at 4
    w = Window.span(0, 8)
    c = sample_poisson(IntensitySpec(100), w, Rng(2, 2))
    assert len(c._ks) == 2
    pts = c.points
    A = Window([Interval(F(1), F(4)), Interval(pts[500], F(7))])
    assert count(c, A) == sum(1 for p in pts if p in A)


def test_tie_between_neighbours_in_adjacent_frames():
    # mean 701 on one part: two frames meeting at 701.  With kappa equal to
    # the gap across the meeting point, the tie blocks both neighbours; a
    # seed where nothing else blocks them shows the exact comparison.
    w = Window.span(0, 1402)
    for seed in range(40):
        c = sample_poisson(IntensitySpec(F(1, 2)), w, Rng(seed, 5))
        pts = c.points
        i = max(j for j, p in enumerate(pts) if p < 701)
        kappa = pts[i + 1] - pts[i]
        if pts[i] - pts[i - 1] > kappa and pts[i + 2] - pts[i + 1] > kappa:
            break
    else:
        raise AssertionError("no seed isolates the pair across the frames")
    for k in (kappa, kappa - TINY):
        thinned = separation_thin(c, k)
        assert thinned == thin_reference(pts, w, k)
        assert (pts[i] in thinned.points) == (k < kappa)
