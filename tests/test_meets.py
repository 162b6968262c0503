"""The exact ``free`` and ``dissociation`` checks on grid indices agree with
the point-by-point ``Fraction`` check, replicate by replicate.

The oracle builds every point of a sample, applies ``T^k`` to it and looks
the image up among the other side's points.  The lattice check reads
``T^k`` from ``T.piecewise`` and compares grid indices, block by block
(``LatticeSampler.meet_blocks``) or for one pair of configurations
(``dissociation_check``, ``free_check``).  Both must find the same
meetings and raise the same ``OrbitError`` at the same replicate.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sushilab import point_process
from sushilab.dynamics import (OrbitError, RankOneMachine, Translation,
                               chacon3_recipe, infinite_chacon_recipe)
from sushilab.point_process import (Rng, _meets, dissociation_check,
                                    free_check)
from sushilab.split_mark import LatticeSampler, MarkLaw, project_mark_set
from sushilab.windows import IntensitySpec, parse_window

from test_streams import coarse_grid

MACHINES = {
    "chacon3": RankOneMachine(chacon3_recipe(), label="chacon3"),
    "infinite-chacon": RankOneMachine(infinite_chacon_recipe(),
                                      label="infinite-chacon"),
}

# (window, intensity, largest K): multi-part windows, and intensities above
# 700 per part, which cut a part into frames of unequal widths
WINDOWS = {
    "translation": [("[0,10)", 1, 8), ("[0,1)+[2,7/2)", 800, 2),
                    ("[-3,-1)+[1/3,2)+[5,6)", 3, 8)],
    "chacon3": [("[0,1)", 8, 8),
                ("[1/9,1/3)+[4/9,8/9)+[1,11/9)+[4/3,13/9)", 6, 8),
                ("[0,1)+[1,5/4)", 1400, 1),
                # the top level of the stage-11 column: T^1 resolves on two
                # thirds of it at stage 12, and never on the rest
                ("[59048/59049,1)", 3 * 59049, 2)],
    "infinite-chacon": [("[5/9,2/3)+[8/9,1)+[11/9,4/3)+[14/9,5/3)", 4, 8),
                        ("[0,3)+[4,9/2)", 3, 8), ("[0,1)+[2,5/2)", 1000, 1)],
}

LAWS = {"split": (F(1, 2), F(1, 2)), "mark": (F(1, 6), F(1, 3), F(1, 2))}


def outcome(fn):
    """fn's value, or the type and text of the OrbitError it raises."""
    try:
        return fn()
    except OrbitError as exc:
        return ("OrbitError", str(exc))


def offsets(K, pair):
    return range(-K, K + 1) if pair is not None else \
        [k for k in range(-K, K + 1) if k]


def sides(c, pair):
    if pair is None:
        return c, c
    return project_mark_set(c, {pair[0]}), project_mark_set(c, {pair[1]})


def oracle(sampler, T, K, pair, rng, R):
    """Per replicate, does the Fraction check find a meeting?  Replicates
    in order, so the first OrbitError is the first replicate's."""
    rows = []
    for r in range(R):
        a, b = sides(sampler(rng.child(r)), pair)
        rows.append(_meets(a.points, set(b.points), offsets(K, pair), T))
    return rows


def batched(sampler, T, K, pair, rng, R):
    return np.concatenate(list(sampler.meet_blocks(rng, R, T, K, pair))).tolist()


def meeting_step(sampler, pair, rng):
    """A translation step that carries a point of replicate 0 onto another
    (of mark pair[1], from one of mark pair[0]), or 1 when there is none."""
    a, b = sides(sampler(rng.child(0)), pair)
    xs, ys = a.points, b.points
    if pair is None:
        return xs[1] - xs[0] if len(xs) > 1 else F(1)
    return ys[-1] - xs[0] if xs and ys else F(1)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(WINDOWS)))
    window, alpha, top = draw(st.sampled_from(WINDOWS[name]))
    kind = draw(st.sampled_from(["poisson", "thin", "split", "mark"]))
    pair = None
    if kind in LAWS and draw(st.booleans()):
        marks = len(LAWS[kind])
        pair = (draw(st.integers(0, marks - 1)), draw(st.integers(0, marks - 1)))
    K = draw(st.integers(0 if pair else 1, top))
    step = draw(st.sampled_from(["meet", F(30, 2**53), F(5, 2), F(1, 3)]))
    return name, window, alpha, kind, pair, K, step, draw(st.integers(0, 2**32 - 1))


def sampler_of(kind, window, alpha):
    W = parse_window(window)
    if kind == "thin":
        return LatticeSampler(IntensitySpec(alpha), W, kappa=F(1, 100) / alpha)
    law = LAWS.get(kind)
    return LatticeSampler(IntensitySpec(alpha), W,
                          marks=None if law is None else MarkLaw(law))


@settings(max_examples=40, deadline=None)
@given(cases())
def test_lattice_checks_equal_fraction_checks(case):
    name, window, alpha, kind, pair, K, step, seed = case
    sampler = sampler_of(kind, window, alpha)
    rng = Rng(seed, 7)
    if name == "translation":
        T = Translation(meeting_step(sampler, pair, rng) if step == "meet" else step)
    else:
        T = MACHINES[name]
    R = 3 if alpha > 100 else 40
    want = outcome(lambda: oracle(sampler, T, K, pair, rng, R))
    assert outcome(lambda: batched(sampler, T, K, pair, rng, R)) == want
    # one pair of configurations: the same integer check on a single row
    for r in range(R if isinstance(want, list) else 0):
        a, b = sides(sampler(rng.child(r)), pair)
        if pair is None:
            assert free_check(a, T, K) is not want[r]
        else:
            assert dissociation_check(a, b, T, K) is not want[r]


@pytest.mark.parametrize("pair", [(0, 1), (1, 0), None])
def test_meeting_steps_are_found(pair):
    """A step that carries a point of replicate 0 onto another makes that
    replicate meet, by both checks, at every K >= 1."""
    sampler = sampler_of("split", "[0,1)+[2,7/2)", 800)
    rng = Rng(20260823, 3)
    T = Translation(meeting_step(sampler, pair, rng))
    for K in (1, 8):
        got = batched(sampler, T, K, pair, rng, 2)
        assert got[0] and got == oracle(sampler, T, K, pair, rng, 2)


@pytest.mark.parametrize("kind,pair", [("poisson", None), ("thin", None),
                                       ("split", (0, 1)), ("mark", (2, 2))])
def test_redrawn_rows_checked_as_serial(monkeypatch, kind, pair):
    """Rows whose positions collide are drawn again by the serial sampler,
    and checked on that sample."""
    coarse_grid(monkeypatch, 12)
    sampler = sampler_of(kind, "[0,4)", 2)
    rng, R = Rng(20260823, 17), 1000
    # a step of a few cells of the coarse grid, wider than the thinning
    # radius 1/200: points that many cells apart meet
    T = Translation(F(4 * 16, 2**12))
    got = batched(sampler, T, 2, pair, rng, R)
    assert got == oracle(sampler, T, 2, pair, rng, R)
    assert 0 < sum(got) < R


def test_residual_rows_raise_the_serial_orbit_error():
    """Where T^1 never resolves, every replicate with a point there takes
    the serial check, which raises at the first such replicate."""
    sampler = sampler_of("poisson", "[531440/531441,1)", 3 * 531441)
    T, rng = MACHINES["chacon3"], Rng(5, 5)
    want = outcome(lambda: oracle(sampler, T, 1, None, rng, 20))
    assert want[0] == "OrbitError"
    assert outcome(lambda: batched(sampler, T, 1, None, rng, 20)) == want


GRID = 2**53
rationals = st.builds(F, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 6, 9, 10]))
widths = st.builds(F, st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 5, 8]))
indices = st.one_of(st.integers(0, GRID - 1), st.sampled_from([0, 1, GRID - 2, GRID - 1]))


@settings(max_examples=300, deadline=None)
@given(rationals, widths, rationals, widths, indices, indices, indices, indices,
       st.one_of(st.none(), rationals))
def test_move_solves_the_lattice_congruence(flo, fw, glo, gw, i_star, j_star, lo, hi,
                                            off):
    """_move predicts, for every index i of frame f in [lo, hi), whether
    the point moved by shift is a grid point j of frame g, and which: the
    shift carries index i_star onto j_star, give or take off / 2**53."""
    f, g = point_process._Frame(flo, fw), point_process._Frame(glo, gw)
    shift = glo + j_star * gw / GRID - flo - i_star * fw / GRID + F(off or 0) / GRID
    lo, hi = min(lo, hi), max(lo, hi) + 1
    mv = point_process._move(f, g, shift, lo, hi)

    def exact(i):
        j = (flo + i * fw / GRID + shift - glo) * GRID / gw
        return int(j) if j.denominator == 1 and 0 <= j < GRID else None

    def predicted(i):
        if mv is None:
            return None
        first, stop, m, j0, r = mv
        if first <= i < stop and (i - first) % m == 0:
            return j0 + (i - first) // m * r
        return None

    candidates = {lo, hi - 1, i_star, i_star - 1, i_star + 1}
    if mv is not None:
        first, stop, m, _, _ = mv
        candidates |= {first, first - 1, first + m, first + 1, stop - 1, stop,
                       stop - m, stop - m + 1, (first + stop) // 2}
    for i in candidates:
        if lo <= i < hi:
            assert predicted(i) == exact(i), i


# two parts whose frames differ in width: [0,1) and [2,4) at intensity 1
TWO_WIDTHS = point_process._layout(1, 1, parse_window("[0,1)+[2,4)"))
near_ends = st.lists(st.one_of(st.integers(0, 12), st.integers(GRID - 12, GRID - 1)),
                     unique=True, max_size=6).map(lambda ks: np.array(sorted(ks),
                                                                       dtype=np.uint64))


@settings(max_examples=150, deadline=None)
@given(near_ends, near_ends, near_ends, near_ends, st.integers(0, 3),
       st.sampled_from([F(2), F(-2), F(1), F(3, 2), F(2) + F(1, GRID),
                        F(2) - F(3, GRID), F(2) + F(1, 2 * GRID)]))
def test_hand_placed_lattice_points_on_unequal_frames(a0, a1, b0, b1, K, step):
    """Points a few grid cells from the frame ends, moved between frames of
    widths 1 and 2: the congruence, its modulus and its bounds decide each
    meeting exactly as the Fraction check does."""
    c1 = point_process.PointConfig._on_lattice(TWO_WIDTHS, [a0, a1], TWO_WIDTHS.window)
    c2 = point_process.PointConfig._on_lattice(TWO_WIDTHS, [b0, b1], TWO_WIDTHS.window)
    T = Translation(step)
    assert dissociation_check(c1, c2, T, K) is not \
        _meets(c1.points, set(c2.points), range(-K, K + 1), T)
    if K:
        assert free_check(c1, T, K) is not \
            _meets(c1.points, set(c1.points), offsets(K, None), T)
