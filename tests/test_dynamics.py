"""Exact transformation layer: translations and rank-one machines.

The rank-one oracles here were derived by building the cutting-and-stacking
towers by hand for the first stages of the 3-cut middle-spacer recipe and
reading the piecewise map off the stacked levels.
"""

import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest
from tower_oracle import TowerOracle

from sushilab.dynamics import (
    DEFAULT_MAX_STAGE,
    OrbitError,
    RankOneMachine,
    Translation,
    cesaro_overlap,
    chacon3_recipe,
    infinite_chacon_recipe,
    orbit,
    recipe_from_arrays,
)
from sushilab.windows import Interval, Window, parse_window

# Hand-built tower for the 3-cut recipe with one middle spacer, base [0,1):
# stage 1 stacks [0,1/3), [1/3,2/3), spacer [1,4/3), [2/3,1) bottom to top.
STAGE1_LEVELS = ["[0,1/3)", "[1/3,2/3)", "[1,4/3)", "[2/3,1)"]
# stage 2: each stage-1 level is cut in three; subcolumns stack left to
# right with one fresh spacer level [4/3,13/9) on top of the middle one.
STAGE2_LEVELS = [
    "[0,1/9)", "[1/3,4/9)", "[1,10/9)", "[2/3,7/9)",
    "[1/9,2/9)", "[4/9,5/9)", "[10/9,11/9)", "[7/9,8/9)", "[4/3,13/9)",
    "[2/9,1/3)", "[5/9,2/3)", "[11/9,4/3)", "[8/9,1)",
]


def chacon():
    return RankOneMachine(chacon3_recipe())


def test_translation_apply():
    t = Translation(1)
    assert t.apply(F(1, 2), 3) == F(7, 2)
    assert t.apply(F(1, 2), 0) == F(1, 2)
    assert t.apply(F(1, 2), -2) == F(-3, 2)
    assert Translation(F(1, 3)).apply(0, 6) == 2


def test_translation_image_window():
    t = Translation(1)
    assert t.image_window(parse_window("[0,1)"), -2) == parse_window("[-2,-1)")
    w = parse_window("[0,1)+[2,3)")
    assert t.image_window(w, 0) == w
    assert t.image_window(w, 5).length == w.length


def test_tower_stage1_matches_hand_construction():
    m = chacon()
    m.grow_to(1)
    base, height, levels = m.tower
    assert height == 4
    assert [str(l) for l in levels] == STAGE1_LEVELS
    assert base == Interval(F(0), F(1, 3))


def test_tower_stage2_matches_hand_construction():
    m = chacon()
    m.grow_to(2)
    _, height, levels = m.tower
    assert height == 13
    assert [str(l) for l in levels] == STAGE2_LEVELS


def test_apply_first_defined_stage_oracle():
    # 0 sits at the bottom of every tower; its image is the offset of the
    # first-stage piece containing it: 0 -> 1/3.
    m = chacon()
    assert m.apply(0, 1) == F(1, 3)
    assert m.apply(0, 3) == F(2, 3)
    # one step beyond the stage-1 tower forces stage 2: level 0 -> level 4
    assert m.apply(0, 4) == F(1, 9)
    assert m.apply(F(1, 3), 1) == F(1)  # into the spacer
    assert m.apply(F(1), 1) == F(2, 3)  # out of the spacer


def test_apply_identity_and_errors():
    m = chacon()
    assert m.apply(F(5, 7), 0) == F(5, 7)
    with pytest.raises(ValueError):
        m.apply(F(-1, 2), 1)


def test_power_zero_checks_the_machine_space():
    # T^0 is checked like every other power: a window reaching below the
    # base is refused, an empty one is its own image
    m = chacon()
    for k in (0, 1):
        with pytest.raises(ValueError, match="outside the machine space"):
            m.image_window(parse_window("[-1,1)"), k)
        with pytest.raises(ValueError, match="outside the machine space"):
            m.apply(-1, k)
    assert m.image_window(Window([]), 0).is_empty
    w = parse_window("[1/3,2/3)")
    assert m.image_window(w, 0) == w


def test_orbit_error_fields_and_fail_fast():
    # the top level's right edge can never be mapped forward: the needed
    # sliver stays within a bounded distance of the tower top at every stage
    m = chacon()
    with pytest.raises(OrbitError) as ei:
        m.image_window(parse_window("[0,1/27)"), 40, max_stage=6)
    err = ei.value
    assert err.requested_power == 40
    assert err.max_stage == 6
    assert isinstance(err.point, F)


def test_invertibility_exact():
    # points off the triadic grid are never permanently obstructed
    m = chacon()
    pts = [F(1, 2), F(5, 7), F(12, 13), F(113, 128), F(97, 200)]
    for x in pts:
        for k in (1, 2, 5, 13, 32, -1, -7, -32):
            y = m.apply(x, k, max_stage=10)
            assert m.apply(y, -k, max_stage=10) == x


def test_null_set_points_fail_loudly():
    # exact triadic points are left endpoints of a level at every deep
    # stage, so their backward orbit beyond that level's index is genuinely
    # undefined (a null set): the machine must raise, never approximate
    m = chacon()
    with pytest.raises(OrbitError):
        m.apply(F(0), -1, max_stage=8)
    # 1/9 is born at stage 2 as the left edge of level index 4 and keeps
    # that index: four backward steps exist, the fifth does not
    assert m.apply(m.apply(F(1, 9), -4, max_stage=8), 4) == F(1, 9)
    with pytest.raises(OrbitError):
        m.apply(F(1, 9), -5, max_stage=8)
    # forward orbits of exact points always resolve: the point lies at the
    # *left* edge of the next level, not in the shrinking sliver below it
    assert m.apply(F(2, 3), 3, max_stage=8) == m.apply(
        m.apply(F(2, 3), 2, max_stage=8), 1, max_stage=8
    )


def test_window_forward_obstruction_is_permanent():
    # a window holding a left-neighborhood of 2/3 can never be mapped 3
    # steps forward: the sliver below 2/3 keeps tower distance 2 from the
    # top at every stage
    m = chacon()
    with pytest.raises(OrbitError):
        m.image_window(parse_window("[1/2,5/7)"), 3, max_stage=9)
    # two steps are fine
    iw = m.image_window(parse_window("[1/2,5/7)"), 2, max_stage=9)
    assert iw.length == F(5, 7) - F(1, 2)


def test_power_composition():
    m = chacon()
    x = F(3, 7)
    step = x
    for _ in range(9):
        step = m.apply(step, 1)
    assert m.apply(x, 9) == step


def test_measure_preservation_windows():
    # windows confined to a single cell of the 1/27 grid, with endpoints
    # off the triadic grid, resolve in both directions for |k| < 40
    m = chacon()
    texts = ("[97/200,1/2)", "[1/2048,1/40)", "[19/100,21/100)+[3/8,2/5)")
    for text in texts:
        w = parse_window(text)
        for k in (1, 3, 13, 32, -5, -13, -32):
            iw = m.image_window(w, k, max_stage=12)
            assert iw.length == w.length
            assert m.image_window(iw, -k, max_stage=12) == w


def test_piece_consistency_across_stages():
    m = chacon()
    m.grow_to(2)
    snapshot = {x: m.apply(x, 1) for x in (F(0), F(1, 2), F(4, 9), F(10, 9))}
    m.grow_to(5)
    for x, y in snapshot.items():
        assert m.apply(x, 1) == y


def test_pieces_invariants():
    m = chacon()
    m.grow_to(3)
    pieces = m.pieces
    sources = [src for src, _ in pieces]
    images = [Interval(src.lo + off, src.hi + off) for src, off in pieces]
    for ivs in (sources, images):
        ordered = sorted(ivs, key=lambda iv: iv.lo)
        for a, b in zip(ordered, ordered[1:]):
            assert a.hi <= b.lo  # pairwise disjoint
    assert sum(s.length for s in sources) == sum(i.length for i in images)


def test_degenerate_two_cut_machine_is_translation_on_first_subcolumn():
    # 2 cuts, no spacers: the stage-1 map on [0,1/2) is x -> x + 1/2
    m = RankOneMachine(recipe_from_arrays([2], [[0, 0]]))
    t = Translation(F(1, 2))
    for x in (F(0), F(1, 8), F(3, 10), F(49, 100)):
        assert m.apply(x, 1) == t.apply(x, 1)


def test_recipe_validation():
    with pytest.raises(ValueError):
        recipe_from_arrays([1], [[0]])  # fewer than 2 cuts
    with pytest.raises(ValueError):
        recipe_from_arrays([3], [[0, 1]])  # row length mismatch
    with pytest.raises(ValueError):
        recipe_from_arrays([2], [[0, -1]])  # negative spacers
    with pytest.raises(ValueError):
        recipe_from_arrays([], [])


def test_infinite_chacon_heights():
    # 3 cuts with (0, 1, 3h) spacers: h' = 6h + 1, so heights 1, 7, 43, 259
    m = RankOneMachine(infinite_chacon_recipe())
    for expect in (7, 43, 259):
        m.grow_to(m.stage + 1)
        assert m.tower[1] == expect
    # the tower always tiles [0, height * width)
    _, h, levels = m.tower
    assert m.space.length == h * levels[0].length


def test_infinite_chacon_orbit_of_zero():
    m = RankOneMachine(infinite_chacon_recipe())
    seg = orbit(m, 0, 6)
    assert seg[0] == (0, F(0))
    assert [k for k, _ in seg] == list(range(7))
    xs = [x for _, x in seg]
    assert len(set(xs)) == 7  # no periodicity
    back = orbit(m, xs[-1], -6)
    assert back[-1][1] == F(0)


def test_cesaro_translation_disjoint():
    t = Translation(1)
    a = parse_window("[0,1)")
    assert cesaro_overlap(t, a, a, 5) == [F(0)] * 5


def test_cesaro_translation_single_overlap():
    t = Translation(1)
    a = parse_window("[0,2)")
    assert cesaro_overlap(t, a, a, 4) == [F(1), F(1, 2), F(1, 3), F(1, 4)]


def test_cesaro_chacon_regression_fixture():
    # Frozen fixture: W = [97/200, 1/2) sits inside the cell [13/27, 14/27)
    # clear of both unresolvable chain limits in the cell (41/81 forward,
    # 40/81 backward).  The only overlap up to lag 64 is the partial-rigidity
    # return at the stage-3 height 40, with mass mu(W) - 1/81 = 43/16200.
    m = chacon()
    w = parse_window("[97/200,1/2)")
    avgs = cesaro_overlap(m, w, w, 64)
    assert avgs[:39] == [F(0)] * 39
    assert avgs[39] == F(43, 648000)
    assert avgs[63] == F(43, 1036800)
    for l in range(40, 64):
        assert avgs[l] == F(43, 16200) / (l + 1)
        assert avgs[l] < avgs[l - 1]


def test_cesaro_backward_fallback():
    # [1/2, 2/3) touches the forward-unresolvable limit 2/3 from the left
    # (tower distance 2), so terms past lag 2 must fall back to backward
    # evaluation; no bottom-level left endpoint obstructs that direction
    m = chacon()
    w = parse_window("[1/2,2/3)")
    avgs = cesaro_overlap(m, w, w, 8, max_stage=7)
    assert len(avgs) == 8
    assert all(a >= 0 for a in avgs)


def test_concurrent_apply_matches_serial():
    ref = chacon()
    xs = [F(i, 97) for i in range(1, 61)]
    ks = [1, -1, 5, 13, -13, 32]
    expected = {(x, k): ref.apply(x, k, max_stage=10) for x in xs for k in ks}
    m = chacon()
    with ThreadPoolExecutor(max_workers=8) as pool:
        futs = {
            (x, k): pool.submit(m.apply, x, k, 10) for x in xs for k in ks
        }
        got = {key: f.result() for key, f in futs.items()}
    assert got == expected


def _outcome(call):
    try:
        return call()
    except OrbitError as exc:
        return ("OrbitError", exc.requested_power, exc.max_stage)


def _random_point(rng, hi):
    kind = rng.randrange(3)
    if kind == 0:  # on the triadic grid: level endpoints of some stage
        den = 3 ** rng.randrange(7)
    elif kind == 1:
        den = 2 ** 30
    else:
        den = rng.randrange(2, 2000)
    return F(rng.randrange(int(hi * den)), den)


def _random_window(rng, hi):
    kind = rng.randrange(3)
    if kind == 0:  # confined to one cell of the 1/27 grid, ends off the grid
        cell = F(rng.randrange(int(hi * 27)), 27)
        a, b = sorted(rng.sample(range(1, 2 ** 20), 2))
        return Window.span(cell + F(a, 27 * 2 ** 20), cell + F(b, 27 * 2 ** 20))
    if kind == 1:  # a run of whole cells of a triadic grid
        den = 3 ** rng.randrange(1, 5)
        a, b = sorted(rng.sample(range(int(hi * den)), 2))
        return Window.span(F(a, den), F(b, den))
    parts = []
    for _ in range(rng.randrange(1, 4)):  # parts across several cells
        a, b = sorted(rng.sample(range(int(hi * 1000)), 2))
        parts.append(Interval(F(a, 1000), F(b, 1000)))
    return Window(parts)


@pytest.mark.parametrize("recipe,max_stage,hi", [
    (chacon3_recipe, 9, F(8, 5)),
    (chacon3_recipe, 4, F(8, 5)),
    (infinite_chacon_recipe, 6, 30),
    (infinite_chacon_recipe, 3, 30),
])
def test_stage_tables_match_materialized_tower(recipe, max_stage, hi):
    # the materialized tower is the reference: same values, same OrbitError
    # outcomes and the same stage after every query, on fresh machines
    rng = random.Random(max_stage)
    m, ref = RankOneMachine(recipe()), TowerOracle(recipe())
    for _ in range(400):
        x, k = _random_point(rng, hi), rng.randint(-40, 40)
        got = _outcome(lambda: m.apply(x, k, max_stage))
        assert got == _outcome(lambda: ref.apply(x, k, max_stage)), (x, k)
        assert m.stage == ref.stage
    for _ in range(20):
        w, k = _random_window(rng, hi), rng.randint(-40, 40)
        got = _outcome(lambda: m.image_window(w, k, max_stage))
        assert got == _outcome(lambda: ref.image_window(w, k, max_stage)), (w, k)
        assert m.stage == ref.stage
    assert m.tower == ref.tower
    assert m.pieces == ref.pieces
    assert m.space == ref.space


def test_point_outside_finite_space_fails_at_default_max_stage():
    # chacon3's space never reaches 3/2, so 2 is never born
    m = chacon()
    with pytest.raises(OrbitError) as ei:
        m.apply(2, 1)
    assert ei.value.point == 2
    assert ei.value.max_stage == DEFAULT_MAX_STAGE
    assert m.stage == DEFAULT_MAX_STAGE


def test_infinite_chacon_answers_at_default_max_stage():
    m = RankOneMachine(infinite_chacon_recipe())
    # 0 is the bottom level of every column: T^h0 is first defined at the
    # stage whose column is taller than h, here stage 10
    h = 1
    for _ in range(9):
        h = 6 * h + 1
    y = m.apply(0, h)
    assert m.stage == 10
    assert m.apply(y, -h) == 0
    with pytest.raises(OrbitError):
        m.apply(0, -1)
    assert m.stage == DEFAULT_MAX_STAGE


def test_orbit_error_depends_on_max_stage_not_on_growth():
    # T^4 at 0 is first defined at stage 2, whatever was built before
    m = chacon()
    m.grow_to(5)
    with pytest.raises(OrbitError):
        m.apply(0, 4, max_stage=1)
    assert m.apply(0, 4, max_stage=2) == F(1, 9)


@pytest.mark.parametrize("recipe,max_stage,hi", [
    (chacon3_recipe, 7, F(8, 5)),
    (infinite_chacon_recipe, 5, 30),
])
def test_piecewise_matches_materialized_tower(recipe, max_stage, hi):
    # pieces and residual tile the part; T^k is x + shift on each piece and
    # fails, as apply fails, on each residual interval, down to its ends
    rng = random.Random(max_stage)
    m, ref = RankOneMachine(recipe()), TowerOracle(recipe())
    for _ in range(30):
        part = _random_window(rng, hi).parts[0]
        part = Interval(part.lo - F(1, 7), part.hi) if rng.random() < 0.2 else part
        k = rng.choice([0, 1, -1, 2, -5, 8, -8, 13])
        pieces, residual = m.piecewise(part, k, max_stage)
        tiles = sorted([I for I, _ in pieces] + list(residual.parts))
        assert tiles[0].lo == part.lo and tiles[-1].hi == part.hi
        assert all(a.hi == b.lo for a, b in zip(tiles, tiles[1:]))
        for I, shift in pieces:
            for x in (I.lo, (I.lo + I.hi) / 2, I.hi - F(1, 10 ** 9) * I.length):
                assert ref.apply(x, k, max_stage) == x + shift
        for I in residual.parts:
            for x in (I.lo, I.hi - F(1, 10 ** 9) * I.length):
                with pytest.raises((OrbitError, ValueError)):
                    ref.apply(x, k, max_stage)
    # a translation is one piece
    assert Translation(F(1, 3)).piecewise(Interval(-1, 2), -2) == \
        ([(Interval(-1, 2), F(-2, 3))], Window())


def test_space_at_a_later_stage_grows_nothing():
    m = RankOneMachine(infinite_chacon_recipe())
    space = m.space_at(DEFAULT_MAX_STAGE)
    assert m.stage == 0
    m.grow_to(DEFAULT_MAX_STAGE)
    assert space == m.space == m.space_at(DEFAULT_MAX_STAGE)
    assert m.space_at(1) == Window.span(0, F(7, 3))
