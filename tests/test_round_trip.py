"""``ClusterSampler.round_trip_blocks`` decides the orbit-coding round trip
replicate by replicate as the ``Fraction`` check does, and the certificate
that clears its rows is sound.

The oracle samples each replicate, then encodes, decodes, encodes and
decodes it again on exact rationals.  The block path clears a row on grid
indices when no two of its ground points meet within M = (offset span of
the law) + K_max steps of T, and runs the oracle's check on every other
row.  On a coarse grid (``test_streams.coarse_grid``) a translation by a
whole number of grid cells makes ground points meet at every orbit
distance, so rows that the certificate clears, rows that it leaves to the
oracle and rows that are redrawn all occur.
"""

import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sushilab.cluster import (
    ClusterEntry,
    ClusterLaw,
    ClusterSampler,
    SushiSpec,
    _orbit_groups,
    phi_decode,
    phi_encode,
)
from sushilab.dynamics import (DEFAULT_MAX_STAGE, OrbitError, RankOneMachine,
                               Translation, chacon3_recipe,
                               infinite_chacon_recipe)
from sushilab.point_process import Rng, Streams, sample_poisson
from sushilab.split_mark import attach_marks
from sushilab.windows import IntensitySpec, Interval, Window, parse_window

from test_streams import coarse_grid

MACHINES = {
    "chacon3": RankOneMachine(chacon3_recipe(), label="chacon3"),
    "infinite-chacon": RankOneMachine(infinite_chacon_recipe(),
                                      label="infinite-chacon"),
}

# each law's entries as ({k: a_k}, prob); "twin" hangs two entries with one
# offset set, so that its id grounds share one lattice and can coincide
LAWS = {
    "pair": [({0: 1, 1: 1}, 1)],
    "mixed": [({0: 2}, F(1, 2)), ({0: 1, 1: 1}, F(1, 2))],
    "twin": [({0: 1, 1: 1}, F(1, 2)), ({0: 2, 1: 1}, F(1, 2))],
    "wide": [({0: 1, 3: 1}, 1)],
    "three": [({-1: 1, 0: 2, 1: 1}, F(1, 3)), ({0: 1}, F(2, 3))],
}

# (window, ground scale c), multi-part cores included; on the chacon3
# window, T^-3 needs more than DEFAULT_MAX_STAGE stages, so "wide" is left out
WINDOWS = {
    "translation": [("[0,8)", F(1, 2)), ("[0,2)+[3,5)", F(1)),
                    ("[-3,-1)+[1/3,2)+[5,6)", F(1))],
    "chacon3": [("[1/9,1/3)+[4/9,8/9)+[1,11/9)+[4/3,13/9)", F(4))],
    "infinite-chacon": [("[5/9,2/3)+[8/9,1)+[11/9,4/3)+[14/9,5/3)", F(4))],
}

GRID_BITS = 10


def law_of(name):
    return ClusterLaw([ClusterEntry(a, p) for a, p in LAWS[name]])


def cell_step(window, law, t):
    """A translation step of t cells of the coarse grid on the ground
    window of a one-part core: the ground window [a - k_max s, a + L - k_min
    s) is 2**GRID_BITS cells wide, so s = t L / (2**GRID_BITS - t span)."""
    L = parse_window(window).length
    return F(t) * L / (2**GRID_BITS - t * law.span)


def fraction_fails(v, T, K_max, core):
    """The Fraction round trip: does it fail to return v's coding?"""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        enc = phi_encode(v, T, K_max)
    v2 = phi_decode(enc, T, window=core)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        enc2 = phi_encode(v2, T, K_max)
    return enc2 != enc or phi_decode(enc2, T, window=core) != v2


def outcome(fn):
    """fn's value, or the type and text of the error it raises."""
    try:
        return fn()
    except (OrbitError, RuntimeError) as exc:
        return (type(exc).__name__, str(exc))


def serial(sampler, rng, R, K_max):
    return [fraction_fails(sampler(rng.child(r)), sampler.spec.T, K_max,
                           sampler.core) for r in range(R)]


def batched(sampler, rng, R, K_max):
    return np.concatenate(list(sampler.round_trip_blocks(rng, R, K_max))).tolist()


def cleared(sampler, rng, R, K_max):
    """The rows r < R that the certificate clears."""
    ok = sampler._certified(sampler._batches(Streams(rng, R)), K_max)
    return np.flatnonzero(ok).tolist()


def hung(sampler, rng):
    """(ground point, entry) of every cluster of the call sampler(rng),
    drawn as sample_sushi and sample_id_measure draw them."""
    spec = sampler.spec
    if sampler.route == "sushi":
        ground = attach_marks(sample_poisson(IntensitySpec(spec.c), sampler.buffer,
                                             rng), spec.law.marks, rng)
        return [(x, spec.law.catalog[m])
                for x, m in zip(ground.points, ground.marks.tolist())]
    out = []
    for e, entry in enumerate(spec.law.catalog):
        if entry.prob:
            ground = sample_poisson(IntensitySpec(spec.c * entry.prob),
                                    sampler.buffers[e], rng)
            out += [(x, entry) for x in ground.points]
    return out


def premise_breaks(sampler, rng, rows, K_max):
    """The rows whose sample's orbit groups are not exactly its clusters'
    atom sets in core."""
    T, core, out = sampler.spec.T, sampler.core, []
    for r in rows:
        groups = sorted(tuple(sorted(T.apply(a, j) for j in rel))
                        for a, rel in _orbit_groups(sampler(rng.child(r)), T, K_max))
        clusters = sorted(atoms for atoms in (
            tuple(sorted(p for p in (T.apply(x, k) for k, _ in entry.weights)
                         if p in core))
            for x, entry in hung(sampler, rng.child(r))) if atoms)
        if groups != clusters:
            out.append(r)
    return out


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(WINDOWS)))
    window, c = draw(st.sampled_from(WINDOWS[name]))
    law = draw(st.sampled_from(sorted(set(LAWS) - ({"wide"} if name == "chacon3"
                                                   else set()))))
    route = draw(st.sampled_from(["sushi", "id"]))
    K_max = draw(st.integers(0, 4))
    step, grid = None, draw(st.booleans())
    if name == "translation":
        step = draw(st.sampled_from(["cell", F(1), F(5, 2)]))
        grid = grid or step == "cell"
        if "+" in window:  # cell steps suit one-part cores
            step = F(1) if step == "cell" else step
    return name, window, c, law, route, K_max, step, grid, \
        draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(cases())
def test_blocks_equal_fraction_checks(case):
    name, window, c, law_name, route, K_max, step, grid, seed = case
    law = law_of(law_name)
    if name == "translation":
        T = Translation(cell_step(window, law, 128) if step == "cell" else step)
    else:
        T = MACHINES[name]
    with pytest.MonkeyPatch.context() as mp:
        if grid:
            coarse_grid(mp, GRID_BITS)
        sampler = ClusterSampler(SushiSpec(c, law, T), parse_window(window), route)
        rng, R = Rng(seed, 3), 30
        want = outcome(lambda: serial(sampler, rng, R, K_max))
        assert outcome(lambda: batched(sampler, rng, R, K_max)) == want


@pytest.fixture
def grid(monkeypatch):
    coarse_grid(monkeypatch, GRID_BITS)


def meeting_sampler(law_name="pair", route="sushi", t=128):
    """Clusters on [0,8) under a translation of t cells of the coarse grid."""
    law = law_of(law_name)
    T = Translation(cell_step("[0,8)", law, t))
    return ClusterSampler(SushiSpec(F(1, 2), law, T), Window.span(0, 8), route)


@pytest.mark.parametrize("law_name,route,K_max", [
    ("pair", "sushi", 2), ("twin", "id", 1), ("mixed", "id", 3),
    ("wide", "sushi", 2), ("three", "id", 0)])
def test_meeting_grounds_decided_as_fraction_checks(grid, law_name, route, K_max):
    """Ground points that meet leave some rows uncleared; the block path
    still matches the oracle row by row."""
    sampler, rng, R = meeting_sampler(law_name, route), Rng(20260823, 5), 300
    want = outcome(lambda: serial(sampler, rng, R, K_max))
    assert outcome(lambda: batched(sampler, rng, R, K_max)) == want
    assert 0 < len(cleared(sampler, rng, R, K_max)) < R


@pytest.mark.parametrize("law_name,route,K_max", [
    ("pair", "sushi", 2), ("pair", "sushi", 0), ("twin", "id", 1),
    ("wide", "id", 2), ("three", "sushi", 1)])
def test_cleared_rows_group_exactly_by_cluster(grid, law_name, route, K_max):
    """The premise of the certificate: on every cleared row, the orbit
    groups of the serial sample are its clusters' atom sets in core."""
    sampler, rng, R = meeting_sampler(law_name, route), Rng(20260823, 9), 1000
    ok = cleared(sampler, rng, R, K_max)
    assert ok
    assert premise_breaks(sampler, rng, ok, K_max) == []


def test_a_radius_below_M_breaks_the_premise(grid, monkeypatch):
    """Ground points meeting at orbit distance exactly M: the cluster of a
    point x left of the core has its atom T x in core, and the scan from it
    reaches T^(1 + K_max) x = y.  A certificate of radius M - 1 clears such
    rows, and their groups are not their clusters."""
    K_max = 2
    sampler, rng, R = meeting_sampler(), Rng(20260823, 9), 2000
    assert premise_breaks(sampler, rng, cleared(sampler, rng, R, K_max), K_max) == []
    span = ClusterLaw.span.fget
    monkeypatch.setattr(ClusterLaw, "span", property(lambda law: span(law) - 1))
    assert premise_breaks(sampler, rng, cleared(sampler, rng, R, K_max), K_max)


class Holey(Translation):
    """A translation whose pieces of T^k, k != 0, leave HOLE unresolved, as
    a rank-one machine leaves where T^k needs more stages than pieces
    take; ``apply`` resolves everywhere."""

    HOLE = Window([Interval(F(1), F(4)), Interval(F(5), F(7))])

    def piecewise(self, part, k, max_stage=DEFAULT_MAX_STAGE):
        if k == 0:
            return super().piecewise(part, k, max_stage)
        rest = Window([part])
        return [(I, k * self.step) for I in rest.difference(self.HOLE).parts], \
            rest.intersect(self.HOLE)


def test_residual_rows_take_the_fraction_path(grid):
    """Rows with a ground point where pieces leave T^k unresolved are not
    cleared, and the Fraction check decides them, meetings included."""
    law, K_max = law_of("pair"), 2
    T = Holey(cell_step("[0,8)", law, 16))
    sampler, rng, R = ClusterSampler(SushiSpec(F(1, 2), law, T), Window.span(0, 8),
                                     "sushi"), Rng(20260823, 9), 1000
    ok = cleared(sampler, rng, R, K_max)
    for r in ok:
        assert not any(x in Holey.HOLE for x, _ in hung(sampler, rng.child(r)))
    assert premise_breaks(sampler, rng, ok, K_max) == []
    assert batched(sampler, rng, 300, K_max) == serial(sampler, rng, 300, K_max)


def test_rank_one_residual_rows_take_the_fraction_path():
    """On [59048/59049,1), T^1 and T^2 of chacon3 leave the last third
    unresolved by the pieces, so every row with a ground point there is
    left to the Fraction check, which decides it as the oracle does."""
    law = ClusterLaw([ClusterEntry({0: 1}, 1)])
    sampler = ClusterSampler(SushiSpec(F(3 * 59049), law, MACHINES["chacon3"]),
                             parse_window("[59048/59049,1)"), "sushi")
    rng, R, K_max = Rng(20260823, 4), 200, 2
    ok = cleared(sampler, rng, R, K_max)
    assert 0 < len(ok) < R
    residual = F(177146, 177147)
    assert all(x < residual for r in ok for x, _ in hung(sampler, rng.child(r)))
    assert batched(sampler, rng, R, K_max) == serial(sampler, rng, R, K_max)


def test_redrawn_rows_raise_as_the_serial_path(monkeypatch):
    """On a grid of 32 cells, positions coincide; a row whose resample
    coincides again raises in both paths, at the same row."""
    coarse_grid(monkeypatch, 5)
    sampler, rng = meeting_sampler(t=1), Rng(20260823, 9)
    calls, call = [], ClusterSampler.__call__

    def logged(self, rng):
        calls.append(rng.stream_id)
        return call(self, rng)

    monkeypatch.setattr(ClusterSampler, "__call__", logged)
    want = outcome(lambda: serial(sampler, rng, 200, 2))
    assert want[0] == "RuntimeError"
    last, calls[:] = calls[-1], []
    assert outcome(lambda: batched(sampler, rng, 200, 2)) == want
    assert calls[-1] == last
