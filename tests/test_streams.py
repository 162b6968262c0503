"""Batched replicate streams agree with numpy and with the serial sampler.

``Streams`` words are compared with ``PCG64(SeedSequence((seed, sid)))``
itself, and every batched count matrix, of the lattice and the cluster
constructions alike, with the serial loop
``counts(plan.sample(rng.child(r)), columns)`` that it replaces.
"""

import warnings
from fractions import Fraction as F
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sushilab import cluster, point_process, split_mark
from sushilab.cluster import ClusterEntry, ClusterLaw, SushiSpec
from sushilab.dynamics import (RankOneMachine, Translation, chacon3_recipe,
                               infinite_chacon_recipe)
from sushilab.experiment import ExperimentSpec, _build_plan
from sushilab.moments import count_matrix, diagonal_weight
from sushilab.point_process import Columns, Rng, Streams, counts, sample_poisson
from sushilab.windows import IntensitySpec, Interval, Window

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _unshift(y: int, s: int) -> int:
    """Inverse of x -> x ^ (x >> s) on 64 bits."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def parent_of(sid: int) -> int:
    """A stream id whose child 0 has stream id sid: splitmix64 inverted."""
    z = _unshift(sid, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z = _unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    z = _unshift(z, 30)
    return (z - 2 * GOLDEN) & MASK64  # child 0 and splitmix64 each add GOLDEN


def numpy_words(seed: int, sid: int, K: int) -> np.ndarray:
    return np.random.PCG64(np.random.SeedSequence((seed, sid))).random_raw(K)


seeds = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, MASK64))
sids = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, MASK64]),
                 st.integers(0, 2**32 - 1), st.integers(0, MASK64))


@settings(max_examples=60, deadline=None)
@given(seeds, sids, st.integers(1, 40), st.integers(1, 24))
def test_stream_words_are_numpy_pcg64_words(seed, sid, R, K):
    # sid is child 0's id, so both SeedSequence layouts and every sid width
    # are reached through the public Rng.child derivation
    rng = Rng(seed, parent_of(sid))
    assert rng.child(0).stream_id == sid
    got = Streams(rng, R).words(np.arange(R)[:, None], np.arange(K))
    for r in range(R):
        assert np.array_equal(got[r], numpy_words(seed, rng.child(r).stream_id, K))


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(0, MASK64), st.integers(0, 300), st.integers(0, 10**6))
def test_stream_words_at_any_offset(seed, sid, k, start):
    rng = Rng(seed, sid)
    s = Streams(rng, start + 3, start)
    for i in range(3):
        ref = numpy_words(seed, rng.child(start + i).stream_id, k + 5)
        assert np.array_equal(s.words(i, np.arange(k, k + 5)), ref[k:])


def test_scalar_words_wrap_without_warning():
    # the uint64 products wrap by design; scalar operands must not warn
    s = Streams(Rng(3, 0), 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        word = s.words(2, 7)
        row = s.words(np.array([2]), np.array([7]))
    assert np.shape(word) == ()
    assert row.tolist() == [7458623605411624229]
    assert word == row[0]


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(0, MASK64), st.integers(0, 50))
def test_numpy_draws_are_functions_of_raw_words(seed, sid, n):
    # the batched samplers read uniforms and grid indices off raw words
    def gen():
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, sid))))

    raw = numpy_words(seed, sid, n)
    assert np.array_equal(gen().random(n), point_process._uniforms(raw))
    assert np.array_equal(gen().integers(0, 2**53, size=n, dtype=np.uint64),
                          point_process._grid_index(raw))


def plan_of(kind: str, window: Window, alpha: F, kappa: F = F(1, 2)):
    params = {"poisson": {}, "split": {"probs": ["1/2", "1/2"]},
              "mark": {"mark_probs": ["1/6", "1/3", "1/2"]},
              "thin": {"kappa": str(kappa)}}[kind]
    return _build_plan(ExperimentSpec.from_dict({
        "name": "batched", "transformation": "translation",
        "intensity": str(alpha), "window": str(window), "construction": kind,
        "params": params, "battery": [], "replicates": 100, "seed": 1}))


def serial_matrix(plan, columns, R, rng) -> np.ndarray:
    cols = Columns(columns)
    return np.array([counts(plan.sample(rng.child(r)), cols)
                     for r in range(R)]).reshape(R, len(cols))


quarters = st.integers(0, 24).map(lambda n: F(n, 4))


@st.composite
def windows(draw, max_parts=3):
    ends = sorted(set(draw(st.lists(quarters, min_size=2, max_size=2 * max_parts))))
    return Window([Interval(a, b) for a, b in zip(ends[::2], ends[1::2])])


@st.composite
def sub_windows(draw, W: Window):
    """A window inside W: up to three pieces of its parts, on a fine grid."""
    pieces = []
    for p in draw(st.lists(st.sampled_from(W.parts), min_size=1, max_size=3)):
        a, b = sorted(draw(st.lists(st.integers(0, 64), min_size=2, max_size=2)))
        if a < b:
            pieces.append(Window.span(p.lo + p.length * a / 64, p.lo + p.length * b / 64))
    out = Window([])
    for w in pieces:
        out = out.union(w)
    return out if not out.is_empty else Window([W.parts[0]])


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(["poisson", "split", "mark", "thin"]),
       st.sampled_from([F(1, 2), F(3), F(1500)]), st.integers(1, 30),
       st.integers(0, 2**32), st.sampled_from([32, 300, 3000]))
def test_batched_counts_equal_serial_counts(data, kind, alpha, R, seed, block):
    W = data.draw(windows())
    if W.is_empty or (alpha == 1500 and W.length > 1):
        W = Window.span(0, 1)  # at alpha 1500 a part of length 1 is 3 frames
    kappa = F(1, 4) if alpha < 1500 else F(1, 8000)
    if kind == "thin" and W.shrink(kappa).is_empty:
        W = Window.span(0, 1)
    plan = plan_of(kind, W, alpha, kappa)
    marks = len(plan.probs or ())
    cols = [(data.draw(st.sampled_from([None, *range(marks)])),
             data.draw(sub_windows(plan.observed)))
            for _ in range(data.draw(st.integers(1, 4)))]
    rng = Rng(seed, 3)
    with mock.patch.object(split_mark, "BLOCK_WORDS", block):
        batched = count_matrix(plan.sample, cols, R, rng)
    assert np.array_equal(batched, serial_matrix(plan, cols, R, rng))


@pytest.mark.parametrize("window,alpha,kappa", [
    ("[0,1)", 1500, "1/2000"),  # three frames of one part
    ("[0,1)+[100001/100000,2)", 3, "1/20"),  # two parts 1/100000 apart
])
def test_thinning_compares_neighbours_across_frames(window, alpha, kappa):
    from sushilab.windows import parse_window

    plan = plan_of("thin", parse_window(window), F(alpha), F(kappa))
    cols = [(None, plan.observed),
            (None, plan.observed.intersect(Window.span(F(1, 3), F(3, 2))))]
    rng, R = Rng(20260823, 5), 200
    assert np.array_equal(count_matrix(plan.sample, cols, R, rng),
                          serial_matrix(plan, cols, R, rng))


def test_blocks_split_replicates_unevenly():
    plan = plan_of("split", Window([Interval(0, 2), Interval(3, 5)]), F(2))
    cols = [(0, Window.span(0, 1)), (1, Window([Interval(1, 2), Interval(3, 4)]))]
    rng, R = Rng(20260823, 9), 1001
    serial = serial_matrix(plan, cols, R, rng)
    with mock.patch.object(split_mark, "BLOCK_WORDS", 2000):
        blocks = list(plan.sample.count_blocks(rng, R, Columns(cols)))
        assert len(blocks) > 2 and R % len(blocks[0]) != 0
        assert np.array_equal(count_matrix(plan.sample, cols, R, rng), serial)
    assert np.array_equal(np.concatenate(blocks), serial)


def test_sort_runs_sorts_within_each_run():
    gen = np.random.default_rng(3)
    seg = np.sort(gen.integers(0, 5000, 20000))  # more runs than one key holds
    ks = gen.integers(0, 2**53, seg.size, dtype=np.uint64)
    ks[1::7] = ks[::7][:ks[1::7].size]  # ties within and across runs
    assert np.array_equal(point_process._sort_runs(ks, seg),
                          ks[np.lexsort((ks, seg))])
    assert point_process._sort_runs(ks[:0], seg[:0]).size == 0


@pytest.mark.parametrize("kind", ["poisson", "split", "thin"])
def test_diagonal_weight_batched_equals_serial(kind):
    plan = plan_of(kind, Window.span(0, 3), F(2))
    A = Window.span(1, 2)
    batched = diagonal_weight(plan.sample, A, 3, 5, 300, Rng(4, 4))
    serial = diagonal_weight(lambda rng: plan.sample(rng), A, 3, 5, 300, Rng(4, 4))
    assert batched == serial


def coarse_grid(monkeypatch, bits: int) -> None:
    """Let the serial and the batched sampler alike take grid indices on
    only 2**bits evenly spread values, so that sampled positions collide."""
    def grid_index(raw):
        return (raw >> np.uint64(64 - bits)) << np.uint64(53 - bits)

    monkeypatch.setattr(point_process, "_grid_index", grid_index)
    monkeypatch.setattr(Rng, "integers", lambda self, low, high, size:
                        grid_index(self._gen.bit_generator.random_raw(size)))


@pytest.mark.parametrize("kind", ["poisson", "split", "mark", "thin"])
def test_coincident_positions_take_the_serial_resample(monkeypatch, kind):
    coarse_grid(monkeypatch, 12)
    W = Window.span(0, 4)
    plan = plan_of(kind, W, F(2), kappa=F(1, 2))
    marks = len(plan.probs or ())
    cols = [(None, plan.observed), (marks - 1 if marks else None,
                                    Window([Interval(1, 2), Interval(3, F(7, 2))]))]
    rng, R = Rng(20260823, 17), 1000
    b = point_process._poisson_batch(plan.intensity, W, Streams(rng, R))
    assert b.redo.sum() >= 3  # replicates whose first positions collide
    assert np.array_equal(count_matrix(plan.sample, cols, R, rng),
                          serial_matrix(plan, cols, R, rng))


def test_coincidence_after_resample_raises_as_serial(monkeypatch):
    coarse_grid(monkeypatch, 2)
    plan = plan_of("poisson", Window.span(0, 4), F(2))
    cols = [(None, Window.span(0, 4))]
    with pytest.raises(RuntimeError, match="coincident sampled points"):
        serial_matrix(plan, cols, 50, Rng(1, 1))
    with pytest.raises(RuntimeError, match="coincident sampled points"):
        count_matrix(plan.sample, cols, 50, Rng(1, 1))


def test_batched_columns_checked_as_serial():
    plan = plan_of("split", Window.span(0, 4), F(1))
    with pytest.raises(ValueError, match=r"window \[3,5\) exceeds observed window"):
        count_matrix(plan.sample, [(0, Window.span(3, 5))], 10, Rng(1))
    with pytest.raises(ValueError, match="column selector 2 names no component"):
        count_matrix(plan.sample, [(2, Window.span(0, 1))], 10, Rng(1))


# ---------------------------------------------------------------------------
# cluster measures: grounds drawn from Streams, counts pulled back


def serial_cluster_matrix(sampler, columns, R, rng) -> np.ndarray:
    cols = Columns(columns)
    return np.array([counts(sampler(rng.child(r)), cols)
                     for r in range(R)]).reshape(R, len(cols))


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(0, MASK64), st.data())
def test_poisson_batch_from_used_words_is_the_next_sample(seed, sid, data):
    # grounds read one after another from each row's stream, as
    # sample_id_measure reads its grounds from one Rng
    rng, R = Rng(seed, sid), data.draw(st.integers(1, 12))
    draws = [(IntensitySpec(data.draw(st.sampled_from([F(1, 2), F(3), F(1500)]))),
              data.draw(windows())) for _ in range(3)]
    draws = [(a, W if a.alpha < 1500 else Window.span(0, 1)) for a, W in draws]
    streams, used, batches = Streams(rng, R), None, []
    for intensity, W in draws:
        batches.append(point_process._poisson_batch(intensity, W, streams, used))
        used = batches[-1].used
    for r in range(R):
        g = rng.child(r)
        for b, (intensity, W) in zip(batches, draws):
            c = sample_poisson(intensity, W, g)
            mine = b.row == r
            for f, ks in enumerate(c._ks):
                assert np.array_equal(b.ks[mine & (b.frame == f)], ks)
        # the next word of the row is the next word of the serial stream
        word = streams.words(np.array([r]), used[r:r + 1])
        assert point_process._uniforms(word)[0] == g.random()


@lru_cache(maxsize=None)
def chacon3_levels():
    """chacon3, and its stage-3 levels on which T^-1..T^2 resolve all around."""
    T = RankOneMachine(chacon3_recipe(), label="chacon3")
    T.grow_to(3)
    return T, T.tower[2][3:36]


@st.composite
def cluster_cases(draw):
    """(transformation, multi-part core, ground scale, law): every cluster
    of the law resolves on its ground window."""
    kind = draw(st.sampled_from(["translation", "chacon3", "infinite-chacon"]))
    if kind == "translation":
        T, core, scales = Translation(1), draw(windows()), [F(1, 2), F(3)]
        if core.is_empty:
            core = Window.span(0, 1)
    elif kind == "chacon3":
        T, levels = chacon3_levels()
        picked = draw(st.lists(st.sampled_from(levels), min_size=1, max_size=4))
        core, scales = Window(sorted(set(picked), key=lambda p: p.lo)), [F(10), F(60)]
    else:
        T = RankOneMachine(infinite_chacon_recipe(), label="infinite-chacon")
        core = draw(st.sampled_from([Window.span(2, 3), Window.span(3, 4),
                                     Window([Interval(2, 3), Interval(F(7, 2), 4)])]))
        scales = [F(1, 2), F(3)]
    offsets = st.lists(st.integers(-1, 2), min_size=1, max_size=4, unique=True)
    weights = st.sampled_from([F(1), F(2), F(1, 2), F(2, 3), F(5, 4)])
    rows = draw(st.lists(st.tuples(offsets, st.lists(weights, min_size=4, max_size=4),
                                   st.integers(0, 3)), min_size=1, max_size=3))
    if not any(n for _, _, n in rows):
        rows[0] = (rows[0][0], rows[0][1], 1)
    total = sum(n for _, _, n in rows)
    law = ClusterLaw([ClusterEntry(dict(zip(ks, ws)), F(n, total))
                      for ks, ws, n in rows])
    return T, core, draw(st.sampled_from(scales)), law


@settings(max_examples=60, deadline=None)
@given(cluster_cases(), st.sampled_from(["sushi", "id"]), st.integers(1, 30),
       st.integers(0, 2**32), st.sampled_from([32, 300, 3000]), st.data())
def test_batched_cluster_counts_equal_serial_counts(case, route, R, seed, block,
                                                    data):
    T, core, c, law = case
    sampler = cluster.ClusterSampler(SushiSpec(c, law, T), core, route)
    cols = [(None, data.draw(sub_windows(core)))
            for _ in range(data.draw(st.integers(1, 3)))]
    rng = Rng(seed, 11)
    with mock.patch.object(cluster, "BLOCK_WORDS", block):
        batched = count_matrix(sampler, cols, R, rng)
    assert batched.dtype == np.float64
    assert np.array_equal(batched, serial_cluster_matrix(sampler, cols, R, rng))


def pair_law(*weights) -> ClusterLaw:
    return ClusterLaw([ClusterEntry({k: a for k, a in enumerate(ws)}, F(1, len(weights)))
                       for ws in weights])


@pytest.mark.parametrize("route", ["sushi", "id"])
def test_cluster_blocks_split_replicates_unevenly(route):
    law = ClusterLaw([ClusterEntry({0: 2}, F(1, 3)), ClusterEntry({0: 1, 1: 1}, F(2, 3)),
                      ClusterEntry({-1: F(1, 2)}, 0)])
    sampler = cluster.ClusterSampler(SushiSpec(F(1, 2), law, Translation(1)),
                                     Window([Interval(0, 3), Interval(4, 6)]), route)
    cols = [(None, Window.span(0, 1)), (None, Window([Interval(1, 2), Interval(4, 5)]))]
    rng, R = Rng(20260823, 9), 1001
    serial = serial_cluster_matrix(sampler, cols, R, rng)
    with mock.patch.object(cluster, "BLOCK_WORDS", 400):
        blocks = list(sampler.count_blocks(rng, R, Columns(cols)))
    assert len(blocks) > 2 and R % len(blocks[0]) != 0
    assert np.array_equal(np.concatenate(blocks), serial)


@pytest.mark.parametrize("route", ["sushi", "id"])
@pytest.mark.parametrize("law", [
    pair_law([F(1, 3**34)], [F(1, 3**34), F(2, 3**34)]),  # D = 3**34 > 2**53
    pair_law([2**60 + 1], [1, 3]),  # D x weight > 2**53
    pair_law([2**50], [F(1, 3)]),  # a row of more than 2 points passes 2**53
])
def test_pull_back_past_2_53_is_exact(route, law):
    sampler = cluster.ClusterSampler(SushiSpec(F(3), law, Translation(1)),
                                     Window.span(0, 4), route)
    cols = [(None, Window.span(0, 4)), (None, Window([Interval(0, 1), Interval(2, 3)]))]
    pull = cluster._PullBack(sampler, Columns(cols))
    assert pull.D > 2**53 or pull.M64 is None or pull.M.max() == 3 * 2**50
    rng, R = Rng(3, 3), 200
    assert np.array_equal(count_matrix(sampler, cols, R, rng),
                          serial_cluster_matrix(sampler, cols, R, rng))


def test_id_collisions_in_first_and_later_grounds_take_the_serial_resample(
        monkeypatch):
    coarse_grid(monkeypatch, 12)
    law = ClusterLaw([ClusterEntry({0: 2}, F(1, 2)), ClusterEntry({0: 1, 1: 1}, F(1, 2))])
    sampler = cluster.ClusterSampler(SushiSpec(F(4), law, Translation(1)),
                                     Window.span(0, 4), "id")
    rng, R = Rng(20260823, 17), 1000
    cols = [(None, Window.span(0, 4)), (None, Window([Interval(1, 2), Interval(3, 4)]))]
    streams, used, redo = Streams(rng, R), None, []
    for ground, _ in sampler._grounds:
        b = ground.batch(streams, used)
        used = b.used
        redo.append(b.redo)
    assert redo[0].sum() >= 3 and (redo[1] & ~redo[0]).sum() >= 3
    assert np.array_equal(count_matrix(sampler, cols, R, rng),
                          serial_cluster_matrix(sampler, cols, R, rng))


def test_sushi_ground_collisions_take_the_serial_resample(monkeypatch):
    coarse_grid(monkeypatch, 12)
    law = ClusterLaw([ClusterEntry({0: 2}, F(1, 2)), ClusterEntry({0: 1, 1: 1}, F(1, 2))])
    sampler = cluster.ClusterSampler(SushiSpec(F(2), law, Translation(1)),
                                     Window.span(0, 4), "sushi")
    rng, R = Rng(20260823, 19), 1000
    cols = [(None, Window.span(0, 4)), (None, Window.span(F(1, 2), 3))]
    ground = sampler._grounds[0][0]
    assert ground.batch(Streams(rng, R)).redo.sum() >= 3
    assert np.array_equal(count_matrix(sampler, cols, R, rng),
                          serial_cluster_matrix(sampler, cols, R, rng))


def test_batched_cluster_columns_checked_as_serial():
    law = ClusterLaw([ClusterEntry({0: 1, 1: 1}, 1)])
    sampler = cluster.ClusterSampler(SushiSpec(1, law, Translation(1)),
                                     Window.span(0, 4), "sushi")
    with pytest.raises(ValueError, match=r"window \[3,5\) exceeds observed window"):
        count_matrix(sampler, [(None, Window.span(3, 5))], 10, Rng(1))
    with pytest.raises(ValueError, match="column selector 0 names no component"):
        count_matrix(sampler, [(0, Window.span(0, 1))], 10, Rng(1))
