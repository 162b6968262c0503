"""Batched replicate streams agree with numpy and with the serial sampler.

``Streams`` words are compared with ``PCG64(SeedSequence((seed, sid)))``
itself, and every batched count matrix with the serial loop
``counts(plan.sample(rng.child(r)), columns)`` that it replaces.
"""

from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sushilab import point_process, split_mark
from sushilab.experiment import ExperimentSpec, _build_plan
from sushilab.moments import count_matrix, diagonal_weight
from sushilab.point_process import Columns, Rng, Streams, counts
from sushilab.windows import Interval, Window

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
