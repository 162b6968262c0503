"""Exact interval/window algebra."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sushilab.windows import (
    EMPTY,
    IntensitySpec,
    Interval,
    Window,
    as_rat,
    format_rat,
    parse_window,
)

rats = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@st.composite
def intervals(draw):
    a = draw(rats)
    b = draw(rats.filter(lambda x: x != a))
    return Interval(min(a, b), max(a, b))


@st.composite
def windows(draw):
    return Window(draw(st.lists(intervals(), max_size=4)))


def test_as_rat_conversions():
    assert as_rat("3/7") == F(3, 7)
    assert as_rat(5) == F(5)
    assert as_rat(0.25) == F(1, 4)  # exact binary float
    assert as_rat(F(2, 6)) == F(1, 3)
    for v in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="cannot interpret"):
            as_rat(v)
    with pytest.raises(TypeError):
        as_rat(True)
    assert format_rat(F(-3, 7)) == "-3/7"
    assert format_rat(F(4)) == "4"


def test_interval_basics():
    iv = Interval(F(0), F(1))
    assert iv.length == 1
    assert F(0) in iv and F(1) not in iv  # half-open
    assert F(1, 2) in iv
    with pytest.raises(ValueError):
        Interval(F(1), F(1))  # degenerate
    with pytest.raises(ValueError):
        Interval(F(2), F(1))


def test_window_canonicalization():
    # abutting and overlapping parts merge; order is normalized
    w = Window([Interval(F(1), F(2)), Interval(F(0), F(1))])
    assert w == Window.span(0, 2)
    w2 = Window([Interval(F(0), F(3, 2)), Interval(F(1), F(2))])
    assert w2 == Window.span(0, 2)
    w3 = Window([Interval(F(2), F(3)), Interval(F(0), F(1))])
    assert len(w3.parts) == 2
    assert w3.parts[0].lo == 0  # sorted


def test_parse_format_round_trip():
    for text in ("[0,1)", "[0,1)+[3/2,2)", "[-1/3,0)+[5,11/2)", "[)"):
        w = parse_window(text)
        assert parse_window(str(w)) == w
    assert parse_window("[)") == EMPTY
    assert parse_window("[1,2)+[0,1)") == Window.span(0, 2)  # canonicalized
    with pytest.raises(ValueError):
        parse_window("[2,1)")
    with pytest.raises(ValueError):
        parse_window("(0,1)")


def test_set_algebra_examples():
    a = parse_window("[0,2)")
    b = parse_window("[1,3)")
    assert a.intersect(b) == parse_window("[1,2)")
    assert a.union(b) == parse_window("[0,3)")
    assert a.difference(b) == parse_window("[0,1)")
    assert b.difference(a) == parse_window("[2,3)")
    assert a.intersect(EMPTY) == EMPTY
    assert a.union(EMPTY) == a
    c = parse_window("[0,1)+[2,3)")
    assert c.difference(parse_window("[1/2,5/2)")) == parse_window("[0,1/2)+[5/2,3)")


def test_translate_buffer_shrink():
    w = parse_window("[0,1)+[2,3)")
    assert w.translate(F(1, 2)) == parse_window("[1/2,3/2)+[5/2,7/2)")
    assert w.translate(F(0)) == w
    assert w.buffer(F(1, 2)) == parse_window("[-1/2,3/2)+[3/2,7/2)").union(EMPTY)
    # buffering by enough merges the parts
    assert w.buffer(F(1)) == parse_window("[-1,4)")
    assert parse_window("[0,4)").shrink(F(1)) == parse_window("[1,3)")
    assert parse_window("[0,1)").shrink(F(1)) == EMPTY


def test_covers_and_contains():
    big = parse_window("[0,10)")
    assert big.covers(parse_window("[1,2)+[3,4)"))
    assert not parse_window("[0,1)+[2,3)").covers(parse_window("[0,3)"))
    w = parse_window("[0,1)+[2,3)")
    assert F(0) in w and F(5, 2) in w
    assert F(3, 2) not in w and F(3) not in w


def test_intensity_spec():
    spec = IntensitySpec(F(1, 2))
    assert spec.mass(parse_window("[0,3)+[4,5)")) == F(2)
    assert IntensitySpec(0).mass(parse_window("[0,10)")) == 0
    with pytest.raises(ValueError):
        IntensitySpec(F(-1))


@given(windows(), windows())
def test_length_additivity(a, b):
    assert a.length == a.intersect(b).length + a.difference(b).length
    assert a.union(b).length == a.length + b.length - a.intersect(b).length


@given(windows(), windows())
def test_intersect_commutes_and_canonical_equality(a, b):
    assert a.intersect(b) == b.intersect(a)
    assert a.union(b) == b.union(a)
    # structural equality is set equality: rebuild from shattered pieces
    pieces = list(a.intersect(b).parts) + list(a.difference(b).parts)
    assert Window(pieces) == a.intersect(b).union(a.difference(b))


@given(windows(), rats)
def test_translate_preserves_length(w, t):
    assert w.translate(t).length == w.length
    assert w.translate(t).translate(-t) == w


@given(windows())
def test_difference_with_self_is_empty(w):
    assert w.difference(w) == EMPTY
    assert w.intersect(w) == w
    assert w.union(w) == w
