"""Manhattan segments and L-routes."""

import pytest

from repro.geom.point import Point
from repro.geom.segment import Segment, l_route


def test_orientation():
    h = Segment(Point(0, 1), Point(5, 1))
    v = Segment(Point(2, 0), Point(2, 5))
    assert h.horizontal and not v.horizontal
    assert h.track_coord == 1 and v.track_coord == 2


def test_diagonal_rejected():
    with pytest.raises(ValueError):
        Segment(Point(0, 0), Point(1, 1))


def test_zero_length_is_horizontal():
    s = Segment(Point(1, 1), Point(1, 1))
    assert s.horizontal
    assert s.length == 0.0


def test_lo_hi_normalized():
    s = Segment(Point(5, 1), Point(0, 1))
    assert s.lo == 0 and s.hi == 5 and s.length == 5


def test_overlap_same_track_metric():
    a = Segment(Point(0, 0), Point(10, 0))
    b = Segment(Point(5, 3), Point(15, 3))
    assert a.overlap_with(b) == 5.0
    assert b.overlap_with(a) == 5.0


def test_overlap_disjoint_and_cross_orientation():
    a = Segment(Point(0, 0), Point(2, 0))
    b = Segment(Point(5, 0), Point(9, 0))
    v = Segment(Point(1, -1), Point(1, 1))
    assert a.overlap_with(b) == 0.0
    assert a.overlap_with(v) == 0.0


def test_point_at():
    s = Segment(Point(0, 0), Point(10, 0))
    assert s.point_at(0.0) == Point(0, 0)
    assert s.point_at(0.3) == Point(3, 0)
    assert s.point_at(1.0) == Point(10, 0)
    with pytest.raises(ValueError):
        s.point_at(1.1)


def test_l_route_general():
    legs = l_route(Point(0, 0), Point(3, 4))
    assert len(legs) == 2
    assert sum(leg.length for leg in legs) == 7.0
    assert legs[0].a == Point(0, 0) and legs[-1].b == Point(3, 4)


def test_l_route_orientation_choice():
    hf = l_route(Point(0, 0), Point(3, 4), horizontal_first=True)
    vf = l_route(Point(0, 0), Point(3, 4), horizontal_first=False)
    assert hf[0].horizontal and not vf[0].horizontal


def test_l_route_straight_and_degenerate():
    assert len(l_route(Point(0, 0), Point(5, 0))) == 1
    assert l_route(Point(1, 1), Point(1, 1)) == []
