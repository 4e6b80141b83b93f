"""Rectangle geometry."""

import pytest

from repro.geom.point import Point
from repro.geom.rect import Rect


def test_dimensions():
    r = Rect(0, 0, 4, 2)
    assert r.width == 4 and r.height == 2 and r.area == 8
    assert r.center == Point(2, 1)


def test_degenerate_rejected():
    with pytest.raises(ValueError):
        Rect(1, 0, 0, 1)


def test_zero_area_allowed():
    r = Rect(1, 1, 1, 1)
    assert r.area == 0.0
    assert r.contains(Point(1, 1))


def test_contains_boundary():
    r = Rect(0, 0, 2, 2)
    assert r.contains(Point(0, 0))
    assert r.contains(Point(2, 2))
    assert not r.contains(Point(2.01, 1))


def test_intersects():
    a = Rect(0, 0, 2, 2)
    assert a.intersects(Rect(1, 1, 3, 3))
    assert a.intersects(Rect(2, 2, 3, 3))  # touching counts
    assert not a.intersects(Rect(3, 3, 4, 4))


def test_expanded():
    r = Rect(1, 1, 2, 2).expanded(1.0)
    assert (r.xlo, r.ylo, r.xhi, r.yhi) == (0, 0, 3, 3)


def test_quadrants_partition():
    r = Rect(0, 0, 4, 4)
    quads = r.quadrants()
    assert len(quads) == 4
    assert sum(q.area for q in quads) == pytest.approx(r.area)
    assert quads[0].contains(Point(1, 1))   # SW
    assert quads[3].contains(Point(3, 3))   # NE
