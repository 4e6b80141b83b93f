"""Point geometry."""

import pytest
from hypothesis import given, strategies as st

from repro.geom.point import Point, manhattan

coords = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False)


def test_add_sub():
    assert Point(1, 2) + Point(3, 4) == Point(4, 6)
    assert Point(3, 4) - Point(1, 2) == Point(2, 2)


def test_scaled():
    assert Point(1.5, -2.0).scaled(2.0) == Point(3.0, -4.0)


def test_manhattan_basic():
    assert manhattan(Point(0, 0), Point(3, 4)) == 7.0
    assert Point(1, 1).manhattan_to(Point(1, 1)) == 0.0


@given(coords, coords, coords, coords)
def test_manhattan_symmetry(x1, y1, x2, y2):
    a, b = Point(x1, y1), Point(x2, y2)
    assert a.manhattan_to(b) == b.manhattan_to(a)
    assert a.manhattan_to(b) >= 0.0


@given(coords, coords, coords, coords, coords, coords)
def test_manhattan_triangle_inequality(x1, y1, x2, y2, x3, y3):
    a, b, c = Point(x1, y1), Point(x2, y2), Point(x3, y3)
    assert a.manhattan_to(c) <= a.manhattan_to(b) + b.manhattan_to(c) + 1e-6


def test_midpoint():
    assert Point(0, 0).midpoint(Point(2, 4)) == Point(1, 2)


def test_snapped():
    assert Point(1.3, 2.7).snapped(0.5) == Point(1.5, 2.5)
    with pytest.raises(ValueError):
        Point(0, 0).snapped(0.0)


def test_points_are_ordered_and_hashable():
    assert Point(0, 1) < Point(1, 0)
    assert len({Point(0, 0), Point(0, 0), Point(1, 0)}) == 2
