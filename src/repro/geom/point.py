"""2-D points in micrometers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Point:
    """An immutable 2-D point (um)."""

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, factor: float) -> "Point":
        """This point with both coordinates multiplied by ``factor``."""
        return Point(self.x * factor, self.y * factor)

    def manhattan_to(self, other: "Point") -> float:
        """Manhattan (L1) distance to ``other``."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def midpoint(self, other: "Point") -> "Point":
        """The midpoint between this point and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def snapped(self, step: float) -> "Point":
        """This point snapped to the nearest multiple of ``step`` in x and y."""
        if step <= 0.0:
            raise ValueError("snap step must be positive")
        return Point(round(self.x / step) * step, round(self.y / step) * step)


def manhattan(a: Point, b: Point) -> float:
    """Manhattan (L1) distance between two points."""
    return a.manhattan_to(b)
