"""Axis-aligned rectangles (um)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.geom.point import Point


@dataclass(frozen=True)
class Rect:
    """An immutable axis-aligned rectangle with ``xlo <= xhi``, ``ylo <= yhi``."""

    xlo: float
    ylo: float
    xhi: float
    yhi: float

    def __post_init__(self) -> None:
        if self.xlo > self.xhi or self.ylo > self.yhi:
            raise ValueError(
                f"degenerate rect: ({self.xlo},{self.ylo})-({self.xhi},{self.yhi})")

    @property
    def width(self) -> float:
        return self.xhi - self.xlo

    @property
    def height(self) -> float:
        return self.yhi - self.ylo

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.xlo + self.xhi) / 2.0, (self.ylo + self.yhi) / 2.0)

    def contains(self, p: Point) -> bool:
        """True if ``p`` lies inside or on the boundary."""
        return self.xlo <= p.x <= self.xhi and self.ylo <= p.y <= self.yhi

    def intersects(self, other: "Rect") -> bool:
        """True if this rect and ``other`` overlap or touch."""
        return not (other.xlo > self.xhi or other.xhi < self.xlo
                    or other.ylo > self.yhi or other.yhi < self.ylo)

    def expanded(self, margin: float) -> "Rect":
        """This rect grown by ``margin`` on every side (may be negative)."""
        return Rect(self.xlo - margin, self.ylo - margin,
                    self.xhi + margin, self.yhi + margin)

    def quadrants(self) -> tuple["Rect", "Rect", "Rect", "Rect"]:
        """Split into four equal quadrants: SW, SE, NW, NE."""
        c = self.center
        return (
            Rect(self.xlo, self.ylo, c.x, c.y),
            Rect(c.x, self.ylo, self.xhi, c.y),
            Rect(self.xlo, c.y, c.x, self.yhi),
            Rect(c.x, c.y, self.xhi, self.yhi),
        )
