"""Manhattan (axis-parallel) wire segments."""

from __future__ import annotations

from dataclasses import dataclass

from repro.geom.point import Point


@dataclass(frozen=True)
class Segment:
    """An axis-parallel segment from ``a`` to ``b`` (um).

    Zero-length segments are allowed (they arise from snapping) and are
    treated as horizontal.
    """

    a: Point
    b: Point

    def __post_init__(self) -> None:
        if self.a.x != self.b.x and self.a.y != self.b.y:
            raise ValueError(f"segment must be axis-parallel: {self.a} -> {self.b}")

    @property
    def horizontal(self) -> bool:
        return self.a.y == self.b.y

    @property
    def length(self) -> float:
        return self.a.manhattan_to(self.b)

    @property
    def is_point(self) -> bool:
        """True for the degenerate zero-length segment (a == b)."""
        return self.a == self.b

    @property
    def lo(self) -> float:
        """Lower coordinate along the running axis."""
        return min(self.a.x, self.b.x) if self.horizontal else min(self.a.y, self.b.y)

    @property
    def hi(self) -> float:
        """Upper coordinate along the running axis."""
        return max(self.a.x, self.b.x) if self.horizontal else max(self.a.y, self.b.y)

    @property
    def track_coord(self) -> float:
        """The fixed coordinate perpendicular to the running axis."""
        return self.a.y if self.horizontal else self.a.x

    @property
    def midpoint(self) -> Point:
        return self.a.midpoint(self.b)

    def overlap_with(self, other: "Segment") -> float:
        """Parallel-run length shared with ``other`` (0 if orientations differ)."""
        if self.horizontal != other.horizontal:
            return 0.0
        return max(0.0, min(self.hi, other.hi) - max(self.lo, other.lo))

    def point_at(self, fraction: float) -> Point:
        """Point at ``fraction`` in [0, 1] along the segment from ``a``."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        return Point(self.a.x + (self.b.x - self.a.x) * fraction,
                     self.a.y + (self.b.y - self.a.y) * fraction)


def l_route(src: Point, dst: Point, horizontal_first: bool = True) -> list[Segment]:
    """The one- or two-segment L-shaped Manhattan route from src to dst.

    Degenerate legs (zero length) are dropped; a zero-distance route
    returns an empty list.
    """
    if src == dst:
        return []
    if src.x == dst.x or src.y == dst.y:
        return [Segment(src, dst)]
    bend = Point(dst.x, src.y) if horizontal_first else Point(src.x, dst.y)
    return [Segment(src, bend), Segment(bend, dst)]
