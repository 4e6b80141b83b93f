"""Per-layer track occupancy with interval bookkeeping and neighbor queries."""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.geom.grid import RoutingGrid
from repro.route.wires import NeighborCoupling, RoutedWire
from repro.tech.layers import MetalLayer


@dataclass
class _Interval:
    lo: float
    hi: float
    wire_id: int


class TrackManager:
    """Occupancy of every routing track on every layer.

    The manager answers three questions:

    * is track *t* free over span [lo, hi]?  (used to place wires)
    * who occupies tracks near wire *w*, and with what overlap?
      (used by the extractor for coupling)
    * how full is each layer?  (congestion reporting)
    """

    def __init__(self, grid: RoutingGrid) -> None:
        self.grid = grid
        # (layer name, track index) -> intervals sorted by lo
        self._tracks: dict[tuple[str, int], list[_Interval]] = {}
        self._wires: dict[int, RoutedWire] = {}
        # (layer name, track index) -> hard keep-out spans (blockages)
        self._blocked: dict[tuple[str, int], list[tuple[float, float]]] = {}
        self.overflows = 0

    # -- placement ----------------------------------------------------------------

    def block(self, layer: MetalLayer, track: int, lo: float, hi: float) -> None:
        """Mark [lo, hi] on (layer, track) as a hard keep-out (macro)."""
        self._blocked.setdefault((layer.name, track), []).append((lo, hi))

    def is_free(self, layer: MetalLayer, track: int, lo: float, hi: float) -> bool:
        """True if no wire or keep-out on (layer, track) overlaps [lo, hi]."""
        for b_lo, b_hi in self._blocked.get((layer.name, track), []):
            if b_lo < hi and b_hi > lo:
                return False
        intervals = self._tracks.get((layer.name, track), [])
        idx = bisect.bisect_left([iv.lo for iv in intervals], hi)
        for iv in intervals[:idx]:
            if iv.hi > lo:
                return False
        return True

    def nearest_free_track(self, layer: MetalLayer, track: int,
                           lo: float, hi: float, window: int = 6) -> int:
        """Nearest track to ``track`` free over [lo, hi], searching +-window.

        Falls back to ``track`` itself (and counts an overflow) when no
        free track exists in the window — the synthetic benchmarks are
        sized so this is rare, and the overflow count surfaces it.
        """
        n = self.grid.num_tracks(layer)
        for delta in range(window + 1):
            for cand in ((track + delta, track - delta) if delta else (track,)):
                if 0 <= cand < n and self.is_free(layer, cand, lo, hi):
                    return cand
        self.overflows += 1
        return track

    def register(self, wire: RoutedWire) -> None:
        """Record ``wire`` as occupying its track over its span."""
        if wire.wire_id in self._wires:
            raise ValueError(f"wire id {wire.wire_id} already registered")
        self._wires[wire.wire_id] = wire
        key = (wire.layer.name, wire.track)
        intervals = self._tracks.setdefault(key, [])
        iv = _Interval(wire.segment.lo, wire.segment.hi, wire.wire_id)
        los = [existing.lo for existing in intervals]
        intervals.insert(bisect.bisect_left(los, iv.lo), iv)

    def wire(self, wire_id: int) -> RoutedWire:
        """The registered wire with this id."""
        return self._wires[wire_id]

    def fork(self, own: dict[int, RoutedWire]) -> "TrackManager":
        """A manager that resolves the ids in ``own`` to those wires.

        Occupancy, keep-outs and the grid are shared read-only: a fork
        answers queries over a finished routing and never registers or
        blocks anything.
        """
        twin = TrackManager.__new__(TrackManager)
        twin.grid = self.grid
        twin._tracks = self._tracks
        twin._blocked = self._blocked
        twin._wires = {**self._wires, **own}
        twin.overflows = self.overflows
        return twin

    # -- verifier views ------------------------------------------------------------

    def occupancy(self) -> list[tuple[str, int, tuple[tuple[float, float, int], ...]]]:
        """Every occupied track as ``(layer, track, ((lo, hi, wire_id), ...))``.

        Intervals come back in lo-sorted registration order; the list is
        key-sorted so verification output is deterministic.
        """
        return [(lname, track,
                 tuple((iv.lo, iv.hi, iv.wire_id) for iv in intervals))
                for (lname, track), intervals in sorted(self._tracks.items())]

    def blocked_spans(self, layer_name: str,
                      track: int) -> tuple[tuple[float, float], ...]:
        """Hard keep-out spans registered on ``(layer_name, track)``."""
        return tuple(self._blocked.get((layer_name, track), ()))

    def iter_wires(self) -> list[RoutedWire]:
        """All registered wires, id-sorted (verifier/reporting view)."""
        return [self._wires[wid] for wid in sorted(self._wires)]

    # -- neighbor queries ------------------------------------------------------------

    def neighbors_of(self, wire: RoutedWire, max_tracks: int = 8) -> list[NeighborCoupling]:
        """Same-layer neighbors of ``wire`` within coupling reach.

        For each side (lower/upper track indices) only the *first*
        overlapping occupant per span portion shields the ones behind
        it; we approximate shielding by keeping, per side, the nearest
        track that has any overlap and ignoring farther tracks once the
        accumulated overlap covers the wire (standard first-neighbor
        approximation).

        This is the extractor's inner loop, so everything that does not
        change from one probed track to the next is read once.  The
        float expressions are the grid's (``track_distance``,
        ``edge_spacing``), evaluated in the same order.
        """
        layer = wire.layer
        lname = layer.name
        pitch = layer.pitch
        reach = layer.coupling_reach
        min_spacing = layer.min_spacing
        n_tracks = self.grid.num_tracks(layer)
        tracks = self._tracks
        wires = self._wires
        origin = wire.track
        width = wire.width
        half_width = width / 2.0
        seg_lo = wire.segment.lo
        seg_hi = wire.segment.hi
        length = wire.length
        net_name = wire.net_name
        guaranteed = wire.guaranteed_spacing()
        result: list[NeighborCoupling] = []
        for direction in (-1, +1):
            covered = 0.0
            for step in range(1, max_tracks + 1):
                track = origin + direction * step
                if track < 0 or track >= n_tracks:
                    break
                distance = step * pitch
                if distance - half_width > reach:
                    break
                for iv in tracks.get((lname, track), ()):
                    if iv.lo >= seg_hi:
                        break  # lo-sorted: no later interval overlaps
                    overlap = min(iv.hi, seg_hi) - max(iv.lo, seg_lo)
                    if overlap <= 0.0:
                        continue
                    other = wires[iv.wire_id]
                    spacing = distance - (width + other.width) / 2.0
                    # DRC floors: the layer minimum always holds, and
                    # either wire's rule guarantee pushes neighbors out.
                    spacing = max(spacing, min_spacing,
                                  guaranteed, other.guaranteed_spacing())
                    result.append(NeighborCoupling(
                        neighbor_id=other.wire_id,
                        spacing=spacing,
                        overlap=overlap,
                        neighbor_kind=other.kind,
                        neighbor_activity=other.activity,
                        same_net=(other.net_name == net_name),
                        neighbor_window=other.window,
                    ))
                    covered += overlap
                if covered >= length:
                    break  # fully shielded on this side
        return result

    # -- congestion ---------------------------------------------------------------

    def layer_utilization(self, layer: MetalLayer) -> float:
        """Fraction of track-length occupied on ``layer`` (0..1)."""
        extent = (self.grid.die.width if layer.direction == "H"
                  else self.grid.die.height)
        total = self.grid.num_tracks(layer) * extent
        used = 0.0
        for (lname, _track), intervals in self._tracks.items():
            if lname != layer.name:
                continue
            for iv in intervals:
                used += iv.hi - iv.lo
        return min(1.0, used / total) if total > 0 else 0.0

    def track_length_used(self, kind=None) -> float:
        """Total wirelength registered, optionally filtered by net kind."""
        return sum(w.length for w in self._wires.values()
                   if kind is None or w.kind == kind)
