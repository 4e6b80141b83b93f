"""The track router: realises clock tree edges and aggressor nets as wires.

Order of operations mirrors an industrial flow: the clock is routed
first (with priority over routing resources), then signal nets fill the
remaining tracks around it — which is exactly how aggressors end up
adjacent to clock wires at default spacing unless an NDR pushes them
away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cts.tree import ClockTree
from repro.geom.avoid import route_avoiding, segment_blocked
from repro.geom.grid import RoutingGrid
from repro.geom.segment import Segment, l_route
from repro.geom.steiner import build_steiner_tree
from repro.netlist.design import Design
from repro.netlist.net import Net, NetKind
from repro.route.tracks import TrackManager
from repro.route.wires import RoutedWire
from repro.tech.ndr import RoutingRule
from repro.tech.technology import Technology


@dataclass
class RoutingResult:
    """All routed wires for one design, with occupancy bookkeeping."""

    tracks: TrackManager
    wires: list[RoutedWire] = field(default_factory=list)
    #: clock-tree child node id -> wires realising the incoming edge
    edge_wires: dict[int, list[RoutedWire]] = field(default_factory=dict)

    @property
    def clock_wires(self) -> list[RoutedWire]:
        return [w for w in self.wires if w.is_clock]

    def fork(self) -> "RoutingResult":
        """A routing whose clock wires are its own copies.

        A rule assignment writes clock wires only (rule, shields), so
        signal wires and track occupancy are shared read-only.
        """
        own: dict[int, RoutedWire] = {}
        for wire in self.clock_wires:
            copy = RoutedWire.__new__(RoutedWire)
            copy.__dict__.update(wire.__dict__)
            own[wire.wire_id] = copy
        return RoutingResult(
            tracks=self.tracks.fork(own),
            wires=[own.get(w.wire_id, w) for w in self.wires],
            edge_wires={child: [own[w.wire_id] for w in wires]
                        for child, wires in self.edge_wires.items()})

    @property
    def signal_wires(self) -> list[RoutedWire]:
        return [w for w in self.wires if not w.is_clock]

    def clock_wirelength(self) -> float:
        """Total electrical length of all clock wires, um."""
        return sum(w.length for w in self.clock_wires)

    def assign_rule(self, wire_id: int, rule: RoutingRule) -> None:
        """Re-assign the routing rule of a clock wire (the optimizer's move)."""
        wire = self.tracks.wire(wire_id)
        if not wire.is_clock:
            raise ValueError(f"wire {wire_id} is a signal wire; rules apply to clock")
        wire.rule = rule

    def assign_shield(self, wire_id: int, shielded: bool = True) -> None:
        """Set/clear grounded shields on a clock wire's adjacent tracks."""
        wire = self.tracks.wire(wire_id)
        if not wire.is_clock:
            raise ValueError(f"wire {wire_id} is a signal wire; "
                             "shielding applies to clock")
        wire.shielded = shielded

    def rule_histogram(self) -> dict[str, int]:
        """Count of clock wires per rule name."""
        hist: dict[str, int] = {}
        for wire in self.clock_wires:
            hist[wire.rule.name.value] = hist.get(wire.rule.name.value, 0) + 1
        return hist

    def num_shielded(self) -> int:
        """Number of clock wires with grounded shields."""
        return sum(1 for w in self.clock_wires if w.shielded)

    def ndr_track_cost(self) -> float:
        """Extra track-length consumed by non-default rules and shields, um.

        Every unit of ``track_span`` beyond 1 blocks one neighbor track
        over the wire's span, and a shielded wire occupies both adjacent
        tracks with grounded metal; this is the routing-resource price
        of clock protection.
        """
        return sum((w.rule.track_span - 1 + (2 if w.shielded else 0))
                   * w.segment.length
                   for w in self.clock_wires)


class Router:
    """Routes one design's clock tree and signal nets onto tracks."""

    def __init__(self, design: Design, tech: Technology,
                 grid: Optional[RoutingGrid] = None) -> None:
        self.design = design
        self.tech = tech
        self.grid = grid if grid is not None else RoutingGrid(die=design.die)
        self._next_wire_id = 0

    def route(self, tree: ClockTree,
              clock_rule: Optional[RoutingRule] = None) -> RoutingResult:
        """Route the clock tree, then all signal nets.

        ``clock_rule`` is the rule clock wires start with (default: the
        technology's default rule; the optimizer upgrades from there).
        """
        result = self.route_clock_tree(tree, clock_rule=clock_rule)
        signals = self.route_signals(result.tracks)
        result.wires.extend(signals.wires)
        return result

    def route_clock_tree(self, tree: ClockTree,
                         clock_rule: Optional[RoutingRule] = None,
                         net_name: str = "clk",
                         shared: Optional[TrackManager] = None
                         ) -> RoutingResult:
        """Route one clock tree; the multi-domain building block.

        With ``shared`` (an existing :class:`TrackManager`), the tree
        routes into the same track space as previously routed domains —
        whose wires it then sees as neighbors (another clock is an
        activity-1.0 aggressor).  Each domain gets its own
        :class:`RoutingResult` (per-domain wire and edge maps) over the
        shared manager.
        """
        if clock_rule is None:
            clock_rule = self.tech.default_rule
        if shared is None:
            shared = TrackManager(self.grid)
            self._block_macros(shared)
        result = RoutingResult(tracks=shared)
        self._route_clock(tree, clock_rule, result, net_name)
        return result

    def route_signals(self, tracks: TrackManager) -> RoutingResult:
        """Route all signal nets into ``tracks``; returns their wires."""
        result = RoutingResult(tracks=tracks)
        for net in self.design.signal_nets:
            self._route_signal(net, result)
        return result

    def _block_macros(self, tracks: TrackManager) -> None:
        """Mark every routing track crossing a macro as a keep-out."""
        layers = {self.tech.layer_for(h, clock=c).name: self.tech.layer_for(h, clock=c)
                  for h in (True, False) for c in (True, False)}
        for blockage in self.design.blockages:
            for layer in layers.values():
                if layer.direction == "H":
                    lo_t = self.grid.track_index(layer, blockage.ylo)
                    hi_t = self.grid.track_index(layer, blockage.yhi)
                    span = (blockage.xlo, blockage.xhi)
                else:
                    lo_t = self.grid.track_index(layer, blockage.xlo)
                    hi_t = self.grid.track_index(layer, blockage.xhi)
                    span = (blockage.ylo, blockage.yhi)
                for track in range(lo_t, hi_t + 1):
                    tracks.block(layer, track, *span)

    # -- clock -------------------------------------------------------------------

    def _route_clock(self, tree: ClockTree, rule: RoutingRule,
                     result: RoutingResult, net_name: str = "clk") -> None:
        for parent, child in tree.edges():
            wires: list[RoutedWire] = []
            legs = self._legs(parent.location, child.location)
            for i, leg in enumerate(legs):
                is_last = i == len(legs) - 1
                extra = child.snake if is_last else 0.0
                wire = self._place(leg, NetKind.CLOCK, net_name, rule,
                                   activity=1.0, edge_child_id=child.node_id,
                                   extra_length=extra, result=result)
                wires.append(wire)
            if not legs and child.snake > 0.0:
                # Colocated nodes connected purely by snaking wire.
                stub = Segment(parent.location, parent.location)
                wire = self._place(stub, NetKind.CLOCK, net_name, rule,
                                   activity=1.0, edge_child_id=child.node_id,
                                   extra_length=child.snake, result=result)
                wires.append(wire)
            result.edge_wires[child.node_id] = wires

    # -- signals -----------------------------------------------------------------

    def _route_signal(self, net: Net, result: RoutingResult) -> None:
        if net.driver is None:
            raise ValueError(f"signal net {net.name} has no driver")
        sinks = [pin.location for pin in net.sinks]
        steiner = build_steiner_tree(net.driver.location, sinks)
        segments = steiner.segments
        if self.design.blockages and self._steiner_lands_on_macro(segments):
            # The shared-trunk topology put a bend or trunk on a macro;
            # fall back to star routing with per-sink detours (loses the
            # sharing for this net only).
            segments = []
            for pin in net.sinks:
                segments.extend(self._legs(net.driver.location, pin.location))
        for seg in segments:
            for piece in self._around_macros(seg):
                wire = self._place(piece, NetKind.SIGNAL, net.name,
                                   self.tech.default_rule,
                                   activity=net.activity, edge_child_id=None,
                                   extra_length=0.0, result=result)
                wire.window = net.window

    def _steiner_lands_on_macro(self, segments) -> bool:
        from repro.geom.avoid import CLEARANCE

        for seg in segments:
            for blockage in self.design.blockages:
                grown = blockage.expanded(CLEARANCE)
                if grown.contains(seg.a) or grown.contains(seg.b):
                    return True
        return False

    def _legs(self, src, dst) -> list[Segment]:
        """Point-to-point Manhattan legs, detouring around macros."""
        if not self.design.blockages:
            return l_route(src, dst)
        return route_avoiding(src, dst, self.design.blockages,
                              self.design.die)

    def _around_macros(self, seg: Segment) -> list[Segment]:
        """A routed segment, split around macros when it crosses one."""
        blockages = self.design.blockages
        if not blockages or not any(segment_blocked(seg, b)
                                    for b in blockages):
            return [seg]
        return route_avoiding(seg.a, seg.b, blockages, self.design.die)

    # -- shared ------------------------------------------------------------------

    def _place(self, seg: Segment, kind: NetKind, net_name: str,
               rule: RoutingRule, activity: float,
               edge_child_id: Optional[int], extra_length: float,
               result: RoutingResult) -> RoutedWire:
        layer = self.tech.layer_for(seg.horizontal, clock=(kind == NetKind.CLOCK))
        want_track = self.grid.track_index(layer, seg.track_coord)
        if seg.length > 0.0:
            track = result.tracks.nearest_free_track(
                layer, want_track, seg.lo, seg.hi)
        else:
            track = want_track
        coord = self.grid.track_coord(layer, track)
        snapped = self._snap_segment(seg, coord)
        wire = RoutedWire(
            wire_id=self._next_wire_id,
            net_name=net_name,
            kind=kind,
            segment=snapped,
            layer=layer,
            track=track,
            rule=rule,
            edge_child_id=edge_child_id,
            activity=activity,
            extra_length=extra_length,
        )
        self._next_wire_id += 1
        result.tracks.register(wire)
        result.wires.append(wire)
        return wire

    @staticmethod
    def _snap_segment(seg: Segment, coord: float) -> Segment:
        from repro.geom.point import Point

        if seg.horizontal:
            return Segment(Point(seg.a.x, coord), Point(seg.b.x, coord))
        return Segment(Point(coord, seg.a.y), Point(coord, seg.b.y))
