"""Property-based tests on the track manager and router invariants."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.geom.grid import RoutingGrid
from repro.geom.point import Point
from repro.geom.rect import Rect
from repro.geom.segment import Segment
from repro.netlist.net import NetKind
from repro.route.tracks import TrackManager
from repro.route.wires import NeighborCoupling, RoutedWire
from repro.tech import default_technology, rule_by_name
from repro.tech.ndr import RULE_SET

TECH = default_technology()
M5 = TECH.stack.by_name("M5")
GRID = RoutingGrid(die=Rect(0, 0, 200, 200))

interval = st.tuples(st.integers(0, 180), st.integers(5, 20)).map(
    lambda t: (float(t[0]), float(t[0] + t[1])))


def _wire(wid, track, lo, hi, net="sig", **fields):
    y = GRID.track_coord(M5, track)
    attrs = {"kind": NetKind.SIGNAL, "rule": rule_by_name("W1S1"),
             "activity": 0.2, **fields}
    return RoutedWire(wire_id=wid, net_name=net,
                      segment=Segment(Point(lo, y), Point(hi, y)),
                      layer=M5, track=track, **attrs)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), interval),
                min_size=1, max_size=20))
def test_registered_intervals_never_report_free(entries):
    tm = TrackManager(GRID)
    placed = []
    for i, (track, (lo, hi)) in enumerate(entries):
        if tm.is_free(M5, track, lo, hi):
            tm.register(_wire(i, track, lo, hi))
            placed.append((track, lo, hi))
    # Every placed interval (and any sub-interval) is now occupied.
    for track, lo, hi in placed:
        assert not tm.is_free(M5, track, lo, hi)
        mid = (lo + hi) / 2.0
        assert not tm.is_free(M5, track, mid, mid + 0.1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), interval),
                min_size=1, max_size=15))
def test_nearest_free_track_is_actually_free(entries):
    tm = TrackManager(GRID)
    for i, (track, (lo, hi)) in enumerate(entries):
        got = tm.nearest_free_track(M5, track, lo, hi)
        if tm.is_free(M5, got, lo, hi):
            tm.register(_wire(i, got, lo, hi))
    # No overlap among registered wires on the same track.
    by_track = {}
    for wid, wire in tm._wires.items():
        by_track.setdefault(wire.track, []).append(
            (wire.segment.lo, wire.segment.hi))
    for spans in by_track.values():
        spans.sort()
        for (l1, h1), (l2, h2) in zip(spans, spans[1:]):
            assert h1 <= l2 + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 29), interval, interval)
def test_neighbor_overlap_symmetry(track, span_a, span_b):
    """If A sees B as a neighbor, the overlap matches B seeing A."""
    tm = TrackManager(GRID)
    a = _wire(0, track, *span_a, net="clk")
    b = _wire(1, track + 1, *span_b)
    tm.register(a)
    tm.register(b)
    a_sees = {nb.neighbor_id: nb for nb in tm.neighbors_of(a)}
    b_sees = {nb.neighbor_id: nb for nb in tm.neighbors_of(b)}
    if 1 in a_sees:
        assert 0 in b_sees
        assert a_sees[1].overlap == pytest.approx(b_sees[0].overlap)
        assert a_sees[1].spacing == pytest.approx(b_sees[0].spacing)
    else:
        assert 0 not in b_sees


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30), interval)
def test_utilization_bounded(track, span):
    tm = TrackManager(GRID)
    tm.register(_wire(0, track, *span))
    util = tm.layer_utilization(M5)
    assert 0.0 <= util <= 1.0


# -- neighbor query vs. the straightforward loop ----------------------------------


def _reference_neighbors_of(tm, wire, max_tracks=8):
    """``TrackManager.neighbors_of`` as a plain loop over grid helpers.

    The production query hoists everything that is constant per call;
    this is the unhoisted form it must match: same list, same order,
    equal floats.
    """
    layer = wire.layer
    result = []
    guaranteed = wire.guaranteed_spacing()
    for direction in (-1, +1):
        covered = 0.0
        for step in range(1, max_tracks + 1):
            track = wire.track + direction * step
            if track < 0 or track >= tm.grid.num_tracks(layer):
                break
            distance = tm.grid.track_distance(layer, wire.track, track)
            if distance - wire.width / 2.0 > layer.coupling_reach:
                break
            for iv in tm._tracks.get((layer.name, track), []):
                overlap = (min(iv.hi, wire.segment.hi)
                           - max(iv.lo, wire.segment.lo))
                if overlap <= 0.0:
                    continue
                other = tm._wires[iv.wire_id]
                spacing = tm.grid.edge_spacing(
                    layer, wire.track, wire.width, track, other.width)
                spacing = max(spacing, layer.min_spacing,
                              guaranteed, other.guaranteed_spacing())
                result.append(NeighborCoupling(
                    neighbor_id=other.wire_id,
                    spacing=spacing,
                    overlap=overlap,
                    neighbor_kind=other.kind,
                    neighbor_activity=other.activity,
                    same_net=(other.net_name == wire.net_name),
                    neighbor_window=other.window,
                ))
                covered += overlap
            if covered >= wire.length:
                break
    return result


N_TRACKS = GRID.num_tracks(M5)
half_um = st.integers(0, 380).map(lambda v: v / 2.0)
#: (track offset from the victim, lo, length, rule, clock?, window?)
occupant = st.tuples(st.integers(-4, 4), half_um, half_um,
                     st.sampled_from(RULE_SET), st.booleans(),
                     st.booleans())


W1S1, W4S2 = rule_by_name("W1S1"), rule_by_name("W4S2")


@settings(max_examples=200, deadline=None)
@given(victim_track=st.sampled_from((0, 1, 2, 357, N_TRACKS - 2,
                                     N_TRACKS - 1)),
       victim_lo=half_um, victim_length=half_um,
       victim_rule=st.sampled_from(RULE_SET),
       extra=st.sampled_from((0.0, 0.0, 2.5, 60.0, 400.0)),
       what_if=st.sampled_from((None,) + RULE_SET),
       occupants=st.lists(occupant, max_size=30),
       max_tracks=st.sampled_from((1, 2, 8, 8, 8)))
# Reach boundary: a wide what-if victim reaches 3 tracks out, not 4.
@example(victim_track=357, victim_lo=10.0, victim_length=50.0,
         victim_rule=W1S1, extra=0.0, what_if=W4S2,
         occupants=[(3, 40.0, 30.0, W1S1, False, False),
                    (4, 10.0, 50.0, W1S1, False, True),
                    (-4, 0.0, 80.0, W4S2, True, False)],
         max_tracks=8)
# Die edge, an occupant sharing the victim's track, a detour that
# keeps one side from ever counting as covered.
@example(victim_track=0, victim_lo=20.0, victim_length=40.0,
         victim_rule=W1S1, extra=400.0, what_if=None,
         occupants=[(-2, 0.0, 100.0, W1S1, False, False),
                    (1, 0.0, 100.0, W1S1, True, False),
                    (2, 30.0, 5.0, W4S2, False, True)],
         max_tracks=8)
def test_neighbors_of_matches_reference_loop(victim_track, victim_lo,
                                             victim_length, victim_rule,
                                             extra, what_if, occupants,
                                             max_tracks):
    """Die-edge tracks, overlapping occupants (overflow placement puts
    wires on an occupied track), snaking detours and a rule stamped on
    the victim for a what-if query all answer like the plain loop."""
    tm = TrackManager(GRID)
    victim = _wire(0, victim_track, victim_lo, victim_lo + victim_length,
                   net="clk", kind=NetKind.CLOCK, rule=victim_rule,
                   activity=1.0, extra_length=extra)
    tm.register(victim)
    for wid, (offset, lo, length, rule, clock, windowed) in enumerate(
            occupants, start=1):
        track = min(max(victim_track + offset, 0), N_TRACKS - 1)
        # No free-track check: overlapping intervals are allowed.
        tm.register(_wire(
            wid, track, lo, lo + length, net="clk" if clock else f"s{wid}",
            kind=NetKind.CLOCK if clock else NetKind.SIGNAL, rule=rule,
            activity=1.0 if clock else 0.05 * (wid % 7),
            window=(10.0 * wid, 10.0 * wid + 25.0) if windowed else None))
    saved = victim.rule
    if what_if is not None:
        victim.rule = what_if  # as the optimizer's what-if queries do
    try:
        got = tm.neighbors_of(victim, max_tracks=max_tracks)
        want = _reference_neighbors_of(tm, victim, max_tracks=max_tracks)
    finally:
        victim.rule = saved
    assert got == want
    assert [(nb.spacing.hex(), nb.overlap.hex()) for nb in got] == \
        [(nb.spacing.hex(), nb.overlap.hex()) for nb in want]
