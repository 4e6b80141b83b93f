"""Track manager: occupancy, free-track search, neighbor queries."""

import pytest

from repro.geom.grid import RoutingGrid
from repro.geom.point import Point
from repro.geom.rect import Rect
from repro.geom.segment import Segment
from repro.netlist.net import NetKind
from repro.route.tracks import TrackManager
from repro.route.wires import RoutedWire
from repro.tech import default_technology, rule_by_name


@pytest.fixture
def tech():
    return default_technology()


@pytest.fixture
def m5(tech):
    return tech.stack.by_name("M5")


@pytest.fixture
def grid():
    return RoutingGrid(die=Rect(0, 0, 100, 100))


@pytest.fixture
def tm(grid):
    return TrackManager(grid)


def _wire(wire_id, m5, grid, track, lo, hi, rule="W1S1", kind=NetKind.SIGNAL,
          net="sig", activity=0.2):
    y = grid.track_coord(m5, track)
    return RoutedWire(
        wire_id=wire_id, net_name=net, kind=kind,
        segment=Segment(Point(lo, y), Point(hi, y)),
        layer=m5, track=track, rule=rule_by_name(rule), activity=activity)


def test_register_and_is_free(tm, m5, grid):
    tm.register(_wire(0, m5, grid, track=10, lo=20, hi=40))
    assert not tm.is_free(m5, 10, 25, 35)
    assert not tm.is_free(m5, 10, 39, 50)
    assert tm.is_free(m5, 10, 40, 50)  # abutting is free
    assert tm.is_free(m5, 11, 25, 35)


def test_duplicate_wire_id_rejected(tm, m5, grid):
    tm.register(_wire(0, m5, grid, 10, 0, 10))
    with pytest.raises(ValueError):
        tm.register(_wire(0, m5, grid, 11, 0, 10))


def test_nearest_free_track_prefers_exact(tm, m5, grid):
    assert tm.nearest_free_track(m5, 10, 0, 10) == 10


def test_nearest_free_track_sidesteps(tm, m5, grid):
    tm.register(_wire(0, m5, grid, 10, 0, 50))
    got = tm.nearest_free_track(m5, 10, 0, 50)
    assert got in (9, 11)


def test_nearest_free_track_overflow_counted(tm, m5, grid):
    for i, track in enumerate(range(4, 17)):
        tm.register(_wire(i, m5, grid, track, 0, 100))
    before = tm.overflows
    got = tm.nearest_free_track(m5, 10, 0, 100, window=6)
    assert got == 10
    assert tm.overflows == before + 1


def test_neighbors_adjacent_track(tm, m5, grid):
    victim = _wire(0, m5, grid, 10, 0, 50, rule="W1S1",
                   kind=NetKind.CLOCK, net="clk", activity=1.0)
    aggressor = _wire(1, m5, grid, 11, 20, 80)
    tm.register(victim)
    tm.register(aggressor)
    neighbors = tm.neighbors_of(victim)
    assert len(neighbors) == 1
    nb = neighbors[0]
    assert nb.neighbor_id == 1
    assert nb.overlap == pytest.approx(30.0)
    assert nb.spacing == pytest.approx(m5.pitch - m5.min_width)
    assert not nb.same_net


def test_neighbor_spacing_clamped_to_rule(tm, m5, grid):
    victim = _wire(0, m5, grid, 10, 0, 50, rule="W2S2",
                   kind=NetKind.CLOCK, net="clk")
    aggressor = _wire(1, m5, grid, 11, 0, 50)
    tm.register(victim)
    tm.register(aggressor)
    nb = tm.neighbors_of(victim)[0]
    assert nb.spacing == pytest.approx(2 * m5.min_spacing)


def test_neighbor_spacing_floor_is_min_spacing(tm, m5, grid):
    # Wide victim at default spacing: geometric edge gap shrinks below
    # the DRC minimum; the query must clamp it back up.
    victim = _wire(0, m5, grid, 10, 0, 50, rule="W2S1",
                   kind=NetKind.CLOCK, net="clk")
    aggressor = _wire(1, m5, grid, 11, 0, 50)
    tm.register(victim)
    tm.register(aggressor)
    nb = tm.neighbors_of(victim)[0]
    assert nb.spacing >= m5.min_spacing


def test_same_net_flagged(tm, m5, grid):
    a = _wire(0, m5, grid, 10, 0, 50, kind=NetKind.CLOCK, net="clk")
    b = _wire(1, m5, grid, 11, 0, 50, kind=NetKind.CLOCK, net="clk")
    tm.register(a)
    tm.register(b)
    assert tm.neighbors_of(a)[0].same_net


def test_no_coupling_beyond_reach(tm, m5, grid):
    far_tracks = int(m5.coupling_reach / m5.pitch) + 2
    a = _wire(0, m5, grid, 10, 0, 50, kind=NetKind.CLOCK, net="clk")
    b = _wire(1, m5, grid, 10 + far_tracks, 0, 50)
    tm.register(a)
    tm.register(b)
    assert tm.neighbors_of(a) == []


def test_shielding_stops_at_covered_side(tm, m5, grid):
    victim = _wire(0, m5, grid, 10, 0, 50, kind=NetKind.CLOCK, net="clk")
    shield = _wire(1, m5, grid, 11, 0, 50)       # fully covers upper side
    behind = _wire(2, m5, grid, 12, 0, 50)
    tm.register(victim)
    tm.register(shield)
    tm.register(behind)
    ids = {nb.neighbor_id for nb in tm.neighbors_of(victim)}
    assert 1 in ids and 2 not in ids


def test_layer_utilization(tm, m5, grid):
    assert tm.layer_utilization(m5) == 0.0
    tm.register(_wire(0, m5, grid, 10, 0, 100))
    assert 0.0 < tm.layer_utilization(m5) < 0.01
