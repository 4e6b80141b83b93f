"""Hard macros: avoid-routing, keep-outs, full flow on blocked designs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.designs import DesignSpec, generate_design
from repro.core import Policy, run_flow
from repro.core.flow import build_physical_design
from repro.geom.avoid import route_avoiding, segment_blocked
from repro.geom.point import Point
from repro.geom.rect import Rect
from repro.geom.segment import Segment


DIE = Rect(0, 0, 100, 100)
MACRO = Rect(40, 40, 60, 60)


def test_segment_blocked_detection():
    assert segment_blocked(Segment(Point(0, 50), Point(100, 50)), MACRO)
    assert segment_blocked(Segment(Point(50, 0), Point(50, 100)), MACRO)
    assert not segment_blocked(Segment(Point(0, 10), Point(100, 10)), MACRO)
    # A segment skimming the clearance zone counts as blocked.
    assert segment_blocked(Segment(Point(0, 60.2), Point(100, 60.2)), MACRO)
    assert not segment_blocked(Segment(Point(0, 61.0), Point(100, 61.0)), MACRO)


def test_unblocked_route_is_plain_l():
    legs = route_avoiding(Point(0, 0), Point(10, 10), [MACRO], DIE)
    assert sum(leg.length for leg in legs) == pytest.approx(20.0)


def test_detour_clears_macro():
    legs = route_avoiding(Point(0, 50), Point(100, 50), [MACRO], DIE)
    for leg in legs:
        assert not segment_blocked(leg, MACRO)
    # Connected from src to dst.
    assert legs[0].a == Point(0, 50)
    assert legs[-1].b == Point(100, 50)
    for a, b in zip(legs, legs[1:]):
        assert a.b == b.a
    # Detour cost is bounded by the macro size.
    total = sum(leg.length for leg in legs)
    assert 100.0 < total < 100.0 + 2 * (MACRO.height + 4)


def test_route_through_two_macros():
    macros = [Rect(20, 40, 35, 60), Rect(60, 40, 80, 60)]
    legs = route_avoiding(Point(0, 50), Point(100, 50), macros, DIE)
    for leg in legs:
        for macro in macros:
            assert not segment_blocked(leg, macro)


def test_no_blockages_shortcut():
    legs = route_avoiding(Point(0, 0), Point(10, 0), [], DIE)
    assert len(legs) == 1


@settings(max_examples=40, deadline=None)
@given(sx=st.integers(0, 100), sy=st.integers(0, 100),
       dx=st.integers(0, 100), dy=st.integers(0, 100))
def test_avoid_route_properties(sx, sy, dx, dy):
    src, dst = Point(float(sx), float(sy)), Point(float(dx), float(dy))
    for p in (src, dst):
        if MACRO.expanded(1.0).contains(p):
            return  # terminals inside the macro are not routable targets
    legs = route_avoiding(src, dst, [MACRO], DIE)
    if src == dst:
        assert legs == []
        return
    assert legs[0].a == src and legs[-1].b == dst
    for leg in legs:
        assert not segment_blocked(leg, MACRO)
    total = sum(leg.length for leg in legs)
    assert total >= src.manhattan_to(dst) - 1e-9


BLOCKED_SPEC = DesignSpec("blocked", n_sinks=48, die_edge=300.0,
                          aggressors_per_sink=2.0, seed=13, n_blockages=2)


@pytest.fixture(scope="module")
def blocked_design():
    return generate_design(BLOCKED_SPEC)


def test_generator_places_disjoint_macros(blocked_design):
    assert len(blocked_design.blockages) == 2
    a, b = blocked_design.blockages
    assert not a.intersects(b)


def test_nothing_placed_inside_macros(blocked_design):
    for inst in blocked_design.instances.values():
        for blockage in blocked_design.blockages:
            assert not blockage.contains(inst.location), inst.name


def test_clock_wires_avoid_macros(blocked_design, tech):
    phys = build_physical_design(blocked_design, tech)
    for wire in phys.routing.clock_wires:
        for blockage in blocked_design.blockages:
            assert not segment_blocked(wire.segment, blockage, clearance=0.0)


def test_buffers_not_on_macros(blocked_design, tech):
    phys = build_physical_design(blocked_design, tech)
    for node in phys.tree:
        if node.buffer is None:
            continue
        for blockage in blocked_design.blockages:
            assert not blockage.contains(node.location)


def test_full_flow_on_blocked_design(tech):
    design = generate_design(BLOCKED_SPEC)
    result = run_flow(design, tech, policy=Policy.SMART)
    assert result.feasible
    assert result.analyses.timing.skew <= 3.0


def test_blockage_outside_die_rejected(blocked_design):
    with pytest.raises(ValueError):
        blocked_design.add_blockage(Rect(-10, 0, 20, 20))


def test_instance_inside_blockage_rejected(blocked_design):
    from repro.netlist.cell import CellKind

    macro = blocked_design.blockages[0]
    with pytest.raises(ValueError):
        blocked_design.add_instance("bad", CellKind.GATE, macro.center)


def test_blockage_json_round_trip(blocked_design, tmp_path):
    from repro.io import load_design, save_design

    path = tmp_path / "blocked.json"
    save_design(blocked_design, path)
    rebuilt = load_design(path)
    assert rebuilt.blockages == blocked_design.blockages
