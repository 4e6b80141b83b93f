"""Design database: instances, pins, nets, the design container."""

import pytest

from repro.geom.point import Point
from repro.geom.rect import Rect
from repro.netlist import CellKind, Design, NetKind, PinDirection


@pytest.fixture
def design():
    return Design(name="t", die=Rect(0, 0, 100, 100))


def test_clock_freq():
    d = Design(name="t", die=Rect(0, 0, 10, 10), clock_period=500.0)
    assert d.clock_freq == pytest.approx(2.0)  # GHz
    with pytest.raises(ValueError):
        Design(name="t", die=Rect(0, 0, 1, 1), clock_period=0.0)


def test_add_instance_and_duplicate(design):
    design.add_instance("u1", CellKind.GATE, Point(5, 5))
    with pytest.raises(ValueError):
        design.add_instance("u1", CellKind.GATE, Point(6, 6))


def test_instance_outside_die_rejected(design):
    with pytest.raises(ValueError):
        design.add_instance("u1", CellKind.GATE, Point(500, 5))


def test_pins_and_full_names(design):
    inst = design.add_instance("u1", CellKind.GATE, Point(5, 5))
    pin = inst.add_pin("A", PinDirection.INPUT, cap=1.0)
    assert pin.full_name == "u1/A"
    assert inst.pin("A") is pin
    with pytest.raises(ValueError):
        inst.add_pin("A", PinDirection.INPUT)
    with pytest.raises(KeyError):
        inst.pin("Z")


def test_pin_offset_location(design):
    inst = design.add_instance("u1", CellKind.GATE, Point(5, 5))
    pin = inst.add_pin("A", PinDirection.INPUT, offset=Point(1, -1))
    assert pin.location == Point(6, 4)


def test_net_driver_and_sinks(design):
    drv = design.add_instance("u1", CellKind.GATE, Point(1, 1))
    snk = design.add_instance("u2", CellKind.GATE, Point(2, 2))
    out = drv.add_pin("Z", PinDirection.OUTPUT)
    inp = snk.add_pin("A", PinDirection.INPUT, cap=1.2)
    net = design.add_net("n1", NetKind.SIGNAL, activity=0.3)
    net.connect_driver(out)
    net.connect_sink(inp)
    assert net.pins == [out, inp]
    assert inp.net is net and out.net is net


def test_net_direction_checks(design):
    drv = design.add_instance("u1", CellKind.GATE, Point(1, 1))
    out = drv.add_pin("Z", PinDirection.OUTPUT)
    inp = drv.add_pin("A", PinDirection.INPUT)
    net = design.add_net("n1", NetKind.SIGNAL)
    with pytest.raises(ValueError):
        net.connect_driver(inp)
    with pytest.raises(ValueError):
        net.connect_sink(out)
    net.connect_driver(out)
    with pytest.raises(ValueError):
        net.connect_driver(out)  # second driver


def test_activity_bounds(design):
    with pytest.raises(ValueError):
        design.add_net("n1", NetKind.SIGNAL, activity=1.5)


def test_clock_source_and_flops(design):
    root = design.add_clock_source(Point(50, 0))
    assert design.clock_root is root
    with pytest.raises(ValueError):
        design.add_clock_source(Point(0, 0))
    pin = design.add_flop("ff0", Point(10, 10), clock_pin_cap=1.8)
    assert design.num_sinks == 1
    assert pin.cap == 1.8
    design.validate()


def test_validate_requires_clock(design):
    with pytest.raises(ValueError):
        design.validate()
    design.add_clock_source(Point(0, 0))
    with pytest.raises(ValueError):
        design.validate()  # no sinks yet
    design.add_flop("ff0", Point(1, 1), clock_pin_cap=1.0)
    design.validate()


def test_validate_rejects_driverless_net(design):
    design.add_clock_source(Point(0, 0))
    design.add_flop("ff0", Point(1, 1), clock_pin_cap=1.0)
    design.add_net("floating", NetKind.SIGNAL)
    with pytest.raises(ValueError):
        design.validate()


def test_signal_nets_filter(design):
    design.add_clock_source(Point(0, 0))
    drv = design.add_instance("u1", CellKind.GATE, Point(1, 1))
    net = design.add_net("n1", NetKind.SIGNAL)
    net.connect_driver(drv.add_pin("Z", PinDirection.OUTPUT))
    assert [n.name for n in design.signal_nets] == ["n1"]
