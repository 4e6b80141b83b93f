"""Serialization round trips."""

import json

import pytest

from repro.designs import DesignSpec, generate_design
from repro.core.flow import build_physical_design
from repro.io import (apply_rule_assignment, design_from_dict,
                      design_to_dict, load_design, load_rule_assignment,
                      save_design, save_rule_assignment, write_wire_report)
from repro.tech import rule_by_name


SPEC = DesignSpec("io_t", n_sinks=20, die_edge=150.0, seed=31)


@pytest.fixture
def design():
    return generate_design(SPEC)


def test_design_dict_round_trip(design):
    data = design_to_dict(design)
    rebuilt = design_from_dict(data)
    assert rebuilt.name == design.name
    assert rebuilt.die == design.die
    assert rebuilt.clock_period == design.clock_period
    assert rebuilt.clock_root.location == design.clock_root.location
    assert [p.location for p in rebuilt.clock_sinks] == \
        [p.location for p in design.clock_sinks]
    assert len(rebuilt.signal_nets) == len(design.signal_nets)
    for a, b in zip(rebuilt.signal_nets, design.signal_nets):
        assert a.activity == b.activity
        assert a.driver.location == b.driver.location
        assert [p.cap for p in a.sinks] == [p.cap for p in b.sinks]


def test_design_file_round_trip(design, tmp_path):
    path = tmp_path / "design.json"
    save_design(design, path)
    rebuilt = load_design(path)
    assert rebuilt.num_sinks == design.num_sinks
    # The file is valid JSON with the expected schema.
    data = json.loads(path.read_text())
    assert data["schema"] == 1


def test_round_trip_produces_same_physical(design, tech, tmp_path):
    """A reloaded design must route identically (determinism contract)."""
    path = tmp_path / "design.json"
    save_design(design, path)
    a = build_physical_design(design, tech)
    b = build_physical_design(load_design(path), tech)
    sa = [(w.segment, w.track) for w in a.routing.clock_wires]
    sb = [(w.segment, w.track) for w in b.routing.clock_wires]
    assert sa == sb


def test_unsupported_schema_rejected(design):
    data = design_to_dict(design)
    data["schema"] = 99
    with pytest.raises(ValueError):
        design_from_dict(data)


def test_rule_assignment_round_trip(design, tech, tmp_path):
    phys = build_physical_design(design, tech)
    wires = phys.routing.clock_wires
    phys.routing.assign_rule(wires[0].wire_id, rule_by_name("W2S2"))
    phys.routing.assign_rule(wires[3].wire_id, rule_by_name("W1S2"))
    path = tmp_path / "rules.json"
    n = save_rule_assignment(phys.routing, path, design_name=design.name)
    assert n == 2

    fresh = build_physical_design(generate_design(SPEC), tech)
    payload = load_rule_assignment(path)
    applied = apply_rule_assignment(fresh.routing, payload)
    assert applied == 2
    assert fresh.routing.rule_histogram() == phys.routing.rule_histogram()


def test_rule_assignment_signature_mismatch(design, tech, tmp_path):
    phys = build_physical_design(design, tech)
    phys.routing.assign_rule(phys.routing.clock_wires[0].wire_id,
                             rule_by_name("W2S2"))
    path = tmp_path / "rules.json"
    save_rule_assignment(phys.routing, path)
    payload = load_rule_assignment(path)
    payload["rules"][0]["sig"][1] += 1  # corrupt the track
    fresh = build_physical_design(generate_design(SPEC), tech)
    with pytest.raises(ValueError):
        apply_rule_assignment(fresh.routing, payload)


def test_rules_schema_check(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 42, "rules": []}))
    with pytest.raises(ValueError):
        load_rule_assignment(path)


def test_wire_report(design, tech, tmp_path):
    phys = build_physical_design(design, tech)
    path = tmp_path / "wires.txt"
    n = write_wire_report(phys.extraction, path)
    assert n == len(phys.extraction.wires)
    text = path.read_text()
    assert "rule" in text and "W1S1" in text
    assert text.count("\n") > n  # table chrome present
