"""Grounded-shield modeling and the shield-enabled optimizer."""

import pytest

from repro.designs import generate_design
from repro.core import Policy, run_flow
from repro.core.evaluation import targets_from_reference
from repro.extract import extract
from repro.extract.capmodel import extract_wire
from repro.timing.crosstalk import analyze_crosstalk


def _coupled_wire(physical):
    """The clock wire with the most aggressor coupling."""
    ext = physical.extraction
    return max(physical.routing.clock_wires,
               key=lambda w: ext.wires[w.wire_id].cc_signal)


def test_shield_kills_aggressor_coupling(make_small_physical):
    phys = make_small_physical()
    wire = _coupled_wire(phys)
    assert phys.extraction.wires[wire.wire_id].cc_signal > 0.0
    phys.routing.assign_shield(wire.wire_id)
    neighbors = phys.routing.tracks.neighbors_of(wire)
    para = extract_wire(wire, neighbors)
    assert para.cc_signal == 0.0
    assert para.couplings == []


def test_shield_adds_static_cap(make_small_physical):
    phys = make_small_physical()
    wire = _coupled_wire(phys)
    before = phys.extraction.wires[wire.wire_id]
    phys.routing.assign_shield(wire.wire_id)
    after = extract_wire(wire, phys.routing.tracks.neighbors_of(wire))
    # The shields couple at min spacing over the whole span: more static
    # cap than the partial aggressor coverage it replaces.
    assert after.c_total > before.c_total - before.cc_signal
    # Resistance unchanged (shielding is not a width change).
    assert after.r == pytest.approx(before.r)


def test_shield_reduces_delta_delay(make_small_physical):
    phys = make_small_physical()
    base = analyze_crosstalk(phys.extraction.network, phys.extraction.wires)
    for wire in phys.routing.clock_wires:
        phys.routing.assign_shield(wire.wire_id)
    ext = extract(phys.tree, phys.routing)
    shielded = analyze_crosstalk(ext.network, ext.wires)
    assert shielded.worst_delta < 0.2 * base.worst_delta


def test_shield_track_cost(make_small_physical):
    phys = make_small_physical()
    wire = phys.routing.clock_wires[0]
    base = phys.routing.ndr_track_cost()
    phys.routing.assign_shield(wire.wire_id)
    assert phys.routing.ndr_track_cost() == pytest.approx(
        base + 2 * wire.segment.length)
    assert phys.routing.num_shielded() == 1
    phys.routing.assign_shield(wire.wire_id, False)
    assert phys.routing.num_shielded() == 0


def test_shield_rejected_on_signal_wires(make_small_physical):
    phys = make_small_physical()
    sig = phys.routing.signal_wires[0]
    with pytest.raises(ValueError):
        phys.routing.assign_shield(sig.wire_id)


def test_smart_shield_policy_feasible(small_spec, tech):
    reference = run_flow(generate_design(small_spec), tech,
                         policy=Policy.ALL_NDR)
    targets = targets_from_reference(reference.analyses, tech)
    flow = run_flow(generate_design(small_spec), tech,
                    policy=Policy.SMART_SHIELD, targets=targets)
    assert flow.feasible
    assert flow.clock_power < reference.clock_power
