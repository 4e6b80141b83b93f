"""Crosstalk delta-delay analysis."""

import pytest

from repro.extract import extract
from repro.tech import rule_by_name
from repro.timing.crosstalk import analyze_crosstalk


@pytest.fixture(scope="module")
def report(small_physical):
    ext = small_physical.extraction
    return analyze_crosstalk(ext.network, ext.wires)


def test_every_sink_analyzed(report, small_physical):
    assert len(report.sinks) == len(small_physical.tree.sinks())


def test_deltas_nonnegative_and_worst_dominates(report):
    for sink in report.sinks:
        assert sink.worst >= 0.0
        assert 0.0 <= sink.expected <= sink.worst + 1e-12


def test_alignment_scales_expected_only(small_physical):
    ext = small_physical.extraction
    lo = analyze_crosstalk(ext.network, ext.wires, alignment=0.25)
    hi = analyze_crosstalk(ext.network, ext.wires, alignment=0.75)
    for a, b in zip(lo.sinks, hi.sinks):
        assert a.worst == pytest.approx(b.worst)
        assert b.expected == pytest.approx(3.0 * a.expected, rel=1e-9)


def test_alignment_validation(small_physical):
    ext = small_physical.extraction
    with pytest.raises(ValueError):
        analyze_crosstalk(ext.network, ext.wires, alignment=1.5)


def test_worst_delta_reported(report):
    assert report.worst_delta == max(s.worst for s in report.sinks)
    assert report.mean_worst_delta <= report.worst_delta


def test_spacing_ndr_reduces_delta(make_small_physical, tech):
    """The core SI mechanism: 2x spacing everywhere cuts delta delay."""
    phys = make_small_physical()
    ext0 = extract(phys.tree, phys.routing)
    base = analyze_crosstalk(ext0.network, ext0.wires)
    for wire in phys.routing.clock_wires:
        phys.routing.assign_rule(wire.wire_id, rule_by_name("W1S2"))
    ext1 = extract(phys.tree, phys.routing)
    spaced = analyze_crosstalk(ext1.network, ext1.wires)
    assert spaced.worst_delta < 0.6 * base.worst_delta


def test_width_ndr_reduces_delta(make_small_physical, tech):
    """Width upgrades cut shared resistance, also reducing delta delay."""
    phys = make_small_physical()
    ext0 = extract(phys.tree, phys.routing)
    base = analyze_crosstalk(ext0.network, ext0.wires)
    for wire in phys.routing.clock_wires:
        phys.routing.assign_rule(wire.wire_id, rule_by_name("W2S1"))
    ext1 = extract(phys.tree, phys.routing)
    wide = analyze_crosstalk(ext1.network, ext1.wires)
    assert wide.worst_delta < base.worst_delta


def test_empty_report_defaults():
    from repro.timing.crosstalk import CrosstalkReport

    empty = CrosstalkReport()
    assert empty.worst_delta == 0.0
    assert empty.mean_worst_delta == 0.0
