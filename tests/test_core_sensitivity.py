"""Rule what-if evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import wire_contexts
from repro.core.sensitivity import (_what_if_parasitics, evaluate_rule,
                                    rule_sensitivities)
from repro.reliability.em import DEFAULT_EM_FACTOR
from repro.tech import RULE_SET, rule_by_name


@pytest.fixture(scope="module")
def setup(small_physical, small_design):
    contexts = wire_contexts(small_physical.tree, small_physical.extraction)
    # Pick a wire with aggressor coupling for interesting assertions.
    routing = small_physical.routing
    wire_id = max(
        contexts,
        key=lambda wid: small_physical.extraction.wires[wid].cc_signal)
    return routing, contexts, wire_id, small_design.clock_freq


def _sens(routing, contexts, wire_id, freq, rule_name, tech):
    return evaluate_rule(routing, wire_id, rule_by_name(rule_name),
                         contexts[wire_id], freq, tech.vdd,
                         DEFAULT_EM_FACTOR)


def test_rule_restored_after_evaluation(setup, tech):
    routing, contexts, wire_id, freq = setup
    before = routing.tracks.wire(wire_id).rule
    _sens(routing, contexts, wire_id, freq, "W4S2", tech)
    assert routing.tracks.wire(wire_id).rule is before


def test_width_upgrade_halves_resistance_and_em(setup, tech):
    routing, contexts, wire_id, freq = setup
    base = _sens(routing, contexts, wire_id, freq, "W1S1", tech)
    wide = _sens(routing, contexts, wire_id, freq, "W2S1", tech)
    assert wide.parasitics.r == pytest.approx(base.parasitics.r / 2)
    assert wide.em_util == pytest.approx(base.em_util / 2)
    assert wide.sigma_score < base.sigma_score / 2.5  # (1/2 rel noise)*(1/2 R)


def test_spacing_upgrade_cuts_coupling_not_em(setup, tech):
    routing, contexts, wire_id, freq = setup
    base = _sens(routing, contexts, wire_id, freq, "W1S1", tech)
    spaced = _sens(routing, contexts, wire_id, freq, "W1S2", tech)
    assert spaced.parasitics.cc_signal < base.parasitics.cc_signal
    assert spaced.em_util == pytest.approx(base.em_util)
    assert spaced.dd_own < base.dd_own


def test_cost_structure(setup, tech):
    routing, contexts, wire_id, freq = setup
    base = _sens(routing, contexts, wire_id, freq, "W1S1", tech)
    wide = _sens(routing, contexts, wire_id, freq, "W2S1", tech)
    spaced = _sens(routing, contexts, wire_id, freq, "W1S2", tech)
    # Width costs capacitance even with zero track price.
    assert wide.cost_vs(base, lambda_track=0.0) > 0.0
    # Spacing is nearly free in cap (coupling shrinks) but costs tracks.
    assert spaced.cost_vs(base, lambda_track=0.0) <= 0.0
    assert spaced.cost_vs(base, lambda_track=0.1) > spaced.cost_vs(
        base, lambda_track=0.0)


def test_track_length_matches_rule_span(setup, tech):
    routing, contexts, wire_id, freq = setup
    wire = routing.tracks.wire(wire_id)
    for rule in RULE_SET:
        s = _sens(routing, contexts, wire_id, freq, rule.name.value, tech)
        assert s.track_length == pytest.approx(
            (rule.track_span - 1) * wire.segment.length)


def test_rule_sensitivities_covers_all_rules(setup, tech):
    routing, contexts, wire_id, freq = setup
    table = rule_sensitivities(routing, wire_id, contexts[wire_id],
                               RULE_SET, freq, tech.vdd, DEFAULT_EM_FACTOR)
    assert set(table) == {r.name.value for r in RULE_SET}
    # Monotone EM utilisation along the width axis.
    assert table["W4S2"].em_util < table["W2S2"].em_util < table["W1S2"].em_util


# -- rule dominance, as the extraction model behaves ---------------------------

#: Small registered designs the dominance properties draw clock wires from.
DOMINANCE_DESIGNS = ("ckt64", "soc_h64", "imp_uart")

#: (hi, lo) rule pairs where ``hi`` dominates ``lo``.
DOMINATING_PAIRS = [(hi, lo) for hi in RULE_SET for lo in RULE_SET
                    if hi is not lo and hi.dominates(lo)]


@pytest.fixture(scope="module")
def routings():
    """Each dominance design's default-rule routing, built once."""
    from repro.core.flow import build_physical_design
    from repro.designs import generate_design, spec_by_name

    return {name: build_physical_design(
        generate_design(spec_by_name(name))).routing
        for name in DOMINANCE_DESIGNS}


def _what_if(routing, wire_id, rule):
    return _what_if_parasitics(routing, wire_id, rule, False)


def _drawn_wire(routing, data):
    wires = routing.clock_wires
    index = data.draw(st.integers(0, len(wires) - 1), label="clock wire")
    return wires[index].wire_id


@settings(max_examples=60, deadline=None)
@given(design=st.sampled_from(DOMINANCE_DESIGNS), data=st.data())
def test_dominating_rule_never_raises_resistance(routings, design, data):
    routing = routings[design]
    wire_id = _drawn_wire(routing, data)
    hi, lo = data.draw(st.sampled_from(DOMINATING_PAIRS), label="pair")
    assert _what_if(routing, wire_id, hi).r <= _what_if(routing, wire_id, lo).r


@settings(max_examples=60, deadline=None)
@given(design=st.sampled_from(DOMINANCE_DESIGNS), data=st.data())
def test_more_spacing_at_equal_width_never_raises_signal_coupling(
        routings, design, data):
    routing = routings[design]
    wire_id = _drawn_wire(routing, data)
    hi, lo = data.draw(st.sampled_from(
        [(hi, lo) for hi, lo in DOMINATING_PAIRS
         if hi.width_mult == lo.width_mult]), label="pair")
    assert _what_if(routing, wire_id, hi).cc_signal \
        <= _what_if(routing, wire_id, lo).cc_signal


def test_widest_rule_can_raise_signal_coupling(routings):
    """W4S2 dominates W2S2, yet on ckt64 clock wire 3 it couples more
    to signal nets: coupling reach grows with width, and the doubled
    spacing does not undo it."""
    routing = routings["ckt64"]
    w4s2, w2s2 = rule_by_name("W4S2"), rule_by_name("W2S2")
    assert w4s2.dominates(w2s2)
    assert _what_if(routing, 3, w4s2).cc_signal == pytest.approx(1.6537,
                                                                 abs=1e-4)
    assert _what_if(routing, 3, w2s2).cc_signal == pytest.approx(1.5686,
                                                                 abs=1e-4)
