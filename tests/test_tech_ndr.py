"""Routing rules: the upgrade lattice and geometry effects."""

import pytest

from repro.tech.layers import default_metal_stack
from repro.tech.ndr import RULE_SET, RoutingRule, RuleName, rule_by_name


def test_rule_set_has_five_rules_default_first():
    assert len(RULE_SET) == 5
    assert RULE_SET[0].is_default
    assert RULE_SET[-1].name == RuleName.W4S2


def test_rule_by_name_accepts_enum_and_string():
    assert rule_by_name("W2S2") is rule_by_name(RuleName.W2S2)
    assert rule_by_name("W2S2").width_mult == 2.0


def test_rule_by_name_unknown():
    with pytest.raises(KeyError):
        rule_by_name("W9S9")


def test_track_span():
    assert rule_by_name("W1S1").track_span == 1
    assert rule_by_name("W2S1").track_span == 2
    assert rule_by_name("W1S2").track_span == 2
    assert rule_by_name("W2S2").track_span == 3
    assert rule_by_name("W4S2").track_span == 5


def test_dominance_lattice():
    w1s1, w2s1, w1s2, w2s2, w4s2 = RULE_SET
    assert w2s2.dominates(w1s1) and w2s2.dominates(w2s1) and w2s2.dominates(w1s2)
    assert w4s2.dominates(w2s2)
    assert not w2s1.dominates(w1s2)
    assert not w1s2.dominates(w2s1)
    for rule in RULE_SET:
        assert rule.dominates(rule)


def test_width_and_spacing_on_layer():
    m5 = default_metal_stack().by_name("M5")
    full = rule_by_name("W2S2")
    assert full.width_on(m5) == pytest.approx(2 * m5.min_width)
    assert full.spacing_on(m5) == pytest.approx(2 * m5.min_spacing)


def test_downgrade_multipliers_rejected():
    with pytest.raises(ValueError):
        RoutingRule(RuleName.W1S1, 0.5, 1.0)
    with pytest.raises(ValueError):
        RoutingRule(RuleName.W1S1, 1.0, 0.9)
