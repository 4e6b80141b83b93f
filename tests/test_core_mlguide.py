"""Classifier-guided assignment."""

import numpy as np
import pytest

from repro.designs import DesignSpec, generate_design
from repro.core import Policy, run_flow
from repro.core.mlguide import RULE_CLASSES, NdrClassifierGuide


TRAIN_SPECS = (
    DesignSpec("mltrain_a", n_sinks=24, die_edge=160.0, seed=21),
    DesignSpec("mltrain_b", n_sinks=32, die_edge=200.0, seed=22),
)
EVAL_SPEC = DesignSpec("mleval", n_sinks=48, die_edge=240.0, seed=23)


@pytest.fixture(scope="module")
def guide(tech):
    g = NdrClassifierGuide(n_trees=10, seed=3)
    designs = [generate_design(s) for s in TRAIN_SPECS]
    g.fit_designs(designs, tech)
    return g


def test_rule_classes_cover_rule_set():
    from repro.tech import RULE_SET

    assert RULE_CLASSES == tuple(r.name.value for r in RULE_SET)


def test_training_stats(guide):
    stats = guide.stats
    assert stats.n_samples > 50
    assert sum(stats.label_counts.values()) == stats.n_samples
    assert 0.5 < stats.train_accuracy <= 1.0
    assert set(stats.feature_importances) == \
        set(__import__("repro.core.features",
                       fromlist=["WIRE_FEATURE_NAMES"]).WIRE_FEATURE_NAMES)
    assert stats.label_counts["W1S1"] > 0  # default dominates


def test_unfitted_guide_raises(tiny_physical):
    g = NdrClassifierGuide()
    with pytest.raises(RuntimeError):
        g.predict_rules(tiny_physical)


def test_fit_requires_designs(tech):
    with pytest.raises(ValueError):
        NdrClassifierGuide().fit_designs([], tech)


def test_predictions_are_valid_rules(guide, make_tiny_physical):
    phys = make_tiny_physical()
    predictions = guide.predict_rules(phys)
    assert predictions
    assert set(predictions.values()) <= set(RULE_CLASSES)


def test_flow_with_guide_is_feasible(guide, tech):
    design = generate_design(EVAL_SPEC)
    result = run_flow(design, tech, policy=Policy.SMART_ML, guide=guide)
    assert result.policy == Policy.SMART_ML
    assert result.feasible
    # Selective: far from uniform upgrade.
    n = sum(result.rule_histogram.values())
    upgraded = n - result.rule_histogram.get("W1S1", 0)
    assert upgraded < n


def test_guide_upgrades_recorded_consistently(guide, tech):
    design = generate_design(EVAL_SPEC)
    result = run_flow(design, tech, policy=Policy.SMART_ML, guide=guide)
    routing = result.physical.routing
    for wire_id, rule_name in result.optimize.upgraded.items():
        wire = routing.tracks.wire(wire_id)
        assert wire.rule.name.value == rule_name
        assert not wire.rule.is_default
