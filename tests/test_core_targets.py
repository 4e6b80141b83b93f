"""Robustness targets."""

import pytest

from repro.core.targets import RobustnessTargets


def test_for_period_fractions():
    t = RobustnessTargets.for_period(1000.0, max_slew=80.0)
    assert t.max_worst_delta == pytest.approx(5.0)
    assert t.max_skew_3sigma == pytest.approx(8.0)
    assert t.max_slew == 80.0
    assert t.max_em_util == 1.0


def test_for_period_custom_fractions():
    t = RobustnessTargets.for_period(500.0, 60.0, delta_fraction=0.01,
                                     skew_fraction=0.02)
    assert t.max_worst_delta == pytest.approx(5.0)
    assert t.max_skew_3sigma == pytest.approx(10.0)


def test_from_reference_slack():
    t = RobustnessTargets.from_reference(worst_delta=4.0, skew_3sigma=10.0,
                                         max_slew=80.0, slack=0.25)
    assert t.max_worst_delta == pytest.approx(5.0)
    assert t.max_skew_3sigma == pytest.approx(12.5)


def test_validation():
    with pytest.raises(ValueError):
        RobustnessTargets(max_worst_delta=0.0, max_skew_3sigma=1.0,
                          max_slew=80.0)
    with pytest.raises(ValueError):
        RobustnessTargets(max_worst_delta=1.0, max_skew_3sigma=1.0,
                          max_slew=80.0, mc_samples=1)
    with pytest.raises(ValueError):
        RobustnessTargets.for_period(0.0, 80.0)
    with pytest.raises(ValueError):
        RobustnessTargets.from_reference(1.0, 1.0, 80.0, slack=-0.1)


def test_frozen():
    t = RobustnessTargets.for_period(1000.0, 80.0)
    with pytest.raises(Exception):
        t.max_slew = 10.0
