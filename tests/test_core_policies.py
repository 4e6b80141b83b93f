"""Baseline policies."""

import pytest

from repro.core.flow import run_flow
from repro.core.policies import (Policy, apply_random_policy,
                                 apply_uniform_policy, uniform_rule_of)
from repro.core.stages import BuildMemo
from repro.designs import generate_design, iter_specs, spec_by_name

#: Registered designs whose build cannot route (ROADMAP item 4).
UNROUTABLE = {"soc_h256m", "imp_noc"}

#: Every registered design of at most 256 sinks that routes.
ROBUSTNESS_DESIGNS = [pytest.param(spec, id=spec.name) for spec in iter_specs()
                      if spec.n_sinks <= 256 and spec.name not in UNROUTABLE]


def test_uniform_rules():
    assert uniform_rule_of(Policy.NO_NDR).name.value == "W1S1"
    assert uniform_rule_of(Policy.ALL_NDR).name.value == "W2S2"
    assert uniform_rule_of(Policy.WIDTH_ONLY).name.value == "W2S1"
    assert uniform_rule_of(Policy.SPACE_ONLY).name.value == "W1S2"


def test_smart_is_not_uniform():
    with pytest.raises(ValueError):
        uniform_rule_of(Policy.SMART)


def test_apply_uniform(make_tiny_physical):
    phys = make_tiny_physical()
    apply_uniform_policy(phys.routing, Policy.ALL_NDR)
    hist = phys.routing.rule_histogram()
    assert hist == {"W2S2": len(phys.routing.clock_wires)}


def test_apply_uniform_leaves_signals_alone(make_tiny_physical):
    phys = make_tiny_physical()
    apply_uniform_policy(phys.routing, Policy.ALL_NDR)
    for wire in phys.routing.signal_wires:
        assert wire.rule.is_default


def test_random_policy_fraction(make_tiny_physical):
    phys = make_tiny_physical()
    upgraded = apply_random_policy(phys.routing, fraction=0.5, seed=1)
    n = len(phys.routing.clock_wires)
    assert 0.2 * n < len(upgraded) < 0.8 * n
    hist = phys.routing.rule_histogram()
    assert hist.get("W2S2", 0) == len(upgraded)
    assert hist.get("W1S1", 0) == n - len(upgraded)


def test_random_policy_extremes(make_tiny_physical):
    phys = make_tiny_physical()
    assert apply_random_policy(phys.routing, 0.0) == []
    all_up = apply_random_policy(phys.routing, 1.0)
    assert len(all_up) == len(phys.routing.clock_wires)


def test_random_policy_deterministic(make_tiny_physical):
    a = apply_random_policy(make_tiny_physical().routing, 0.3, seed=7)
    b = apply_random_policy(make_tiny_physical().routing, 0.3, seed=7)
    assert a == b


def test_random_policy_validation(make_tiny_physical):
    phys = make_tiny_physical()
    with pytest.raises(ValueError):
        apply_random_policy(phys.routing, 1.5)


def _uniform_summaries(spec):
    """NO-NDR and ALL-NDR summaries on one build, period budgets."""
    design = generate_design(spec)
    memo = BuildMemo()
    return tuple(run_flow(design, policy=policy, memo=memo).summary()
                 for policy in (Policy.NO_NDR, Policy.ALL_NDR))


@pytest.mark.parametrize("spec", ROBUSTNESS_DESIGNS)
def test_all_ndr_is_at_least_as_robust_as_no_ndr(spec):
    """W2S2 on every clock wire never worsens crosstalk delta delay,
    3-sigma skew or EM utilization against W1S1 everywhere: the
    robustness ALL-NDR's budgets promise SMART."""
    no_ndr, all_ndr = _uniform_summaries(spec)
    for metric in ("worst_delta_ps", "skew_3sigma_ps", "em_worst_util"):
        assert all_ndr[metric] <= no_ndr[metric], (
            metric, no_ndr[metric], all_ndr[metric])


def test_all_ndr_can_raise_worst_slew():
    """Worst slew is not among those properties: on ckt64 the doubled
    width adds wire capacitance every buffer stage drives, and ALL-NDR's
    worst slew rises from 47.96 to 54.08 ps."""
    no_ndr, all_ndr = _uniform_summaries(spec_by_name("ckt64"))
    assert all_ndr["wire_cap_ff"] > no_ndr["wire_cap_ff"]
    assert no_ndr["worst_slew_ps"] == pytest.approx(47.963, abs=1e-3)
    assert all_ndr["worst_slew_ps"] == pytest.approx(54.084, abs=1e-3)
