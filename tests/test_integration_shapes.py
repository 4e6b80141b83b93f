"""Qualitative reproduction shapes (EXPERIMENTS.md in test form).

These integration tests pin down the *shape* of the paper's results —
who wins, roughly by how much, and in which regime — on one mid-size
benchmark.  Absolute numbers are platform-model-dependent and are not
asserted.
"""

import pytest

from repro.designs import spec_by_name, generate_design
from repro.core import Policy, run_flow, targets_from_reference


@pytest.fixture(scope="module")
def suite_results(tech):
    """NO/ALL/SMART flows on ckt128 against reference-pegged budgets."""
    name = "ckt128"
    ref = run_flow(generate_design(spec_by_name(name)), tech,
                   policy=Policy.ALL_NDR)
    targets = targets_from_reference(ref.analyses, tech)
    results = {}
    for policy in (Policy.NO_NDR, Policy.ALL_NDR, Policy.SMART):
        design = generate_design(spec_by_name(name))
        results[policy] = run_flow(design, tech, policy=policy,
                                   targets=targets)
    return results


def test_headline_no_ndr_is_infeasible(suite_results):
    """Default routing misses the robustness spec: NDRs are needed."""
    assert not suite_results[Policy.NO_NDR].feasible


def test_headline_all_ndr_is_feasible_but_expensive(suite_results):
    all_ndr = suite_results[Policy.ALL_NDR]
    no_ndr = suite_results[Policy.NO_NDR]
    assert all_ndr.feasible
    overhead = all_ndr.clock_power / no_ndr.clock_power
    assert 1.08 < overhead < 1.6


def test_headline_smart_matches_robustness_at_lower_power(suite_results):
    """The paper's claim: selective NDR is feasible at a fraction of the
    uniform-NDR power overhead."""
    smart = suite_results[Policy.SMART]
    all_ndr = suite_results[Policy.ALL_NDR]
    no_ndr = suite_results[Policy.NO_NDR]
    assert smart.feasible
    assert smart.clock_power < all_ndr.clock_power
    # Smart recovers at least half of the all-NDR overhead.
    saved = all_ndr.clock_power - smart.clock_power
    overhead = all_ndr.clock_power - no_ndr.clock_power
    assert saved > 0.4 * overhead


def test_smart_upgrades_minority_of_wires(suite_results):
    smart = suite_results[Policy.SMART]
    hist = smart.rule_histogram
    total = sum(hist.values())
    upgraded = total - hist.get("W1S1", 0)
    assert 0 < upgraded < total // 2


def test_robustness_metrics_within_budget(suite_results):
    smart = suite_results[Policy.SMART]
    targets = smart.targets
    a = smart.analyses
    assert a.crosstalk.worst_delta <= targets.max_worst_delta
    assert a.mc.skew_3sigma <= targets.max_skew_3sigma
    assert a.em.num_violations == 0
    assert a.timing.worst_slew <= targets.max_slew


def test_smart_uses_spacing_for_si_and_width_for_em(suite_results):
    """The decision anatomy: both axes of the rule space get used."""
    hist = suite_results[Policy.SMART].rule_histogram
    spacing_rules = hist.get("W1S2", 0) + hist.get("W2S2", 0) \
        + hist.get("W4S2", 0)
    width_rules = hist.get("W2S1", 0) + hist.get("W2S2", 0) \
        + hist.get("W4S2", 0)
    assert spacing_rules > 0
    assert width_rules > 0
