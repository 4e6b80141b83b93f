"""End-to-end flow over policies."""

import pytest

from repro.designs import generate_design
from repro.core import Policy, run_flow
from repro.core.targets import RobustnessTargets


@pytest.fixture(scope="module")
def flows(tiny_spec, tech):
    """Run every uniform policy plus smart on the tiny design."""
    results = {}
    for policy in (Policy.NO_NDR, Policy.ALL_NDR, Policy.WIDTH_ONLY,
                   Policy.SPACE_ONLY, Policy.RANDOM, Policy.SMART):
        design = generate_design(tiny_spec)
        results[policy] = run_flow(design, tech, policy=policy,
                                   random_fraction=0.4, random_seed=2)
    return results


def test_all_policies_complete(flows):
    for policy, result in flows.items():
        assert result.policy == policy
        assert result.clock_power > 0.0
        assert result.runtime > 0.0


def test_histograms_match_policy(flows, tiny_spec):
    n = sum(flows[Policy.NO_NDR].rule_histogram.values())
    assert flows[Policy.NO_NDR].rule_histogram == {"W1S1": n}
    assert flows[Policy.ALL_NDR].rule_histogram == {"W2S2": n}
    assert flows[Policy.WIDTH_ONLY].rule_histogram == {"W2S1": n}
    assert flows[Policy.SPACE_ONLY].rule_histogram == {"W1S2": n}
    random_hist = flows[Policy.RANDOM].rule_histogram
    assert set(random_hist) == {"W1S1", "W2S2"}


def test_power_ordering(flows):
    """no-NDR < smart-ish < all-NDR in switched capacitance."""
    assert flows[Policy.NO_NDR].switched_cap < \
        flows[Policy.ALL_NDR].switched_cap
    assert flows[Policy.SPACE_ONLY].switched_cap < \
        flows[Policy.WIDTH_ONLY].switched_cap


def test_all_ndr_most_robust_delta(flows):
    assert flows[Policy.ALL_NDR].analyses.crosstalk.worst_delta < \
        flows[Policy.NO_NDR].analyses.crosstalk.worst_delta


def test_summary_keys(flows):
    summary = flows[Policy.SMART].summary()
    for key in ("power_uw", "wire_cap_ff", "skew_ps", "worst_delta_ps",
                "skew_3sigma_ps", "em_violations", "feasible"):
        assert key in summary


def test_smart_records_optimizer(flows):
    assert flows[Policy.SMART].optimize is not None
    for policy in (Policy.NO_NDR, Policy.ALL_NDR):
        assert flows[policy].optimize is None


def test_ndr_track_cost_consistent(flows):
    assert flows[Policy.NO_NDR].ndr_track_cost == 0.0
    assert flows[Policy.ALL_NDR].ndr_track_cost > 0.0


def test_explicit_targets_used(tiny_spec, tech):
    design = generate_design(tiny_spec)
    targets = RobustnessTargets(max_worst_delta=1e6, max_skew_3sigma=1e6,
                                max_slew=1e6, max_em_util=1e6)
    result = run_flow(design, tech, policy=Policy.SMART, targets=targets)
    assert result.feasible
    assert result.optimize.num_upgraded == 0


def test_skew_tight_after_flow(flows, tech):
    for result in flows.values():
        timing = result.analyses.timing
        assert timing.skew <= max(1.5, 0.03 * timing.latency)
