"""The smart-NDR optimizer (integration-level)."""

import pytest

from repro.designs import generate_design
from repro.core.evaluation import analyze_all, targets_from_reference
from repro.core.flow import build_physical_design
from repro.core.optimizer import SmartNdrOptimizer, _sink_dd_by_wire
from repro.core.policies import Policy, apply_uniform_policy
from repro.core.targets import RobustnessTargets
from repro.cts.refine import refine_skew
from repro.tech import rule_by_name


@pytest.fixture(scope="module")
def reference_targets(small_spec, tech):
    phys = build_physical_design(generate_design(small_spec), tech)
    apply_uniform_policy(phys.routing, Policy.ALL_NDR)
    refined = refine_skew(phys.tree, phys.routing, tech)
    loose = RobustnessTargets(max_worst_delta=1e6, max_skew_3sigma=1e6,
                              max_slew=1e6)
    bundle = analyze_all(refined.extraction, tech,
                         phys.design.clock_freq, loose)
    return targets_from_reference(bundle, tech)


@pytest.fixture(scope="module")
def optimized(small_spec, reference_targets, tech):
    phys = build_physical_design(generate_design(small_spec), tech)
    optimizer = SmartNdrOptimizer(phys.tree, phys.routing, tech,
                                  reference_targets, phys.design.clock_freq)
    result = optimizer.run(phys.extraction)
    return phys, result


def test_reaches_feasibility(optimized, reference_targets):
    _phys, result = optimized
    assert result.feasible
    assert result.analyses.violations(reference_targets) == {}


def test_selective_not_uniform(optimized):
    phys, result = optimized
    n = len(phys.routing.clock_wires)
    assert 0 < result.num_upgraded < n // 2


def test_upgrades_recorded_match_routing(optimized):
    phys, result = optimized
    for wire_id, rule_name in result.upgraded.items():
        assert phys.routing.tracks.wire(wire_id).rule.name.value == rule_name
    upgraded_ids = {w.wire_id for w in phys.routing.clock_wires
                    if not w.rule.is_default}
    assert upgraded_ids == set(result.upgraded)


def test_cheaper_than_all_ndr(optimized, small_spec, tech):
    from repro.power import analyze_power

    _phys, result = optimized
    smart_power = result.analyses.power.p_total

    ref = build_physical_design(generate_design(small_spec), tech)
    apply_uniform_policy(ref.routing, Policy.ALL_NDR)
    refined = refine_skew(ref.tree, ref.routing, tech)
    all_ndr_power = analyze_power(refined.extraction, tech,
                                  ref.design.clock_freq).p_total
    assert smart_power < all_ndr_power


def test_runtime_and_iterations_reported(optimized):
    _phys, result = optimized
    assert result.runtime > 0.0
    assert result.iterations >= 1


def test_already_feasible_means_no_upgrades(small_spec, tech):
    phys = build_physical_design(generate_design(small_spec), tech)
    loose = RobustnessTargets(max_worst_delta=1e6, max_skew_3sigma=1e6,
                              max_slew=1e6, max_em_util=1e6)
    result = SmartNdrOptimizer(phys.tree, phys.routing, tech, loose,
                               phys.design.clock_freq).run(phys.extraction)
    assert result.feasible
    assert result.num_upgraded == 0
    assert result.iterations == 0


def test_validation():
    with pytest.raises(ValueError):
        SmartNdrOptimizer(None, None, None, None, 1.0, lambda_track=-1.0)
    with pytest.raises(ValueError):
        SmartNdrOptimizer(None, None, None, None, 1.0, max_iterations=0)


def test_widened_helper(small_spec, reference_targets, tech):
    phys = build_physical_design(generate_design(small_spec), tech)
    opt = SmartNdrOptimizer(phys.tree, phys.routing, tech,
                            reference_targets, 1.0)
    assert opt._widened(rule_by_name("W1S1")).name.value == "W2S1"
    assert opt._widened(rule_by_name("W1S2")).name.value == "W2S2"
    assert opt._widened(rule_by_name("W2S2")).name.value == "W4S2"
    assert opt._widened(rule_by_name("W4S2")).name.value == "W4S2"


def test_upgrades_respect_restricted_rule_set(small_spec, reference_targets,
                                              tech):
    import dataclasses

    restricted = dataclasses.replace(
        tech, rules=tuple(r for r in tech.rules
                          if r.name.value in ("W1S1", "W1S2")))
    phys = build_physical_design(generate_design(small_spec), restricted)
    opt = SmartNdrOptimizer(phys.tree, phys.routing, restricted,
                            reference_targets, 1.0)
    names = {r.name.value for r in opt._upgrades(rule_by_name("W1S1"))}
    assert names == {"W1S2"}
    # No wider rule available: widening is a no-op.
    assert opt._widened(rule_by_name("W1S1")).name.value == "W1S1"


def test_sink_dd_decomposition_sums_to_worst(small_physical):
    """Per-wire contributions reassemble the crosstalk report's number."""
    from repro.timing.crosstalk import analyze_crosstalk

    ext = small_physical.extraction
    report = analyze_crosstalk(ext.network, ext.wires)
    worst_sink = max(report.sinks, key=lambda s: s.worst)
    contributions, cc_through = _sink_dd_by_wire(
        ext, worst_sink.pin.full_name)
    assert sum(contributions.values()) == pytest.approx(worst_sink.worst,
                                                        rel=1e-9)
    # cc_through only exists for wires with coupling upstream-or-local.
    assert all(v >= 0 for v in cc_through.values())


def test_sink_dd_unknown_pin(small_physical):
    with pytest.raises(KeyError):
        _sink_dd_by_wire(small_physical.extraction, "ghost/CK")


def _analysis_bits(analyses):
    return (analyses.power.p_total.hex(), analyses.power.total_cap.hex(),
            analyses.timing.skew.hex(), analyses.timing.latency.hex(),
            analyses.timing.worst_slew.hex(),
            analyses.crosstalk.worst_delta.hex(),
            analyses.mc.skew_3sigma.hex(), analyses.em.num_violations,
            analyses.em.worst_utilization.hex())


def test_starting_from_build_extraction_matches_fresh(small_spec,
                                                      reference_targets,
                                                      tech):
    """The build's extraction is the routing's current extraction: a run
    started from it decides and measures exactly like one started from
    a fresh extract()."""
    from repro.extract import extract

    runs = []
    for fresh in (False, True):
        phys = build_physical_design(generate_design(small_spec), tech)
        start = (extract(phys.tree, phys.routing) if fresh
                 else phys.extraction)
        result = SmartNdrOptimizer(phys.tree, phys.routing, tech,
                                   reference_targets,
                                   phys.design.clock_freq).run(start)
        runs.append(result)
    built, fresh = runs
    assert built.upgraded and built.iterations >= 1
    assert built.upgraded == fresh.upgraded
    assert built.iterations == fresh.iterations
    assert built.downgraded == fresh.downgraded
    assert built.feasible == fresh.feasible
    assert _analysis_bits(built.analyses) == _analysis_bits(fresh.analyses)


def test_run_rejects_extraction_of_another_routing(small_spec, tech):
    phys = build_physical_design(generate_design(small_spec), tech)
    other = build_physical_design(generate_design(small_spec), tech)
    opt = SmartNdrOptimizer(phys.tree, phys.routing, tech,
                            RobustnessTargets.for_period(
                                phys.design.clock_period, tech.max_slew),
                            phys.design.clock_freq)
    with pytest.raises(ValueError):
        opt.run(other.extraction)


def test_downgrade_pass_is_traced(small_spec, reference_targets, tech):
    from repro import obs

    phys = build_physical_design(generate_design(small_spec), tech)
    tracer = obs.enable("downgrade")
    try:
        result = SmartNdrOptimizer(phys.tree, phys.routing, tech,
                                   reference_targets,
                                   phys.design.clock_freq).run(
                                       phys.extraction)
    finally:
        obs.disable()
    assert result.feasible and result.upgraded
    # This design's batch holds; an accepted batch reverts every
    # candidate.
    assert result.downgraded > 0
    (span,) = [r for r in tracer.records if r.name == "opt.downgrade"]
    assert span.attrs == {"candidates": result.downgraded, "accepted": True}
