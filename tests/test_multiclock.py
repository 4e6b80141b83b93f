"""Multi-clock-domain builds."""

import pytest

from repro import obs
from repro.designs import DesignSpec, generate_design, spec_by_name
from repro.core import Policy, run_flow
from repro.core.multiclock import (ClockDomain, run_multiclock_flow,
                                   split_domains)
from repro.verify import VerifyContext, run_checks


SPEC = DesignSpec("mc", n_sinks=64, die_edge=300.0,
                  aggressors_per_sink=1.5, seed=19)


@pytest.fixture(scope="module")
def design():
    return generate_design(SPEC)


@pytest.fixture(scope="module")
def domains(design):
    return split_domains(design, 2)


def test_split_partitions_sinks(design, domains):
    names = set()
    for domain in domains:
        names |= {p.full_name for p in domain.sinks}
    assert len(names) == design.num_sinks
    assert abs(len(domains[0].sinks) - len(domains[1].sinks)) <= 1


def test_split_is_geographic(domains):
    max_x0 = max(p.location.x for p in domains[0].sinks)
    min_x1 = min(p.location.x for p in domains[1].sinks)
    assert max_x0 <= min_x1


def test_split_validation(design):
    with pytest.raises(ValueError):
        split_domains(design, 0)
    with pytest.raises(ValueError):
        split_domains(design, design.num_sinks + 1)
    with pytest.raises(ValueError):
        ClockDomain("empty", domains_source := design.die.center, ())


def test_domains_share_track_space(design, domains, tech):
    result = run_multiclock_flow(design, domains, tech,
                                 policy=Policy.NO_NDR)
    a, b = result.domains
    assert a.routing.tracks is b.routing.tracks
    # Per-domain views don't leak each other's wires.
    names_a = {w.net_name for w in a.routing.clock_wires}
    names_b = {w.net_name for w in b.routing.clock_wires}
    assert names_a == {"clk0"} and names_b == {"clk1"}


def test_interleaved_split(design):
    domains = split_domains(design, 2, interleave=True)
    # Both domains span the whole die.
    for domain in domains:
        xs = [p.location.x for p in domain.sinks]
        assert max(xs) - min(xs) > 0.5 * design.die.width


def test_cross_domain_coupling_visible(design, tech):
    """With interleaved domains, each domain's extraction must see the
    other clock as an activity-1.0 aggressor somewhere."""
    domains = split_domains(design, 2, interleave=True)
    result = run_multiclock_flow(design, domains, tech,
                                 policy=Policy.NO_NDR)
    hot = 0
    for d in result.domains:
        for para in d.extraction.wires.values():
            hot += sum(1 for e in para.couplings if e.activity == 1.0)
    assert hot > 0


def test_per_domain_timing_independent(design, domains, tech):
    result = run_multiclock_flow(design, domains, tech,
                                 policy=Policy.NO_NDR)
    for d in result.domains:
        assert len(d.analyses.timing.sinks) == len(d.domain.sinks)
        assert d.analyses.timing.skew < 3.0  # trimmed per domain


def test_smart_multiclock_feasible(design, domains, tech):
    result = run_multiclock_flow(design, domains, tech, policy=Policy.SMART)
    assert result.all_feasible
    for d in result.domains:
        assert d.optimize is not None
    no_ndr = run_multiclock_flow(design, domains, tech,
                                 policy=Policy.NO_NDR)
    assert not no_ndr.all_feasible


def test_result_lookup(design, domains, tech):
    result = run_multiclock_flow(design, domains, tech,
                                 policy=Policy.NO_NDR)
    assert result.domain("clk0").domain.name == "clk0"
    with pytest.raises(KeyError):
        result.domain("nope")
    assert result.total_power == pytest.approx(
        sum(d.clock_power for d in result.domains))


def _metrics(analyses) -> list[float]:
    return [analyses.power.p_total, analyses.power.wire_cap,
            analyses.power.total_cap, analyses.timing.skew,
            analyses.timing.latency, analyses.timing.worst_slew,
            analyses.crosstalk.worst_delta, analyses.mc.skew_3sigma,
            float(analyses.em.num_violations),
            analyses.em.worst_utilization]


def _rules(routing) -> list[tuple[int, str, bool]]:
    return [(w.wire_id, w.rule.name.value, w.shielded)
            for w in routing.clock_wires]


@pytest.mark.parametrize("design_name", ["ckt64", "soc_h64"])
@pytest.mark.parametrize("policy", [
    Policy.NO_NDR, Policy.ALL_NDR, Policy.WIDTH_ONLY, Policy.SPACE_ONLY,
    Policy.RANDOM, Policy.SMART, Policy.SMART_SHIELD])
def test_one_domain_matches_run_flow(design_name, policy, tech):
    """A one-domain multi-clock run is the single-clock flow: the same
    policy stage, so the same rules and the same analyses."""
    design = generate_design(spec_by_name(design_name))
    domain = ClockDomain("clk", source=design.clock_root.location,
                         sinks=tuple(design.clock_sinks))
    [one] = run_multiclock_flow(design, [domain], tech,
                                policy=policy).domains
    flow = run_flow(design, tech, policy=policy, targets=one.targets)
    assert _rules(one.routing) == _rules(flow.physical.routing)
    assert _metrics(one.analyses) == pytest.approx(
        _metrics(flow.analyses), rel=1e-9)


def test_domains_run_the_flow_stages(design, tech):
    """Every domain opens the flow's own stage spans."""
    domains = split_domains(design, 2, interleave=True)
    tracer = obs.enable("multiclock")
    try:
        run_multiclock_flow(design, domains, tech, policy=Policy.SMART)
    finally:
        obs.disable()
    names = [r.name for r in tracer.records]
    for stage in ("flow.policy", "flow.optimize", "flow.retrim",
                  "flow.analyze"):
        assert names.count(stage) == len(domains), stage


@pytest.mark.parametrize("design_name, policy", [
    ("ckt64", Policy.ALL_NDR), ("ckt128", Policy.SMART)])
def test_every_domain_is_analyzed_on_the_final_routing(design_name, policy,
                                                       tech):
    """Later domains' rules move earlier domains' coupling; every
    domain's parasitics must still match a fresh extraction."""
    design = generate_design(spec_by_name(design_name))
    domains = split_domains(design, 2, interleave=True)
    result = run_multiclock_flow(design, domains, tech, policy=policy)
    for d in result.domains:
        report = run_checks(VerifyContext(tech=tech, tree=d.tree,
                                          routing=d.routing,
                                          extraction=d.extraction),
                            rules=["extraction-fresh"])
        assert not report.has_errors, (d.domain.name, report.render())
