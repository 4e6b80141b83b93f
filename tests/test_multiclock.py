"""Multi-clock-domain builds."""

import pytest

from repro.designs import DesignSpec, generate_design
from repro.core import Policy
from repro.core.multiclock import (ClockDomain, run_multiclock_flow,
                                   split_domains)


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


def test_unsupported_policies_rejected(design, domains, tech):
    with pytest.raises(ValueError):
        run_multiclock_flow(design, domains, tech, policy=Policy.SMART_ML)


def test_result_lookup(design, domains, tech):
    result = run_multiclock_flow(design, domains, tech,
                                 policy=Policy.NO_NDR)
    assert result.domain("clk0").domain.name == "clk0"
    with pytest.raises(KeyError):
        result.domain("nope")
    assert result.total_power == pytest.approx(
        sum(d.clock_power for d in result.domains))
