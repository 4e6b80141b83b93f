"""Degenerate and boundary designs through the full flow."""

import pytest

from repro.designs import DesignSpec, generate_design
from repro.core import Policy, run_flow
from repro.core.flow import build_physical_design


def _spec(n, **kwargs):
    defaults = dict(die_edge=80.0, aggressors_per_sink=3.0, seed=2,
                    n_clusters=0)
    defaults.update(kwargs)
    return DesignSpec(f"edge{n}", n_sinks=n, **defaults)


@pytest.mark.parametrize("n_sinks", [1, 2, 3, 5])
def test_tiny_sink_counts_full_flow(n_sinks, tech):
    design = generate_design(_spec(n_sinks))
    result = run_flow(design, tech, policy=Policy.SMART)
    assert len(result.analyses.timing.sinks) == n_sinks
    assert result.clock_power > 0.0
    assert result.analyses.timing.skew < 5.0


def test_single_sink_has_root_buffer(tech):
    phys = build_physical_design(generate_design(_spec(1)), tech)
    assert phys.tree.root.buffer is not None
    assert len(phys.extraction.network.stages) >= 1


def test_no_aggressors_design(tech):
    """A clock with zero signal nets: no coupling anywhere."""
    spec = _spec(16, aggressors_per_sink=0.0)
    design = generate_design(spec)
    assert design.signal_nets == []
    result = run_flow(design, tech, policy=Policy.SMART)
    assert result.analyses.crosstalk.worst_delta == pytest.approx(0.0)
    assert result.feasible


def test_uniform_placement(tech):
    """n_clusters=0 places sinks uniformly; flow still converges."""
    design = generate_design(_spec(32, die_edge=300.0))
    result = run_flow(design, tech, policy=Policy.ALL_NDR)
    assert result.analyses.timing.skew <= 2.0


def test_high_activity_aggressors(tech):
    """Hot aggressors (mean activity near 0.5) stress the SI budget."""
    spec = _spec(32, die_edge=200.0, mean_activity=0.5)
    design = generate_design(spec)
    result = run_flow(design, tech, policy=Policy.SMART)
    # Expected-case deltas grow with activity but worst-case analysis
    # still bounds and repairs them.
    assert result.analyses.crosstalk.worst_delta <= \
        result.targets.max_worst_delta * 1.001 or not result.feasible


def test_fast_clock_period(tech):
    """A 2 GHz clock doubles EM current; flow widens more but converges."""
    spec = _spec(32, die_edge=200.0, clock_period=500.0)
    design = generate_design(spec)
    result = run_flow(design, tech, policy=Policy.SMART)
    assert result.analyses.em.num_violations == 0


def test_fast_clock_triggers_resynthesis(tech):
    """At 2 GHz the trunk charge exceeds what even W4S2 can carry, so
    the flow must have rebuilt with smaller stages than the default
    build produces."""
    spec = _spec(32, die_edge=200.0, clock_period=500.0)
    baseline = build_physical_design(generate_design(spec), tech)
    result = run_flow(generate_design(spec), tech, policy=Policy.SMART)
    rebuilt = result.physical
    assert len(rebuilt.extraction.network.stages) > \
        len(baseline.extraction.network.stages)
    assert result.feasible


def test_flow_is_deterministic(tech):
    spec = _spec(24, die_edge=150.0)
    a = run_flow(generate_design(spec), tech, policy=Policy.SMART)
    b = run_flow(generate_design(spec), tech, policy=Policy.SMART)
    assert a.summary() == b.summary()
    assert a.rule_histogram == b.rule_histogram


def test_two_sinks_same_location_region(tech):
    """Sinks snapped very close together still embed and route."""
    from repro.geom.point import Point
    from repro.geom.rect import Rect
    from repro.netlist.design import Design

    design = Design(name="close", die=Rect(0, 0, 50, 50))
    design.add_clock_source(Point(25, 0))
    design.add_flop("a", Point(20.0, 20.0), 1.8)
    design.add_flop("b", Point(20.0, 22.0), 1.8)
    design.add_flop("c", Point(40.0, 40.0), 1.8)
    phys = build_physical_design(design, tech)
    assert phys.refine.timing.skew < 2.0
