"""Benchmark generator determinism and statistics."""

import pytest

from repro.designs import (DesignSpec, benchmark_suite, generate_design,
                         spec_by_name)
from repro.netlist import CellKind


def test_suite_has_six_designs():
    suite = benchmark_suite()
    assert len(suite) == 6
    sizes = [s.n_sinks for s in suite]
    assert sizes == sorted(sizes)
    assert sizes[0] == 64 and sizes[-1] == 2048


def test_spec_by_name():
    spec = spec_by_name("ckt256")
    assert spec.n_sinks == 256
    with pytest.raises(KeyError):
        spec_by_name("nope")


def test_generation_matches_spec():
    spec = DesignSpec("gen_t", n_sinks=40, die_edge=200.0,
                      aggressors_per_sink=1.5, seed=9)
    design = generate_design(spec)
    assert design.num_sinks == 40
    assert len(design.signal_nets) == spec.n_aggressors == 60
    assert design.clock_period == spec.clock_period
    design.validate()


def test_generation_deterministic():
    spec = DesignSpec("gen_d", n_sinks=30, die_edge=180.0, seed=4)
    a = generate_design(spec)
    b = generate_design(spec)
    locs_a = [p.location for p in a.clock_sinks]
    locs_b = [p.location for p in b.clock_sinks]
    assert locs_a == locs_b
    acts_a = [n.activity for n in a.signal_nets]
    acts_b = [n.activity for n in b.signal_nets]
    assert acts_a == acts_b


def test_different_seed_different_design():
    a = generate_design(DesignSpec("gen_s", n_sinks=30, die_edge=180.0, seed=1))
    b = generate_design(DesignSpec("gen_s", n_sinks=30, die_edge=180.0, seed=2))
    assert [p.location for p in a.clock_sinks] != \
        [p.location for p in b.clock_sinks]


def test_sinks_inside_die_with_margin():
    design = generate_design(spec_by_name("ckt64"))
    for pin in design.clock_sinks:
        assert design.die.expanded(-1.0).contains(pin.location)


def test_sink_locations_distinct():
    design = generate_design(spec_by_name("ckt128"))
    locations = {(p.location.x, p.location.y) for p in design.clock_sinks}
    assert len(locations) == design.num_sinks


def test_activities_skewed_quiet():
    design = generate_design(spec_by_name("ckt256"))
    activities = [n.activity for n in design.signal_nets]
    assert all(0.0 <= a <= 1.0 for a in activities)
    mean = sum(activities) / len(activities)
    assert 0.05 < mean < 0.35
    # Quiet-heavy shape: median below mean.
    median = sorted(activities)[len(activities) // 2]
    assert median < mean


def test_aggressor_fanout_bounds():
    design = generate_design(spec_by_name("ckt64"))
    for net in design.signal_nets:
        assert 2 <= len(net.sinks) <= 5


def test_clock_source_on_die_edge():
    design = generate_design(spec_by_name("ckt64"))
    assert design.clock_root.location.y == design.die.ylo


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        generate_design(DesignSpec("bad", n_sinks=0, die_edge=100.0))
    with pytest.raises(ValueError):
        generate_design(DesignSpec("bad2", n_sinks=-5, die_edge=100.0))


def test_gate_instances_created():
    design = generate_design(spec_by_name("ckt64"))
    kinds = {inst.kind for inst in design.instances.values()}
    assert CellKind.FLOP in kinds
    assert CellKind.GATE in kinds
    assert CellKind.PORT in kinds
