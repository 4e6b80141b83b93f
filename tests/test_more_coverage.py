"""Cross-cutting coverage: smaller behaviors not pinned elsewhere."""

import pytest

from repro.designs import DesignSpec, generate_design
from repro.core import Policy
from repro.core.multiclock import run_multiclock_flow, split_domains
from repro.power.gating import GatingPlan, stage_activities
from repro.viz import render_clock_svg


SPEC = DesignSpec("cov", n_sinks=32, die_edge=200.0,
                  aggressors_per_sink=1.5, seed=23)


@pytest.fixture(scope="module")
def design():
    return generate_design(SPEC)


def test_multiclock_uniform_policy_assigns_both(design, tech):
    domains = split_domains(design, 2)
    result = run_multiclock_flow(design, domains, tech,
                                 policy=Policy.ALL_NDR)
    for d in result.domains:
        hist = d.routing.rule_histogram()
        assert set(hist) == {"W2S2"}


def test_multiclock_single_domain_matches_structure(design, tech):
    [domain] = split_domains(design, 1)
    result = run_multiclock_flow(design, [domain], tech,
                                 policy=Policy.NO_NDR)
    assert len(result.domains) == 1
    assert len(result.domains[0].analyses.timing.sinks) == design.num_sinks


def test_multiclock_targets_dict_validated(design, tech):
    domains = split_domains(design, 2)
    from repro.core.targets import RobustnessTargets

    partial = {"clk0": RobustnessTargets.for_period(1000.0, 80.0)}
    with pytest.raises(ValueError):
        run_multiclock_flow(design, domains, tech, policy=Policy.NO_NDR,
                            targets=partial)


def test_nested_manual_gates_compose(small_physical):
    """Two gates stacked on one chain multiply their enables."""
    network = small_physical.extraction.network
    # Find a stage with a child stage.
    parent_idx = next(i for i in range(len(network.stages))
                      if network.stage_children(i))
    child_idx = network.stage_children(parent_idx)[0]
    plan = GatingPlan()
    if parent_idx != network.root_stage:
        plan.add(network.stages[parent_idx].tree_node_id, 0.5)
    plan.add(network.stages[child_idx].tree_node_id, 0.5)
    activity = stage_activities(network, plan)
    expected = 0.25 if parent_idx != network.root_stage else 0.5
    assert activity[child_idx] == pytest.approx(expected)


def test_viz_blockage_rects(tech):
    blocked = generate_design(DesignSpec("covb", n_sinks=24, die_edge=200.0,
                                         seed=29, n_blockages=2))
    from repro.core.flow import build_physical_design

    phys = build_physical_design(blocked, tech)
    plain = render_clock_svg(phys.tree, phys.routing)
    with_macros = render_clock_svg(phys.tree, phys.routing,
                                   blockages=blocked.blockages)
    assert with_macros.count("<rect") == plain.count("<rect") + 2


def test_wire_report_shows_rules(make_tiny_physical, tmp_path, tech):
    from repro.io import write_wire_report
    from repro.tech import rule_by_name

    phys = make_tiny_physical()
    wire = phys.routing.clock_wires[0]
    phys.routing.assign_rule(wire.wire_id, rule_by_name("W4S2"))
    from repro.extract import extract

    ext = extract(phys.tree, phys.routing)
    path = tmp_path / "w.txt"
    write_wire_report(ext, path)
    assert "W4S2" in path.read_text()


def test_cli_verbose_summary(tmp_path, capsys, tiny_design):
    from repro.cli import main
    from repro.io import save_design

    design_path = tmp_path / "d.json"
    save_design(tiny_design, design_path)
    main(["run", "--design", str(design_path), "--verbose"])
    out = capsys.readouterr().out
    assert "verdict:" in out and "electromigration" in out


def test_trim_choice_fields():
    from repro.cts.delaytrim import cheapest_trim

    trim = cheapest_trim(4.0, 1.0, 20.0, 0.001, 0.2)
    assert trim.added_cap > 0
    assert (trim.pad_cap > 0) != (trim.snake_len > 0)  # exactly one used
