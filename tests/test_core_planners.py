"""Unit-level behavior of the optimizer's per-constraint planners."""

import pytest

from repro.designs import generate_design
from repro.core.evaluation import analyze_all
from repro.core.features import wire_contexts
from repro.core.flow import build_physical_design
from repro.core.optimizer import Move, SmartNdrOptimizer
from repro.core.targets import RobustnessTargets
from repro.tech import rule_by_name


LOOSE = RobustnessTargets(max_worst_delta=1e6, max_skew_3sigma=1e6,
                          max_slew=1e6, max_em_util=1e6)


@pytest.fixture
def setup(small_spec, tech):
    phys = build_physical_design(generate_design(small_spec), tech)
    freq = phys.design.clock_freq
    opt = SmartNdrOptimizer(phys.tree, phys.routing, tech, LOOSE, freq)
    analyses = analyze_all(phys.extraction, tech, freq, LOOSE)
    contexts = wire_contexts(phys.tree, phys.extraction)
    return phys, opt, analyses, contexts


def test_move_label():
    move = Move(rule_by_name("W2S1"))
    assert move.label == "W2S1"
    assert Move(rule_by_name("W1S2"), shielded=True).label == "W1S2+SH"


def test_plan_em_fixes_every_violator(setup, tech):
    phys, opt, analyses, contexts = setup
    opt.targets = RobustnessTargets(max_worst_delta=1e6, max_skew_3sigma=1e6,
                                    max_slew=1e6, max_em_util=1.0)
    plan = {}
    opt._plan_em(analyses, contexts, plan)
    violators = {v.wire_id for v in analyses.em.wires if v.utilization > 1.0}
    assert violators  # the benchmark has some
    assert violators <= set(plan)
    for wire_id in violators:
        move = plan[wire_id]
        # The planned rule's width brings utilisation under the limit.
        record = analyses.em.utilization_of(wire_id)
        wire = phys.routing.tracks.wire(wire_id)
        scale = wire.rule.width_mult / move.rule.width_mult
        assert record * scale <= 1.35  # cap growth adds a bit back


def test_plan_em_prefers_minimal_width(setup, tech):
    """A mild violator gets W2, not W4."""
    phys, opt, analyses, contexts = setup
    opt.targets = RobustnessTargets(max_worst_delta=1e6, max_skew_3sigma=1e6,
                                    max_slew=1e6, max_em_util=1.0)
    plan = {}
    opt._plan_em(analyses, contexts, plan)
    mild = [v for v in analyses.em.violations if v.utilization < 1.6]
    for record in mild:
        if record.wire_id in plan:
            assert plan[record.wire_id].rule.width_mult <= 2.0


def test_plan_delta_targets_offender_wires(setup, tech):
    phys, opt, analyses, contexts = setup
    budget = analyses.crosstalk.worst_delta * 0.5
    opt.targets = RobustnessTargets(max_worst_delta=budget,
                                    max_skew_3sigma=1e6, max_slew=1e6,
                                    max_em_util=1e6)
    plan = {}
    opt._plan_delta(phys.extraction, analyses, contexts, plan)
    assert plan  # something planned
    # Every planned move strictly upgrades (dominates the current rule).
    for wire_id, move in plan.items():
        current = phys.routing.tracks.wire(wire_id).rule
        assert move.rule.dominates(current)
        assert move.rule != current or move.shielded


def test_plan_sigma_scales_with_excess(setup, tech):
    phys, opt, analyses, contexts = setup
    tight = analyses.mc.skew_3sigma * 0.9
    very_tight = analyses.mc.skew_3sigma * 0.55
    plans = {}
    for label, budget in (("tight", tight), ("very", very_tight)):
        opt.targets = RobustnessTargets(max_worst_delta=1e6,
                                        max_skew_3sigma=budget,
                                        max_slew=1e6, max_em_util=1e6)
        plan = {}
        opt._plan_sigma(phys.extraction, analyses, contexts, plan, 1.0)
        plans[label] = plan
    assert len(plans["very"]) >= len(plans["tight"]) > 0
    for move in plans["very"].values():
        assert move.rule.width_mult >= 2.0  # sigma planner widens


def test_shield_moves_only_when_enabled(setup, tech):
    phys, opt, analyses, contexts = setup
    budget = analyses.crosstalk.worst_delta * 0.5
    opt.targets = RobustnessTargets(max_worst_delta=budget,
                                    max_skew_3sigma=1e6, max_slew=1e6,
                                    max_em_util=1e6)
    plan = {}
    opt._plan_delta(phys.extraction, analyses, contexts, plan)
    assert not any(m.shielded for m in plan.values())
    opt.use_shielding = True
    plan2 = {}
    opt._plan_delta(phys.extraction, analyses, contexts, plan2)
    # Shield moves are at least considered; whether any wins depends on
    # costs, so only check the mechanism doesn't corrupt the plan.
    for wire_id, move in plan2.items():
        wire = phys.routing.tracks.wire(wire_id)
        assert move.rule.dominates(wire.rule)


def test_violation_score_normalisation(setup):
    _phys, opt, _analyses, _contexts = setup
    opt.targets = RobustnessTargets(max_worst_delta=2.0, max_skew_3sigma=4.0,
                                    max_slew=80.0, max_em_util=1.0)
    score = opt._violation_score({"delta_delay": 1.0, "skew_3sigma": 2.0})
    assert score == pytest.approx(1.0)  # 1/2 + 2/4
