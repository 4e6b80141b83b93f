"""Seeded-corruption tests for the static verification layer.

Every flow check must (a) stay silent on a legitimately built
design and (b) fire a named diagnostic when its invariant is broken on
purpose.  Corruptions are injected into fresh per-test builds — the
session-scoped fixtures stay read-only.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.designs import generate_design
from repro.core.flow import run_flow
from repro.core.optimizer import SmartNdrOptimizer
from repro.core.policies import Policy
from repro.core.sensitivity import SensitivityCache
from repro.core.targets import RobustnessTargets
from repro.engine import AnalysisEngine
from repro.route.wires import RoutedWire
from repro.tech.ndr import W2S2, W4S2, RuleName, RoutingRule
from repro.verify import (FLOW_CHECKS, Severity, VerificationError,
                          VerifyContext, assert_flow_clean, flow_checks,
                          run_checks, verify_flow, verify_physical)
from repro.verify.registry import Check, run_family


def _errors(report, rule=None):
    return [d for d in report.errors if rule is None or d.rule == rule]


def _warnings(report, rule=None):
    return [d for d in report.warnings if rule is None or d.rule == rule]


@pytest.fixture
def tiny_flow(tech, tiny_spec):
    """A fresh SMART flow (engine attached) safe to corrupt."""
    return run_flow(generate_design(tiny_spec), tech, policy=Policy.SMART)


@pytest.fixture
def tiny_ref(tmp_path, tiny_design):
    """The tiny design as a JSON path (a lint request's design ref)."""
    from repro.io import save_design

    path = tmp_path / "tiny.json"
    save_design(tiny_design, path)
    return str(path)


@pytest.fixture
def engine_ctx(make_tiny_physical, tech):
    """A fresh physical with an analysis engine wrapped in a context."""
    physical = make_tiny_physical()
    design = physical.design
    targets = RobustnessTargets.for_period(design.clock_period,
                                           tech.max_slew)
    engine = AnalysisEngine(physical.extraction, physical.tree, tech,
                            design.clock_freq, targets)
    return VerifyContext(
        tech=tech, tree=physical.tree, routing=physical.routing,
        extraction=physical.extraction, engine=engine,
        clock_period=design.clock_period, freq=design.clock_freq,
        design=design)


# -- registry / clean-design behaviour ----------------------------------------


def test_registry_has_full_catalogue():
    assert len(flow_checks(["drc"])) == 10
    assert len(flow_checks(["oracle"])) == 7
    assert len(FLOW_CHECKS) == 17
    assert all(check.doc for check in FLOW_CHECKS), "every check is documented"
    assert len({check.rule for check in FLOW_CHECKS}) == len(FLOW_CHECKS)


def test_clean_flow_verifies_clean(tiny_flow):
    report = verify_flow(tiny_flow)
    assert not report.has_errors, report.render()
    assert report.checks_run == sorted(c.rule for c in FLOW_CHECKS)
    assert tiny_flow.optimize is not None
    assert tiny_flow.optimize.engine is not None


def test_clean_physical_verifies_clean(make_tiny_physical):
    report = verify_physical(make_tiny_physical())
    assert not report.has_errors, report.render()


def test_run_checks_unknown_rule_raises(make_tiny_physical):
    ctx = VerifyContext.from_physical(make_tiny_physical())
    with pytest.raises(KeyError, match="no-such-rule"):
        run_checks(ctx, rules=["no-such-rule"])


def test_crashing_check_reported_not_masked(make_tiny_physical):
    def check_crash(ctx):
        """Always crashes (test helper)."""
        raise RuntimeError("boom")

    ctx = VerifyContext.from_physical(make_tiny_physical())
    report = run_family(ctx, (Check("test-crash", "drc", check_crash),))
    errs = _errors(report, "test-crash")
    assert len(errs) == 1
    assert "boom" in errs[0].message
    assert report.checks_run == ["test-crash"]


def test_flow_is_verified_by_exactly_its_checks(tiny_flow, tiny_ref):
    """Whatever else the process imported, a flow pass runs the 17."""
    import repro.analysis  # noqa: F401 - the static family's table
    import repro.designs.importer  # noqa: F401 - the import family's table
    from repro.api import LintRequest, lint

    flow_rules = sorted(c.rule for c in FLOW_CHECKS)
    assert len(flow_rules) == 17
    assert verify_flow(tiny_flow).checks_run == flow_rules
    assert lint(LintRequest(design=tiny_ref)).checks_run == flow_rules


def test_unknown_kind_is_rejected(make_tiny_physical):
    ctx = VerifyContext.from_physical(make_tiny_physical())
    for kinds in (["drcc"], ["static"], ["import"]):
        with pytest.raises(ValueError, match="drc and oracle"):
            run_checks(ctx, kinds=kinds)


def test_report_render_and_json(make_tiny_physical):
    physical = make_tiny_physical()
    wid = physical.routing.clock_wires[0].wire_id
    del physical.extraction.wires[wid]
    report = verify_physical(physical, rules=["rc-wire-sites"])
    assert report.has_errors
    assert "rc-wire-sites" in report.render()
    payload = json.loads(report.to_json())
    assert any(d["rule"] == "rc-wire-sites" for d in payload["diagnostics"])


# -- domain DRC/ERC corruptions ------------------------------------------------


def test_track_overlap_fires_and_respects_overflow_budget(make_tiny_physical):
    physical = make_tiny_physical()
    tracks = physical.routing.tracks
    tracks.overflows = 0
    clean = verify_physical(physical, rules=["track-overlap"])
    assert not clean.diagnostics, "expected no pre-existing overlaps"

    wire = physical.routing.clock_wires[0]
    dup_id = max(w.wire_id for w in tracks.iter_wires()) + 1
    tracks.register(RoutedWire(
        wire_id=dup_id, net_name=wire.net_name, kind=wire.kind,
        segment=wire.segment, layer=wire.layer, track=wire.track,
        rule=wire.rule))
    report = verify_physical(physical, rules=["track-overlap"])
    assert _errors(report, "track-overlap")

    # The same overlap inside the recorded overflow budget is only WARN.
    tracks.overflows = 1
    report = verify_physical(physical, rules=["track-overlap"])
    assert not _errors(report, "track-overlap")
    assert _warnings(report, "track-overlap")


def test_blockage_overlap_fires(make_tiny_physical):
    physical = make_tiny_physical()
    tracks = physical.routing.tracks
    wire = next(w for w in physical.routing.clock_wires
                if w.segment.hi > w.segment.lo)
    tracks.block(wire.layer, wire.track, wire.segment.lo, wire.segment.hi)
    report = verify_physical(physical, rules=["blockage-overlap"])
    errs = _errors(report, "blockage-overlap")
    assert errs and errs[0].wire_id == wire.wire_id


def test_shield_continuity_fires(make_tiny_physical):
    physical = make_tiny_physical()
    tracks = physical.routing.tracks
    wire = next(w for w in physical.routing.clock_wires
                if w.segment.hi > w.segment.lo)

    # A foreign wire parked on the shield track breaks continuity: WARN.
    wire.shielded = True
    dup_id = max(w.wire_id for w in tracks.iter_wires()) + 1
    tracks.register(RoutedWire(
        wire_id=dup_id, net_name="aggressor", kind=wire.kind,
        segment=wire.segment, layer=wire.layer, track=wire.track + 1,
        rule=wire.rule))
    report = verify_physical(physical, rules=["shield-continuity"])
    assert any(d.wire_id == wire.wire_id
               for d in _warnings(report, "shield-continuity"))

    # A shield with no track to live on is structural: ERROR.
    wire.track = 0
    report = verify_physical(physical, rules=["shield-continuity"])
    assert _errors(report, "shield-continuity")


def test_ndr_spacing_warns_on_broken_guarantee(make_tiny_physical):
    physical = make_tiny_physical()
    for wire in physical.routing.clock_wires:
        physical.routing.assign_rule(wire.wire_id, W4S2)
    report = verify_physical(physical, rules=["ndr-spacing"])
    assert not _errors(report, "ndr-spacing"), "spacing gaps are WARN-only"
    assert _warnings(report, "ndr-spacing")


def test_rc_topology_fires_on_forward_parent(make_tiny_physical):
    physical = make_tiny_physical()
    stage = next(s for s in physical.extraction.network.stages
                 if len(s.nodes) >= 2)
    stage.nodes[1].parent = 1  # parents must strictly precede children
    report = verify_physical(physical, rules=["rc-topology"])
    assert _errors(report, "rc-topology")


def test_rc_values_fires_on_negative_resistance(make_tiny_physical):
    physical = make_tiny_physical()
    node = next(n for s in physical.extraction.network.stages
                for n in s.nodes if n.wire_id is not None)
    node.r = -abs(node.r) - 1.0
    report = verify_physical(physical, rules=["rc-values"])
    errs = _errors(report, "rc-values")
    assert errs and "negative resistance" in errs[0].message


def test_rc_wire_sites_fires_on_missing_parasitics(make_tiny_physical):
    physical = make_tiny_physical()
    wid = physical.routing.clock_wires[0].wire_id
    del physical.extraction.wires[wid]
    report = verify_physical(physical, rules=["rc-wire-sites"])
    assert any(d.wire_id == wid for d in _errors(report, "rc-wire-sites"))


def test_em_width_fires_on_subminimum_width(make_tiny_physical):
    physical = make_tiny_physical()
    wire = physical.routing.clock_wires[0]
    # The rule lattice cannot produce width_mult < 1; forge a corrupt
    # rule object bypassing validation, as a real corruption would.
    bad = object.__new__(RoutingRule)
    object.__setattr__(bad, "name", RuleName.W1S1)
    object.__setattr__(bad, "width_mult", 0.5)
    object.__setattr__(bad, "space_mult", 1.0)
    wire.rule = bad
    report = verify_physical(physical, rules=["em-width"])
    assert any(d.wire_id == wire.wire_id
               for d in _errors(report, "em-width"))


def test_delay_sanity_fires(make_tiny_physical, tech):
    physical = make_tiny_physical()
    network = physical.extraction.network
    stage_idx, stage = next(
        (i, s) for i, s in enumerate(network.stages) if s.sinks)
    stage.nodes[stage.sinks[0].node_idx].cap_fixed = -1.0e6
    report = verify_physical(physical, rules=["delay-sanity"])
    assert any(d.stage == stage_idx for d in _errors(report, "delay-sanity"))

    # Period-relative limit: a sub-ps "period" makes every delay WARN.
    fresh = physical.extraction
    ctx = VerifyContext(tech=tech, tree=physical.tree,
                        routing=physical.routing, extraction=fresh,
                        clock_period=1.0e-6)
    stage.nodes[stage.sinks[0].node_idx].cap_fixed = 0.0
    report = run_checks(ctx, rules=["delay-sanity"])
    assert _warnings(report, "delay-sanity")


def test_coupling_sanity_fires_on_total_mismatch(make_tiny_physical):
    physical = make_tiny_physical()
    wid = physical.routing.clock_wires[0].wire_id
    physical.extraction.wires[wid].cc_signal += 1.0
    report = verify_physical(physical, rules=["coupling-sanity"])
    assert any(d.wire_id == wid
               for d in _errors(report, "coupling-sanity"))


# -- engine-coherence oracle corruptions --------------------------------------


def test_cap_totals_fires_on_stale_cache(make_tiny_physical):
    physical = make_tiny_physical()
    extraction = physical.extraction
    _ = extraction.clock_wire_cap  # populate the cached total
    extraction._wire_cap_total += 1.0
    report = verify_physical(physical, rules=["cap-totals"])
    assert _errors(report, "cap-totals")


def test_network_rc_sync_fires_on_skipped_patch(make_tiny_physical):
    physical = make_tiny_physical()
    extraction = physical.extraction
    wid = physical.routing.clock_wires[0].wire_id
    para = extraction.wires[wid]
    # Store moved parasitics without patching the network: the classic
    # skipped patch_wire.
    extraction.set_wire(wid, dataclasses.replace(para, r=para.r * 2.0 + 0.1))
    report = verify_physical(physical, rules=["network-rc-sync"])
    assert any(d.wire_id == wid
               for d in _errors(report, "network-rc-sync"))


def test_extraction_fresh_fires_on_skipped_dirty_bit(make_tiny_physical):
    physical = make_tiny_physical()
    wire = next(w for w in physical.routing.clock_wires
                if w.rule.is_default and w.segment.hi > w.segment.lo)
    # Assign a rule straight on the routing, bypassing re-extraction.
    physical.routing.assign_rule(wire.wire_id, W2S2)
    report = verify_physical(physical, rules=["extraction-fresh"])
    assert any(d.wire_id == wire.wire_id
               for d in _errors(report, "extraction-fresh"))


def test_neighbor_index_sync_fires_on_stale_record(make_tiny_physical):
    physical = make_tiny_physical()
    extraction = physical.extraction
    tracks = physical.routing.tracks
    wires = physical.routing.clock_wires
    wire = next(w for w in wires if tracks.neighbors_of(w))
    extraction.record_neighbors(wire.wire_id, [])
    report = verify_physical(physical, rules=["neighbor-index-sync"])
    assert any(d.wire_id == wire.wire_id
               for d in _errors(report, "neighbor-index-sync"))


def test_kernel_sync_fires_on_stale_array(engine_ctx):
    # stage_view float arrays alias live kernel storage, so this
    # mutation corrupts the real compiled state
    kernel_stage = engine_ctx.engine.kernel.stage_view(0)
    kernel_stage.cap_fixed[0] += 1.0
    report = run_checks(engine_ctx, rules=["kernel-sync"])
    errs = _errors(report, "kernel-sync")
    assert errs and "cap_fixed" in errs[0].message


def test_frozen_mc_sync_fires_on_skipped_refresh(engine_ctx):
    frozen = engine_ctx.engine.frozen
    wid = engine_ctx.routing.clock_wires[0].wire_id
    frozen.area_scale[wid] = frozen.area_scale[wid] * 1.25
    report = run_checks(engine_ctx, rules=["frozen-mc-sync"])
    assert any(d.wire_id == wid
               for d in _errors(report, "frozen-mc-sync"))


def test_sens_cache_sync_fires_on_poisoned_entry(make_tiny_physical, tech):
    physical = make_tiny_physical()
    cache = SensitivityCache(physical.routing, tech.rules)
    wid = physical.routing.clock_wires[0].wire_id
    para = cache.parasitics(wid, W2S2, False)
    key = (wid, W2S2.name.value, False, cache.occupancy(wid))
    cache._cache[key] = dataclasses.replace(para, r=para.r * 3.0 + 1.0)
    ctx = VerifyContext(tech=tech, tree=physical.tree,
                        routing=physical.routing,
                        extraction=physical.extraction, sens_cache=cache)
    report = run_checks(ctx, rules=["sens-cache-sync"])
    assert any(d.wire_id == wid
               for d in _errors(report, "sens-cache-sync"))


# -- integration hooks ---------------------------------------------------------


def test_optimizer_verify_every_runs_clean(make_tiny_physical, tech):
    physical = make_tiny_physical()
    design = physical.design
    targets = RobustnessTargets.for_period(design.clock_period,
                                           tech.max_slew)
    opt = SmartNdrOptimizer(physical.tree, physical.routing, tech,
                            targets, design.clock_freq, verify_every=1)
    # The oracle runs every iteration; must not raise.
    result = opt.run(physical.extraction)
    assert result.engine is not None


def test_assert_flow_clean_raises_on_corruption(tiny_flow):
    extraction = tiny_flow.physical.extraction
    _ = extraction.clock_wire_cap
    extraction._wire_cap_total += 1.0
    with pytest.raises(VerificationError, match="cap-totals"):
        assert_flow_clean(tiny_flow, "corrupted tiny flow")


def test_severity_ordering():
    assert Severity.INFO < Severity.WARN < Severity.ERROR
    assert str(Severity.ERROR) == "ERROR"


def test_cli_lint_list_checks(capsys):
    from repro.cli import main

    assert main(["lint", "--list-checks"]) == 0
    out = capsys.readouterr().out
    assert "track-overlap" in out and "kernel-sync" in out


def test_cli_lint_requires_design(capsys):
    from repro.cli import main

    assert main(["lint"]) == 2
