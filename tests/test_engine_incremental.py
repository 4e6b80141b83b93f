"""Equivalence of the incremental analysis engine with the legacy stack.

The engine is only allowed to be *fast*: every kernel analysis must
reproduce its legacy counterpart on the same extraction, and a sequence
of incremental updates (rule changes, shield changes, trims) must land
on the same numbers as a from-scratch rebuild.  Tolerances are 1e-9 —
the kernels mirror the legacy accumulation order, so observed
differences are at the few-ulp level.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.designs import generate_design
from repro.core.evaluation import analyze_all
from repro.core.flow import build_physical_design
from repro.core.optimizer import SmartNdrOptimizer
from repro.core.sensitivity import (SensitivityCache, _what_if_parasitics,
                                    rule_sensitivities)
from repro.core.targets import RobustnessTargets
from repro.cts.refine import refine_skew
from repro.engine import AnalysisEngine, BatchedNetworkKernel, FrozenVariation
from repro.extract.extractor import extract, incremental_re_extract
from repro.reliability.em import DEFAULT_EM_FACTOR, analyze_em
from repro.timing.arrival import analyze_clock_timing
from repro.timing.crosstalk import analyze_crosstalk
from repro.timing.montecarlo import run_monte_carlo

ATOL = 1e-9


@pytest.fixture(params=["tiny_spec", "small_spec"])
def physical(request, tech):
    """A fresh mutable physical build per test, both design sizes."""
    spec = request.getfixturevalue(request.param)
    return build_physical_design(generate_design(spec), tech)


def _kernel(extraction):
    return BatchedNetworkKernel(extraction.network, extraction.routing,
                                extraction.wires)


def _targets(physical, tech):
    return RobustnessTargets.for_period(physical.design.clock_period,
                                        tech.max_slew)


def _bundle_metrics(bundle):
    return {
        "latency": bundle.timing.latency,
        "skew": bundle.timing.skew,
        "worst_slew": bundle.timing.worst_slew,
        "worst_delta": bundle.crosstalk.worst_delta,
        "em_worst": bundle.em.worst_utilization,
        "p_total": bundle.power.p_total,
        "skew_3sigma": bundle.mc.skew_3sigma,
        "mc_latency": bundle.mc.mean_latency,
    }


def _assert_bundles_match(a, b):
    for name, va in _bundle_metrics(a).items():
        vb = _bundle_metrics(b)[name]
        assert va == pytest.approx(vb, abs=ATOL), name


def _some_clock_wires(routing, n):
    wires = sorted(routing.clock_wires, key=lambda w: w.wire_id)
    step = max(1, len(wires) // n)
    return [w.wire_id for w in wires[::step][:n]]


# -- kernel analyses vs legacy ------------------------------------------------


def test_kernel_static_timing_matches_legacy(physical, tech):
    extraction = physical.extraction
    kernel = _kernel(extraction)
    legacy = analyze_clock_timing(extraction.network, tech)
    fast = kernel.static_timing(tech)
    assert fast.latency == pytest.approx(legacy.latency, abs=ATOL)
    assert fast.skew == pytest.approx(legacy.skew, abs=ATOL)
    assert [s.pin.full_name for s in fast.sinks] \
        == [s.pin.full_name for s in legacy.sinks]
    for fs, ls in zip(fast.sinks, legacy.sinks):
        assert fs.arrival == pytest.approx(ls.arrival, abs=ATOL)
        assert fs.slew == pytest.approx(ls.slew, abs=ATOL)


def test_kernel_crosstalk_and_em_match_legacy(physical, tech):
    extraction = physical.extraction
    freq = physical.design.clock_freq
    kernel = _kernel(extraction)

    legacy_x = analyze_crosstalk(extraction.network, extraction.wires,
                                 alignment=0.5)
    fast_x = kernel.crosstalk(alignment=0.5)
    assert fast_x.worst_delta == pytest.approx(legacy_x.worst_delta,
                                               abs=ATOL)
    assert fast_x.mean_worst_delta == pytest.approx(legacy_x.mean_worst_delta,
                                                  abs=ATOL)

    legacy_em = analyze_em(extraction.network, extraction.routing,
                           tech.vdd, freq, em_factor=DEFAULT_EM_FACTOR)
    fast_em = kernel.em(tech.vdd, freq, em_factor=DEFAULT_EM_FACTOR)
    assert [w.wire_id for w in fast_em.wires] \
        == [w.wire_id for w in legacy_em.wires]
    assert fast_em.worst_utilization == pytest.approx(
        legacy_em.worst_utilization, abs=ATOL)
    assert fast_em.num_violations == legacy_em.num_violations


def test_kernel_monte_carlo_reproduces_legacy_draws(physical, tech):
    """Same seed -> bitwise-equivalent sampling, arrivals within 1e-9."""
    extraction = physical.extraction
    legacy = run_monte_carlo(extraction.network, extraction.wires,
                             extraction.routing, tech,
                             n_samples=64, seed=11)
    kernel = _kernel(extraction)
    frozen = FrozenVariation(extraction.network, extraction.routing, tech,
                             n_samples=64, seed=11)
    fast = kernel.monte_carlo(frozen)
    assert fast.sink_names == legacy.sink_names
    np.testing.assert_allclose(fast.arrivals, legacy.arrivals,
                               rtol=0.0, atol=ATOL)
    assert fast.skew_3sigma == pytest.approx(legacy.skew_3sigma, abs=ATOL)


# -- incremental extraction ---------------------------------------------------


def test_incremental_re_extract_matches_full(physical, tech):
    routing = physical.routing
    ndr = max(tech.rules, key=lambda r: r.width_mult)
    extraction = extract(physical.tree, routing)

    touched = _some_clock_wires(routing, 5)
    for wire_id in touched[:-1]:
        routing.assign_rule(wire_id, ndr)
    routing.assign_shield(touched[-1], True)

    dirty, _stages = incremental_re_extract(extraction, touched)
    assert set(touched) <= dirty

    fresh = extract(physical.tree, routing)
    assert extraction.wires.keys() == fresh.wires.keys()
    for wire_id, para in fresh.wires.items():
        inc = extraction.wires[wire_id]
        assert inc.r == pytest.approx(para.r, abs=ATOL)
        assert inc.c_total == pytest.approx(para.c_total, abs=ATOL)
        assert inc.cc_signal == pytest.approx(para.cc_signal, abs=ATOL)
    assert extraction.clock_wire_cap == pytest.approx(
        fresh.clock_wire_cap, abs=ATOL)
    assert extraction.clock_coupling_cap == pytest.approx(
        fresh.clock_coupling_cap, abs=ATOL)


def test_engine_incremental_equals_full_analysis(physical, tech):
    """Rule + shield churn through the engine == from-scratch analysis."""
    routing = physical.routing
    freq = physical.design.clock_freq
    targets = _targets(physical, tech)
    ndr = max(tech.rules, key=lambda r: r.width_mult)

    extraction = extract(physical.tree, routing)
    engine = AnalysisEngine(extraction, physical.tree, tech, freq, targets)
    engine.analyze()  # prime every cache before the churn

    touched = _some_clock_wires(routing, 6)
    for wire_id in touched[:3]:
        routing.assign_rule(wire_id, ndr)
    routing.assign_shield(touched[3], True)
    engine.apply_rule_changes(touched[:4])
    engine.analyze()

    # Second round: revert one, upgrade another.
    routing.assign_rule(touched[0], tech.default_rule)
    routing.assign_rule(touched[4], ndr)
    engine.apply_rule_changes([touched[0], touched[4]])
    incremental = engine.analyze()

    fresh = analyze_all(extract(physical.tree, routing), tech, freq,
                        targets)
    _assert_bundles_match(incremental, fresh)


def test_engine_trim_path_equals_full_analysis(physical, tech):
    """refine_skew driving the engine == refine_skew from scratch."""
    freq = physical.design.clock_freq
    targets = _targets(physical, tech)
    ndr = max(tech.rules, key=lambda r: r.width_mult)
    routing = physical.routing

    extraction = extract(physical.tree, routing)
    engine = AnalysisEngine(extraction, physical.tree, tech, freq, targets)
    for wire_id in _some_clock_wires(routing, 3):
        routing.assign_rule(wire_id, ndr)
        engine.apply_rule_changes([wire_id])
    refined = refine_skew(physical.tree, routing, tech, engine=engine)
    incremental = analyze_all(refined.extraction, tech, freq, targets,
                              engine=engine)

    fresh_refine = refine_skew(physical.tree, routing, tech)
    fresh = analyze_all(fresh_refine.extraction, tech, freq, targets)
    assert refined.final_skew == pytest.approx(fresh_refine.final_skew,
                                               abs=ATOL)
    _assert_bundles_match(incremental, fresh)


def test_pickled_engine_keeps_frozen_views_live(make_tiny_physical, tech):
    """A stored-and-loaded engine's frozen views still alias its matrices.

    The per-wire and per-stage factor views must share memory with the
    matrices after a pickle round trip, or a post-load ``refresh_wire``
    updates what the kernel's Monte Carlo reads while the views (and
    the frozen-mc-sync oracle reading them) go stale.
    """
    import pickle

    from repro.verify import VerifyContext, run_checks

    physical = make_tiny_physical()
    freq = physical.design.clock_freq
    targets = _targets(physical, tech)
    extraction = extract(physical.tree, physical.routing)
    engine = AnalysisEngine(extraction, physical.tree, tech, freq, targets)
    engine.analyze()  # prime every cache
    loaded = pickle.loads(pickle.dumps(engine))

    frozen = loaded.frozen
    for views, matrix in ((frozen.z_rand, frozen._z_rand_mat),
                          (frozen.area_scale, frozen._area_mat),
                          (frozen.r_scale, frozen._r_mat)):
        assert set(views) == set(frozen.wire_row)
        for wid, row in frozen.wire_row.items():
            assert np.shares_memory(views[wid], matrix)
            assert np.array_equal(views[wid], matrix[row])
    assert len(frozen.buf_scale) == len(frozen._buf_mat)
    for buf in frozen.buf_scale:
        assert np.shares_memory(buf, frozen._buf_mat)

    # The same rule change on the original and on the loaded engine.
    ndr = max(tech.rules, key=lambda r: r.width_mult)
    wire_ids = _some_clock_wires(physical.routing, 3)
    for live in (engine, loaded):
        for wire_id in wire_ids:
            live.extraction.routing.assign_rule(wire_id, ndr)
        live.apply_rule_changes(wire_ids)
    for wire_id in wire_ids:
        row = frozen.wire_row[wire_id]
        assert np.array_equal(frozen.area_scale[wire_id],
                              frozen.area_matrix()[row])
        assert np.array_equal(frozen.area_scale[wire_id],
                              engine.frozen.area_scale[wire_id])

    mc = loaded.analyze().mc
    assert np.array_equal(mc.skew_samples, engine.analyze().mc.skew_samples)
    fresh = AnalysisEngine(loaded.extraction, loaded.tree, tech, freq,
                           targets).analyze().mc
    assert mc.skew_3sigma == pytest.approx(fresh.skew_3sigma, abs=ATOL)
    np.testing.assert_allclose(mc.skew_samples, fresh.skew_samples,
                               rtol=0.0, atol=ATOL)

    ctx = VerifyContext(tech=tech, tree=loaded.tree,
                        routing=loaded.extraction.routing,
                        extraction=loaded.extraction, engine=loaded)
    report = run_checks(ctx, rules=["frozen-mc-sync"])
    assert not report.diagnostics, report.render()


def test_optimizer_engine_matches_legacy_run(make_small_physical, tech):
    """The engine makes the legacy run's decisions end to end."""
    results = {}
    for use_engine in (False, True):
        phys = make_small_physical()
        targets = _targets(phys, tech)
        opt = SmartNdrOptimizer(phys.tree, phys.routing, tech, targets,
                                phys.design.clock_freq,
                                use_engine=use_engine)
        results[use_engine] = opt.run(phys.extraction)
    legacy, fast = results[False], results[True]
    assert legacy.engine is None
    assert fast.upgraded == legacy.upgraded
    assert fast.downgraded == legacy.downgraded
    assert fast.iterations == legacy.iterations
    assert fast.engine is not None
    _assert_bundles_match(fast.analyses, legacy.analyses)


# -- sensitivity cache --------------------------------------------------------


def test_sensitivity_cache_matches_uncached(small_physical, tech):
    routing = small_physical.routing
    freq = small_physical.design.clock_freq
    cache = SensitivityCache(routing, tech.rules)
    from repro.core.features import wire_contexts

    contexts = wire_contexts(small_physical.tree,
                             small_physical.extraction)
    some = list(contexts)[:8]
    for wire_id in some:
        cached = rule_sensitivities(routing, wire_id, contexts[wire_id],
                                    tech.rules, freq, tech.vdd,
                                    DEFAULT_EM_FACTOR, cache=cache)
        plain = rule_sensitivities(routing, wire_id, contexts[wire_id],
                                   tech.rules, freq, tech.vdd,
                                   DEFAULT_EM_FACTOR)
        assert cached.keys() == plain.keys()
        for name in cached:
            assert cached[name].c_switched == plain[name].c_switched
            assert cached[name].dd_own == plain[name].dd_own
            assert cached[name].em_util == plain[name].em_util


def test_sensitivity_cache_tracks_neighbor_occupancy(make_small_physical,
                                                     tech):
    """Reassigning a clock neighbor's rule must invalidate the entry."""
    phys = make_small_physical()
    routing = phys.routing
    cache = SensitivityCache(routing, tech.rules)
    ndr = max(tech.rules, key=lambda r: r.width_mult)

    # Find a victim with at least one potential clock neighbor.
    victim = neighbor = None
    for wire in sorted(routing.clock_wires, key=lambda w: w.wire_id):
        nbs = cache._potential_neighbors(wire.wire_id)
        if nbs:
            victim, neighbor = wire.wire_id, nbs[0].wire_id
            break
    if victim is None:
        pytest.skip("no coupled clock-wire pair in this design")

    occupancy_before = cache._occupancy(victim)
    cache.parasitics(victim, ndr, False)
    routing.assign_rule(neighbor, ndr)
    # The occupancy fingerprint — the cache key — must reflect the
    # neighbor's new rule, so the stale entry can never be served.
    assert cache._occupancy(victim) != occupancy_before
    after = cache.parasitics(victim, ndr, False)
    expected = _what_if_parasitics(routing, victim, ndr, False)
    assert after.cc_signal == pytest.approx(expected.cc_signal, abs=ATOL)
    assert after.c_total == pytest.approx(expected.c_total, abs=ATOL)
    assert after.r == pytest.approx(expected.r, abs=ATOL)
