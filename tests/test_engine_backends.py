"""The batched engine against the reference analyzers, and under churn.

Three layers of checks, from the primitives up:

* the treeops sweeps equal the plain loops they replace, bit for bit;
* over every registered corpus design of at most 1,024 sinks, the
  engine's full analysis bundle equals the from-scratch reference
  analyzers (``analyze_all`` without an engine) within 1e-9;
* under random patch/retrim churn, the incrementally updated engine
  equals a fresh engine compiled over the same extraction, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import analyze_all
from repro.core.flow import build_physical_design
from repro.core.targets import RobustnessTargets
from repro.cts.refine import refine_skew
from repro.designs import DesignSpec, generate_design, iter_specs
from repro.engine import AnalysisEngine
from repro.engine.treeops import (accumulate_downstream,
                                  accumulate_downstream_loop,
                                  accumulate_prefix, build_levels)
from repro.extract.extractor import extract

ATOL = 1e-9

#: Designs whose build fails with "no blockage-avoiding route"; strict,
#: so the marks must go when the routing defect is fixed.
UNROUTABLE = {"soc_h256m", "imp_noc"}

CORPUS = [
    pytest.param(spec, id=spec.name, marks=pytest.mark.xfail(
        raises=RuntimeError, strict=True,
        reason="known routing defect: no blockage-avoiding route"))
    if spec.name in UNROUTABLE else pytest.param(spec, id=spec.name)
    for spec in iter_specs() if spec.n_sinks <= 1024]

# Same shape as the conftest tiny fixture, but churn mutates its builds,
# so every hypothesis example gets fresh ones.
CHURN_SPEC = DesignSpec("tiny", n_sinks=24, die_edge=160.0,
                        aggressors_per_sink=2.0, seed=5)


# -- treeops micro-asserts (vectorised sweeps vs the legacy loops) ------------


def _random_forest(rng, n):
    """Random topological-order parent array, ~15% extra roots."""
    parent = np.full(n, -1, dtype=np.int64)
    for i in range(1, n):
        if rng.random() > 0.15:
            parent[i] = int(rng.integers(0, i))
    return parent


def test_downstream_sweep_is_bit_identical_to_loop():
    rng = np.random.default_rng(1234)
    for n in (1, 2, 7, 33, 200):
        for _ in range(5):
            parent = _random_forest(rng, n)
            values = rng.standard_normal(n) \
                * 10.0 ** rng.integers(-6, 7, n)
            fast = accumulate_downstream(values.copy(), parent,
                                         build_levels(parent))
            ref = accumulate_downstream_loop(values.copy(), parent)
            assert np.array_equal(fast, ref)


def test_downstream_sweep_is_bit_identical_to_loop_2d():
    # The Monte-Carlo sample axis rides along unchanged.
    rng = np.random.default_rng(99)
    parent = _random_forest(rng, 64)
    values = rng.standard_normal((64, 8)) * 10.0 ** rng.integers(-4, 5, (64, 8))
    fast = accumulate_downstream(values.copy(), parent,
                                 build_levels(parent))
    ref = accumulate_downstream_loop(values.copy(), parent)
    assert np.array_equal(fast, ref)


def test_prefix_sweep_is_bit_identical_to_loop():
    rng = np.random.default_rng(7)
    for n in (1, 13, 120):
        parent = _random_forest(rng, n)
        values = rng.standard_normal(n)
        fast = accumulate_prefix(values.copy(), parent,
                                 build_levels(parent))
        ref = values.copy()
        for i in range(n):
            if parent[i] >= 0:
                ref[i] += ref[parent[i]]
        assert np.array_equal(fast, ref)


def test_concatenated_forest_equals_per_tree_sweeps():
    # The whole-design arena processes all stage trees at once; each
    # parent only ever receives additions from its own children, so the
    # concatenated sweep must equal the per-tree sweeps bit for bit.
    rng = np.random.default_rng(42)
    sizes = [5, 11, 1, 30]
    parents, values, offsets = [], [], []
    base = 0
    for n in sizes:
        p = np.full(n, -1, dtype=np.int64)
        for i in range(1, n):
            p[i] = int(rng.integers(0, i))
        parents.append(p)
        values.append(rng.standard_normal(n))
        offsets.append(base)
        base += n
    concat_parent = np.concatenate(
        [np.where(p >= 0, p + off, -1)
         for p, off in zip(parents, offsets)])
    concat_values = np.concatenate(values)
    accumulate_downstream(concat_values, concat_parent,
                          build_levels(concat_parent))
    for p, v, off in zip(parents, values, offsets):
        per_tree = accumulate_downstream(v.copy(), p, build_levels(p))
        assert np.array_equal(concat_values[off:off + len(v)], per_tree)


def test_build_levels_rejects_non_topological_order():
    with pytest.raises(ValueError, match="topological"):
        build_levels(np.array([-1, 2, 0], dtype=np.int64))


# -- engine vs the reference analyzers over the corpus ------------------------


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=0.0, atol=ATOL)


@pytest.mark.parametrize("spec", CORPUS)
def test_engine_matches_reference_over_corpus(spec, tech):
    physical = build_physical_design(generate_design(spec), tech)
    extraction = physical.extraction
    freq = physical.design.clock_freq
    targets = RobustnessTargets.for_period(physical.design.clock_period,
                                           tech.max_slew)
    ref = analyze_all(extraction, tech, freq, targets)
    engine = AnalysisEngine(extraction, physical.tree, tech, freq, targets)
    got = analyze_all(extraction, tech, freq, targets, engine=engine)

    assert [s.pin.full_name for s in got.timing.sinks] \
        == [s.pin.full_name for s in ref.timing.sinks]
    _close([s.arrival for s in got.timing.sinks],
           [s.arrival for s in ref.timing.sinks])
    _close([s.slew for s in got.timing.sinks],
           [s.slew for s in ref.timing.sinks])
    _close(got.timing.stage_loads, ref.timing.stage_loads)
    _close(got.timing.stage_delays, ref.timing.stage_delays)

    _close([s.worst for s in got.crosstalk.sinks],
           [s.worst for s in ref.crosstalk.sinks])
    _close([s.expected for s in got.crosstalk.sinks],
           [s.expected for s in ref.crosstalk.sinks])

    assert [w.wire_id for w in got.em.wires] \
        == [w.wire_id for w in ref.em.wires]
    _close([w.i_eff for w in got.em.wires], [w.i_eff for w in ref.em.wires])
    _close([w.utilization for w in got.em.wires],
           [w.utilization for w in ref.em.wires])

    assert got.power.p_total == ref.power.p_total
    assert got.mc.sink_names == ref.mc.sink_names
    _close(got.mc.arrivals, ref.mc.arrivals)
    _close(got.mc.skew_samples, ref.mc.skew_samples)


# -- random churn keeps the engine equal to a fresh compile -------------------


def _assert_timing_identical(a, b):
    assert [s.pin.full_name for s in a.sinks] \
        == [s.pin.full_name for s in b.sinks]
    assert [s.arrival for s in a.sinks] == [s.arrival for s in b.sinks]
    assert [s.slew for s in a.sinks] == [s.slew for s in b.sinks]
    assert a.stage_loads == b.stage_loads
    assert a.stage_delays == b.stage_delays


def _assert_bundles_bit_identical(a, b):
    _assert_timing_identical(a.timing, b.timing)
    assert [s.worst for s in a.crosstalk.sinks] \
        == [s.worst for s in b.crosstalk.sinks]
    assert [s.expected for s in a.crosstalk.sinks] \
        == [s.expected for s in b.crosstalk.sinks]
    assert [w.utilization for w in a.em.wires] \
        == [w.utilization for w in b.em.wires]
    assert a.power.p_total == b.power.p_total
    assert np.array_equal(a.mc.arrivals, b.mc.arrivals)


def _assert_invalidated(engine):
    """Runtime twin of the static I001/I003 checks.

    After any mutation — before any analysis read — the engine-level
    derived caches must be dropped, and the kernel must be either
    marked stale or have dropped its derived-array caches.
    """
    assert engine._timing is None and engine._xtalk is None
    assert engine._power is None and engine._mc is None
    kernel = engine.kernel
    assert kernel._stale \
        or (kernel._down is None and kernel._xtalk is None)


def _assert_recomputed(engine):
    """After ``analyze()`` the caches are live again (the barrier ran)."""
    assert engine._timing is not None and engine._xtalk is not None
    assert not engine.kernel._stale


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_random_churn_matches_a_fresh_engine(data):
    """Random patch/retrim sequences leave the engine equal to a recompile.

    One engine receives a mutation stream (rule upgrades, shield
    toggles, skew re-trims); after every churn its full bundle must be
    bitwise identical to a fresh :class:`AnalysisEngine` compiled over
    the same, incrementally patched extraction.
    """
    from repro.tech import default_technology

    tech = default_technology()
    rules = sorted(tech.rules, key=lambda r: r.name.value)
    phys = build_physical_design(generate_design(CHURN_SPEC), tech)
    freq = phys.design.clock_freq
    targets = RobustnessTargets.for_period(phys.design.clock_period,
                                           tech.max_slew)
    engine = AnalysisEngine(extract(phys.tree, phys.routing), phys.tree,
                            tech, freq, targets)
    engine.analyze()  # prime every cache before the churn
    wire_ids = sorted(w.wire_id for w in phys.routing.clock_wires)

    # Any tree node that owns a stage works for the no-op retrim probe.
    trim_node = min(engine.extraction.network.stage_of_tree_node)

    n_ops = data.draw(st.integers(min_value=1, max_value=5))
    for _ in range(n_ops):
        op = data.draw(st.sampled_from(["rule", "shield", "trim"]))
        if op == "trim":
            refine_skew(phys.tree, phys.routing, tech, engine=engine)
            # refine_skew re-reads timing internally, so the
            # invalidation oracle needs its own mutation: a no-op
            # retrim of one stage (current trim values) must still
            # mark the arena stale before any analysis read.
            engine.rebuild_stages([trim_node])
        else:
            wid = wire_ids[data.draw(
                st.integers(min_value=0, max_value=len(wire_ids) - 1))]
            rule = rules[data.draw(
                st.integers(min_value=0, max_value=len(rules) - 1))]
            if op == "rule":
                phys.routing.assign_rule(wid, rule)
            else:
                phys.routing.assign_shield(wid, True)
            engine.apply_rule_changes([wid])
        _assert_invalidated(engine)
        churned = engine.analyze()
        _assert_recomputed(engine)
        fresh = AnalysisEngine(engine.extraction, phys.tree, tech, freq,
                               targets).analyze()
        _assert_bundles_bit_identical(churned, fresh)
