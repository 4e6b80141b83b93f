"""Monte-Carlo variation engine."""

import dataclasses

import numpy as np
import pytest

from repro.extract import extract
from repro.tech import default_technology, rule_by_name
from repro.tech.variation import VariationModel
from repro.timing.arrival import analyze_clock_timing
from repro.timing.montecarlo import run_monte_carlo


def _mc(phys, tech, n=100, seed=7):
    ext = phys.extraction
    return run_monte_carlo(ext.network, ext.wires, phys.routing, tech,
                           n_samples=n, seed=seed)


def test_shapes_and_stats(small_physical, tech):
    mc = _mc(small_physical, tech, n=80)
    assert mc.n_samples == 80
    assert mc.arrivals.shape == (len(small_physical.tree.sinks()), 80)
    assert mc.skew_samples.shape == (80,)
    assert mc.mean_skew > 0.0
    assert mc.skew_3sigma >= mc.mean_skew


def test_seed_determinism(small_physical, tech):
    a = _mc(small_physical, tech, seed=3)
    b = _mc(small_physical, tech, seed=3)
    c = _mc(small_physical, tech, seed=4)
    assert np.array_equal(a.skew_samples, b.skew_samples)
    assert not np.array_equal(a.skew_samples, c.skew_samples)


def test_zero_variation_reproduces_static_timing(small_physical, tech):
    """With all sigmas at zero, every sample equals the nominal analysis."""
    zero = dataclasses.replace(
        tech, variation=VariationModel(width_sigma=0.0,
                                       width_rand_sigma=0.0,
                                       thickness_sigma=0.0,
                                       buffer_d2d_sigma=0.0,
                                       buffer_rand_sigma=0.0))
    mc = _mc(small_physical, zero, n=5)
    timing = analyze_clock_timing(small_physical.extraction.network, tech)
    assert np.ptp(mc.skew_samples) == pytest.approx(0.0, abs=1e-9)
    assert mc.mean_skew == pytest.approx(timing.skew, rel=1e-9, abs=1e-9)
    assert mc.mean_latency == pytest.approx(timing.latency, rel=1e-9)


def test_sample_count_validation(small_physical, tech):
    ext = small_physical.extraction
    with pytest.raises(ValueError):
        run_monte_carlo(ext.network, ext.wires, small_physical.routing,
                        tech, n_samples=1)


def test_arrival_sigma_positive(small_physical, tech):
    mc = _mc(small_physical, tech)
    sigma = mc.arrival_sigma()
    assert sigma.shape == (len(mc.sink_names),)
    assert (sigma > 0.0).all()


def _wide_vs_base_3sigma(make_physical, variation):
    """(base, all-W2S1) 3-sigma skew under a given variation model."""
    tech = dataclasses.replace(default_technology(), variation=variation)
    phys = make_physical()
    base = _mc(phys, tech, n=150, seed=2)
    for wire in phys.routing.clock_wires:
        phys.routing.assign_rule(wire.wire_id, rule_by_name("W2S1"))
    from repro.cts.refine import refine_skew
    refined = refine_skew(phys.tree, phys.routing, tech)
    wide = run_monte_carlo(refined.extraction.network,
                           refined.extraction.wires, phys.routing,
                           tech, n_samples=150, seed=2)
    return base.skew_3sigma, wide.skew_3sigma


def test_width_ndr_cuts_random_width_noise(make_small_physical):
    """The paper's variation mechanism: random per-wire width noise is
    differential between branches; 2x width halves its relative size
    and the skew spread shrinks."""
    base, wide = _wide_vs_base_3sigma(
        make_small_physical,
        VariationModel(width_sigma=0.0, width_rand_sigma=0.08,
                       thickness_sigma=0.0, buffer_d2d_sigma=0.0,
                       buffer_rand_sigma=0.0))
    assert wide < base


def test_width_ndr_cuts_per_sink_sigma(make_small_physical, tech):
    """Per-sink arrival sigma (latency uncertainty) drops sharply under
    width NDR when width noise dominates."""
    import dataclasses as dc

    var = VariationModel(width_sigma=0.10, width_rand_sigma=0.0,
                         thickness_sigma=0.0, buffer_d2d_sigma=0.0,
                         buffer_rand_sigma=0.0)
    wtech = dc.replace(tech, variation=var)
    phys = make_small_physical()
    base = _mc(phys, wtech, n=150, seed=2)
    for wire in phys.routing.clock_wires:
        phys.routing.assign_rule(wire.wire_id, rule_by_name("W2S1"))
    from repro.cts.refine import refine_skew
    refined = refine_skew(phys.tree, phys.routing, wtech)
    wide = run_monte_carlo(refined.extraction.network,
                           refined.extraction.wires, phys.routing,
                           wtech, n_samples=150, seed=2)
    assert wide.arrival_sigma().mean() < 0.5 * base.arrival_sigma().mean()


def test_buffer_noise_is_a_floor(make_small_physical):
    """Buffer random noise is the spread NDR cannot touch: widening all
    wires leaves the buffer-driven skew distribution in place."""
    base, wide = _wide_vs_base_3sigma(
        make_small_physical,
        VariationModel(width_sigma=0.0, width_rand_sigma=0.0,
                       thickness_sigma=0.0, buffer_d2d_sigma=0.0,
                       buffer_rand_sigma=0.02))
    assert wide > 0.7 * base
