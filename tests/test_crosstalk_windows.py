"""Timing-window-pruned crosstalk analysis."""

import pytest

from repro.designs import DesignSpec, generate_design
from repro.core.flow import build_physical_design
from repro.timing.arrival import analyze_clock_timing
from repro.timing.crosstalk import (analyze_crosstalk,
                                    analyze_crosstalk_windows,
                                    window_alignment)


WINDOWED_SPEC = DesignSpec("windowed", n_sinks=48, die_edge=280.0,
                           aggressors_per_sink=3.0, seed=17,
                           aggressor_windows=True)


def test_window_alignment_math():
    # Victim window fully inside the aggressor's: overlap / agg width.
    p = window_alignment((100.0, 140.0), (0.0, 400.0), 1000.0, 0.5)
    assert p == pytest.approx(0.5 * 40.0 / 400.0)
    # Disjoint windows: zero.
    assert window_alignment((100.0, 140.0), (500.0, 900.0), 1000.0, 0.5) == 0.0
    # No aggressor window: uniform over the cycle.
    p = window_alignment((100.0, 140.0), None, 1000.0, 1.0)
    assert p == pytest.approx(40.0 / 1000.0)
    # Degenerate aggressor window.
    assert window_alignment((0.0, 1.0), (5.0, 5.0), 1000.0, 1.0) == 0.0


def test_generator_assigns_windows():
    design = generate_design(WINDOWED_SPEC)
    for net in design.signal_nets:
        assert net.window is not None
        start, end = net.window
        assert 0.0 <= start < end <= design.clock_period


def test_windows_reach_coupling_entries(tech):
    design = generate_design(WINDOWED_SPEC)
    phys = build_physical_design(design, tech)
    windowed_entries = 0
    for para in phys.extraction.wires.values():
        for entry in para.couplings:
            assert entry.window is not None
            windowed_entries += 1
    assert windowed_entries > 0


@pytest.fixture(scope="module")
def analyses(tech):
    design = generate_design(WINDOWED_SPEC)
    phys = build_physical_design(design, tech)
    ext = phys.extraction
    timing = analyze_clock_timing(ext.network, tech)
    plain = analyze_crosstalk(ext.network, ext.wires, alignment=0.5)
    pruned = analyze_crosstalk_windows(ext.network, ext.wires, timing,
                                       design.clock_period)
    return plain, pruned


def test_worst_case_identical(analyses):
    plain, pruned = analyses
    a = {s.pin.full_name: s.worst for s in plain.sinks}
    b = {s.pin.full_name: s.worst for s in pruned.sinks}
    for pin in a:
        assert b[pin] == pytest.approx(a[pin], rel=1e-9)


def test_pruning_reduces_expected(analyses):
    """The point of timing windows: most aggressor transitions miss the
    clock edge, so the expected exposure collapses."""
    plain, pruned = analyses
    total_plain = sum(s.expected for s in plain.sinks)
    total_pruned = sum(s.expected for s in pruned.sinks)
    assert total_pruned < 0.3 * total_plain


def test_expected_below_worst(analyses):
    _plain, pruned = analyses
    for sink in pruned.sinks:
        assert 0.0 <= sink.expected <= sink.worst + 1e-12


def test_wider_sensitivity_more_exposure(tech):
    design = generate_design(WINDOWED_SPEC)
    phys = build_physical_design(design, tech)
    ext = phys.extraction
    timing = analyze_clock_timing(ext.network, tech)
    narrow = analyze_crosstalk_windows(ext.network, ext.wires, timing,
                                       design.clock_period, sensitivity=10.0)
    wide = analyze_crosstalk_windows(ext.network, ext.wires, timing,
                                     design.clock_period, sensitivity=200.0)
    assert sum(s.expected for s in wide.sinks) > \
        sum(s.expected for s in narrow.sinks)


def test_period_validation(tech):
    design = generate_design(WINDOWED_SPEC)
    phys = build_physical_design(design, tech)
    timing = analyze_clock_timing(phys.extraction.network, tech)
    with pytest.raises(ValueError):
        analyze_crosstalk_windows(phys.extraction.network,
                                  phys.extraction.wires, timing, 0.0)


def test_bad_window_rejected():
    from repro.netlist.net import Net, NetKind

    with pytest.raises(ValueError):
        Net("n", NetKind.SIGNAL, window=(5.0, 5.0))
    with pytest.raises(ValueError):
        Net("n", NetKind.SIGNAL, window=(-1.0, 5.0))