"""Multi-corner timing."""

import pytest

from repro.tech.corners import DEFAULT_CORNERS, FF, SS, TT, ProcessCorner
from repro.timing.arrival import analyze_clock_timing
from repro.timing.corners import analyze_corners, corner_timing


@pytest.fixture(scope="module")
def report(small_physical, tech):
    return analyze_corners(small_physical.extraction.network, tech)


def test_corner_validation():
    with pytest.raises(ValueError):
        ProcessCorner("bad", wire_r=10.0)


def test_tt_matches_nominal(small_physical, tech):
    nominal = analyze_clock_timing(small_physical.extraction.network, tech)
    tt = corner_timing(small_physical.extraction.network, tech, TT)
    assert tt.latency == pytest.approx(nominal.latency, rel=1e-9)
    assert tt.skew == pytest.approx(nominal.skew, abs=1e-9)
    for a, b in zip(tt.sinks, nominal.sinks):
        assert a.arrival == pytest.approx(b.arrival, rel=1e-9)


def test_corner_ordering(report):
    """SS slower than TT slower than FF, per sink."""
    ss = {s.pin.full_name: s.arrival for s in report.timings["SS"].sinks}
    tt = {s.pin.full_name: s.arrival for s in report.timings["TT"].sinks}
    ff = {s.pin.full_name: s.arrival for s in report.timings["FF"].sinks}
    for name in tt:
        assert ff[name] < tt[name] < ss[name]


def test_latency_range(report):
    lo, hi = report.latency_range()
    assert lo == report.timings["FF"].latency
    assert hi == report.timings["SS"].latency
    assert hi / lo > 1.2  # corners are meaningfully apart


def test_skew_scales_with_corner_but_stays_balanced(report):
    """A balanced tree stays balanced at a shifted corner: skew grows at
    most ~proportionally to latency."""
    for name, timing in report.timings.items():
        assert timing.skew < 0.05 * timing.latency, name


def test_worst_metrics(report):
    assert report.worst_skew == max(t.skew for t in report.timings.values())
    assert report.worst_slew == report.timings["SS"].worst_slew


def test_slew_within_limit_across_corners(report, tech):
    """The default flow leaves enough slew headroom for the slow corner."""
    assert report.worst_slew <= tech.max_slew
    assert report.slew_violations() == 0


def test_empty_corner_set_rejected(small_physical, tech):
    with pytest.raises(ValueError):
        analyze_corners(small_physical.extraction.network, tech, corners=())


def test_default_corner_set():
    assert [c.name for c in DEFAULT_CORNERS] == ["SS", "TT", "FF"]
