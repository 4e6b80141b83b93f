"""Figure 12 — Timing-window pruning of expected crosstalk.

Runs the window-aware expected-delta analysis on a windowed variant of
ckt256 and compares against the constant-alignment estimate.  Expected
shape: worst-case identical; the window-pruned expected exposure is a
small fraction of the constant-alignment one (most aggressor
transitions miss the clock edge's sensitivity window), and narrows as
the sensitivity width shrinks.
"""

from __future__ import annotations

import dataclasses

from conftest import emit
from repro.designs import generate_design, spec_by_name
from repro.core.flow import build_physical_design
from repro.reporting import ExperimentRecord
from repro.timing.crosstalk import analyze_crosstalk, analyze_crosstalk_windows

SENSITIVITIES = (10.0, 30.0, 60.0, 120.0, 240.0)


def _run(tech) -> ExperimentRecord:
    spec = dataclasses.replace(spec_by_name("ckt256"), name="ckt256w",
                               aggressor_windows=True)
    design = generate_design(spec)
    phys = build_physical_design(design, tech)
    ext = phys.extraction
    timing = phys.refine.timing

    record = ExperimentRecord(
        "fig12", "timing-window pruning of expected crosstalk (ckt256w)",
        "sensitivity window (ps)", "mean expected delta (ps)")
    plain = analyze_crosstalk(ext.network, ext.wires, alignment=0.5)
    n = len(plain.sinks)
    record.series_named("constant_alignment_0.5").add(
        0, sum(s.expected for s in plain.sinks) / n)
    series = record.series_named("window_pruned")
    for width in SENSITIVITIES:
        pruned = analyze_crosstalk_windows(ext.network, ext.wires, timing,
                                           design.clock_period,
                                           sensitivity=width)
        series.add(width, sum(s.expected for s in pruned.sinks) / n)
    record.series_named("worst_mean").add(
        0, sum(s.worst for s in plain.sinks) / n)
    return record


def test_fig12_window_pruning(benchmark, capsys, tech):
    record = benchmark.pedantic(_run, args=(tech,), rounds=1, iterations=1)
    emit(capsys, record.render())
    pruned = record.series["window_pruned"]
    constant = record.series["constant_alignment_0.5"].ys[0]
    # Monotone in the sensitivity width, and far below the constant
    # estimate at realistic widths.
    assert pruned.ys == sorted(pruned.ys)
    assert pruned.ys[0] < 0.2 * constant
