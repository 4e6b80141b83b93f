"""Figure 10 — Useful-skew repair on top of the smart implementation.

Fabricates a synthetic setup-slack profile with failing paths on the
smart-NDR implementation, schedules capture-side offsets against the
implementable delay-buffer quantum, builds them, and measures the paths
against real clock arrivals.

Expected shape: every failing path repaired (measured slack >= 0), the
corrected-frame skew back under a few ps, and the implementation cost —
delay buffers plus trim capacitance — well under 1% of clock power.
"""

from __future__ import annotations

import numpy as np

from conftest import emit
from repro.designs import generate_design, spec_by_name
from repro.core import Policy, run_flow
from repro.cts.refine import refine_skew
from repro.cts.usefulskew import (TimingPath, apply_useful_skew,
                                  delay_buffer_quantum, schedule_offsets)
from repro.reporting import ExperimentRecord

DESIGN = "ckt256"
N_FAILING = 8


def _run(matrix) -> ExperimentRecord:
    record = ExperimentRecord(
        "fig10", f"useful-skew repair on {DESIGN} (smart implementation)",
        "path index", "setup slack (ps)")
    # A private physical build: useful-skew insertion mutates the tree,
    # so the shared matrix flows must not be touched.
    flow = run_flow(generate_design(spec_by_name(DESIGN)), matrix.tech,
                    policy=Policy.SMART,
                    targets=matrix.targets_for(DESIGN))
    phys = flow.physical
    base_timing = flow.analyses.timing
    pins = [s.pin.full_name for s in base_timing.sinks]

    rng = np.random.default_rng(9)
    paths = []
    for i in range(N_FAILING):
        launch, capture = rng.choice(len(pins), size=2, replace=False)
        paths.append(TimingPath(pins[launch], pins[capture],
                                float(rng.uniform(-20.0, -4.0))))

    quantum = max(delay_buffer_quantum(matrix.tech, leaf.sink_pin.cap,
                                       phys.tree.edge_length(leaf.node_id))
                  for leaf in phys.tree.sinks())
    offsets = schedule_offsets(paths, max_offset=2.5 * quantum,
                               capture_only=True, min_positive=quantum)
    effective = apply_useful_skew(phys.tree, matrix.tech, offsets)
    result = refine_skew(phys.tree, phys.routing, matrix.tech,
                         offsets=effective)

    base = {s.pin.full_name: s.arrival for s in base_timing.sinks}
    now = {s.pin.full_name: s.arrival for s in result.timing.sinks}
    common = float(np.median([now[p] - base[p] for p in base]))
    shift = {p: (now[p] - base[p]) - common for p in base}

    before = record.series_named("before")
    after = record.series_named("after")
    for i, path in enumerate(paths):
        before.add(i, path.slack)
        after.add(i, path.slack + shift[path.capture_pin]
                  - shift[path.launch_pin])
    record.series_named("cost").add(0, result.added_pad_cap)
    record.series_named("corrected_skew").add(0, result.final_skew)
    return record


def test_fig10_useful_skew_repair(benchmark, capsys, matrix):
    record = benchmark.pedantic(_run, args=(matrix,), rounds=1, iterations=1)
    emit(capsys, record.render())
    for slack in record.series["after"].ys:
        assert slack >= -1.0  # every failing path repaired (tolerance 1 ps)
    assert record.series["corrected_skew"].ys[0] < 5.0
