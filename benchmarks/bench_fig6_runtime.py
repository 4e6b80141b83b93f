"""Figure 6 — Runtime scaling of the flow.

Wall-clock time of the full flow per policy vs. design size.  Expected
shape: uniform policies scale near-linearly in sink count; the greedy
optimizer pays a small constant number of analyze/re-trim iterations on
top (a few x); the ML-guided variant cuts the greedy gap by replacing
the sensitivity loop with one prediction plus a short repair pass.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import emit
from repro.core import Policy
from repro.reporting import ExperimentRecord

DESIGNS = ("ckt64", "ckt128", "ckt256", "ckt512", "ckt1024")

#: Before/after record of the optimizer inner-loop speedup (engine off
#: vs on), written next to the repo's other top-level artefacts.
RUNTIME_JSON = Path(__file__).resolve().parent.parent \
    / "BENCH_opt_runtime.json"


def _collect(matrix) -> ExperimentRecord:
    record = ExperimentRecord(
        "fig6", "flow runtime vs design size",
        "sinks", "runtime (s)")
    from repro.designs import spec_by_name

    for name in DESIGNS:
        sinks = spec_by_name(name).n_sinks
        for policy in (Policy.ALL_NDR, Policy.SMART, Policy.SMART_ML):
            flow = matrix.flow(name, policy)
            record.series_named(policy.value).add(sinks, flow.runtime)
    return record


def test_fig6_runtime_scaling(benchmark, capsys, matrix):
    record = benchmark.pedantic(_collect, args=(matrix,),
                                rounds=1, iterations=1)
    emit(capsys, record.render())

    smart = record.series["smart"]
    all_ndr = record.series["all-ndr"]
    # Smart pays an iteration overhead over the uniform flow but stays
    # within a small constant factor at every size.
    for (_, t_all), (_, t_smart) in zip(all_ndr.as_rows(), smart.as_rows()):
        assert t_smart < 40.0 * max(t_all, 1e-3)  # static: ok[U002] 1ms runtime floor, not a conversion
    # Near-linear scaling: 16x sinks should cost far less than 100x time.
    assert smart.ys[-1] < 120.0 * max(smart.ys[0], 1e-3)  # static: ok[U002] 1ms runtime floor, not a conversion


def test_fig6_optimizer_inner_loop_speedup(capsys, matrix):
    """Incremental engine vs legacy full-rebuild loop on the largest design.

    Both runs start from identical fresh physical builds and must make
    identical decisions; only the wall time may differ.  The before /
    after pair is recorded in ``BENCH_opt_runtime.json``.
    """
    from repro.designs import generate_design, spec_by_name
    from repro.core.flow import build_physical_design
    from repro.core.optimizer import SmartNdrOptimizer

    name = DESIGNS[-1]
    spec = spec_by_name(name)
    targets = matrix.targets_for(name)
    freq = generate_design(spec).clock_freq

    def timed_run(use_engine: bool):
        phys = build_physical_design(generate_design(spec), matrix.tech)
        opt = SmartNdrOptimizer(phys.tree, phys.routing, matrix.tech,
                                targets, freq, use_engine=use_engine)
        start = time.perf_counter()
        result = opt.run(phys.extraction)
        return time.perf_counter() - start, result

    before_s, legacy = timed_run(use_engine=False)
    after_s, engine = timed_run(use_engine=True)

    # Identical results: same upgrade decisions, same final metrics.
    assert engine.upgraded == legacy.upgraded
    assert engine.iterations == legacy.iterations
    assert abs(engine.analyses.power.p_total
               - legacy.analyses.power.p_total) < 1e-6
    assert abs(engine.analyses.mc.skew_3sigma
               - legacy.analyses.mc.skew_3sigma) < 1e-6

    speedup = before_s / max(after_s, 1e-9)
    payload = {
        "design": name,
        "n_sinks": spec.n_sinks,
        "iterations": engine.iterations,
        "num_upgraded": engine.num_upgraded,
        "before_s": round(before_s, 3),
        "after_s": round(after_s, 3),
        "speedup": round(speedup, 2),
    }
    RUNTIME_JSON.write_text(json.dumps(payload, indent=2) + "\n",
                            encoding="utf-8")
    emit(capsys, f"optimizer inner loop on {name}: "
                 f"{before_s:.2f}s -> {after_s:.2f}s ({speedup:.1f}x)")
    assert speedup >= 3.0, payload
