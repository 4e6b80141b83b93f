"""Figure 5 — Smart-NDR savings vs. aggressor density.

Sweeps the signal-net density around the clock (aggressors per sink) on
a fixed-size design and reports the smart policy's power saving over
ALL-NDR.  Expected shape: at low density almost no wire needs
protection and savings approach the full all-NDR overhead; as density
rises, more wires must be upgraded and the savings shrink — smart
converges toward all-NDR (the crossover where uniform NDR stops being
wasteful).
"""

from __future__ import annotations

import dataclasses

from conftest import emit
from repro.designs import generate_design, spec_by_name
from repro.core import Policy, run_flow, targets_from_reference
from repro.reporting import ExperimentRecord

BASE = "ckt128"
DENSITIES = (0.5, 1.0, 2.0, 4.0, 6.0)


def _sweep(tech) -> ExperimentRecord:
    record = ExperimentRecord(
        "fig5", f"smart savings vs aggressor density ({BASE} geometry)",
        "aggressor nets per sink", "value")
    base_spec = spec_by_name(BASE)
    for density in DENSITIES:
        spec = dataclasses.replace(base_spec,
                                   name=f"{BASE}_d{density}",
                                   aggressors_per_sink=density)
        reference = run_flow(generate_design(spec), tech,
                             policy=Policy.ALL_NDR)
        targets = targets_from_reference(reference.analyses, tech)
        all_ndr = run_flow(generate_design(spec), tech,
                           policy=Policy.ALL_NDR, targets=targets)
        smart = run_flow(generate_design(spec), tech,
                         policy=Policy.SMART, targets=targets)
        saving = 100.0 * (all_ndr.clock_power - smart.clock_power) \
            / all_ndr.clock_power
        hist = smart.rule_histogram
        upgraded = 1.0 - hist.get("W1S1", 0) / sum(hist.values())
        record.series_named("smart_saving_pct").add(density, saving)
        record.series_named("upgraded_fraction").add(density, upgraded)
        record.series_named("smart_feasible").add(
            density, 1.0 if smart.feasible else 0.0)
    return record


def test_fig5_density_sweep(benchmark, capsys, tech):
    record = benchmark.pedantic(_sweep, args=(tech,),
                                rounds=1, iterations=1)
    emit(capsys, record.render())

    savings = record.series["smart_saving_pct"].ys
    upgraded = record.series["upgraded_fraction"].ys
    # Shape: savings positive at the sparse end, decreasing trend toward
    # the dense end; upgraded fraction grows with density.
    assert savings[0] > 5.0
    assert savings[-1] < savings[0]
    assert upgraded[-1] > upgraded[0]
    assert all(f == 1.0  # static: ok[U001] exact 0/1 feasibility flag
               for f in record.series["smart_feasible"].ys)
