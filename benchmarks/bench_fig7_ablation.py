"""Figure 7 — Ablations of the smart optimizer's design choices.

Two ablations on one design, against the same budgets:

* **rule-set** — restrict the optimizer's upgrade space to width-only
  or spacing-only rules.  Expected: each missing axis gets bought some
  other, more expensive way.  Spacing-only cannot fix EM with rules, so
  the flow's re-synthesis fallback triples the buffer count to shrink
  the trunk charge — costing more than uniform all-NDR.  Width-only
  reaches the delta-delay budget only through shared-resistance
  reduction, so inefficient per femtofarad that it upgrades essentially
  every wire.  The full lattice needs neither workaround.
* **congestion price (lambda_track)** — with the track price at zero,
  spacing upgrades look free and the optimizer stamps more of them
  (higher track cost for the same feasibility).
"""

from __future__ import annotations

import dataclasses

from conftest import emit
from repro.designs import generate_design, spec_by_name
from repro.core import Policy, run_flow
from repro.reporting import Table

DESIGN = "ckt256"


def _restricted_tech(tech, keep_names):
    rules = tuple(r for r in tech.rules if r.name.value in keep_names)
    return dataclasses.replace(tech, rules=rules)


def _run(tech, matrix, lambda_track=0.05):
    design = generate_design(spec_by_name(DESIGN))
    return run_flow(design, tech, policy=Policy.SMART,
                    targets=matrix.targets_for(DESIGN),
                    lambda_track=lambda_track)


def _build(matrix):
    tech = matrix.tech
    variants = {
        "full lattice": _run(tech, matrix),
        "width-only rules": _run(
            _restricted_tech(tech, {"W1S1", "W2S1", "W4S2"}), matrix),
        "spacing-only rules": _run(
            _restricted_tech(tech, {"W1S1", "W1S2"}), matrix),
        "lambda_track=0": _run(tech, matrix, lambda_track=0.0),
    }
    table = Table(
        f"Fig 7 (ablation): optimizer variants on {DESIGN}",
        ["variant", "power (uW)", "upgraded", "stages", "ndr track (um)",
         "feasible"])
    for label, flow in variants.items():
        hist = flow.rule_histogram
        upgraded = sum(hist.values()) - hist.get("W1S1", 0)
        table.add_row(label, flow.clock_power, upgraded,
                      len(flow.physical.extraction.network.stages),
                      flow.ndr_track_cost,
                      "yes" if flow.feasible else "NO")
    return table, variants


def test_fig7_ablations(benchmark, capsys, matrix):
    table, variants = benchmark.pedantic(_build, args=(matrix,),
                                         rounds=1, iterations=1)
    emit(capsys, table.render())

    full = variants["full lattice"]
    assert full.feasible
    # Spacing alone cannot fix EM with rules: feasibility is only
    # reached through the flow's re-synthesis fallback (many more
    # buffered stages), at a power cost above the full lattice.
    space = variants["spacing-only rules"]
    assert len(space.physical.extraction.network.stages) > \
        2 * len(full.physical.extraction.network.stages)
    assert space.clock_power > 1.15 * full.clock_power
    # Width alone only gets there by going (nearly) uniform: far more
    # upgrades and materially more power than the full lattice.
    full_hist = full.rule_histogram
    width_hist = variants["width-only rules"].rule_histogram
    full_up = sum(full_hist.values()) - full_hist.get("W1S1", 0)
    width_up = sum(width_hist.values()) - width_hist.get("W1S1", 0)
    assert width_up > 5 * full_up
    assert variants["width-only rules"].clock_power > \
        1.1 * full.clock_power
    # Pricing tracks reduces NDR track consumption.
    assert full.ndr_track_cost <= \
        variants["lambda_track=0"].ndr_track_cost
