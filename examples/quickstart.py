"""Quickstart: smart NDR on one benchmark design.

Runs the three headline policies on a 256-sink block through the
stable :mod:`repro.api` facade and prints the power/robustness
comparison the paper's abstract summarises.

Usage::

    python examples/quickstart.py
"""

from repro.api import CompareRequest, compare
from repro.reporting import Table

DESIGN = "ckt256"


def main() -> None:
    # Budgets pegged to the all-NDR reference: "as robust as all-NDR,
    # within 15%" — the paper's operational spec.  compare() schedules
    # the reference as a shared upstream job.
    report = compare(CompareRequest(design=DESIGN, slack=0.15))

    table = Table(
        "Clock power and robustness per routing policy",
        ["policy", "power (uW)", "wire cap (fF)", "dd (ps)", "3sig (ps)",
         "EM viol", "upgraded wires", "feasible"])
    for cell in report.cells:
        s = cell.summary
        table.add_row(cell.policy, s["power_uw"], s["wire_cap_ff"],
                      s["worst_delta_ps"], s["skew_3sigma_ps"],
                      int(s["em_violations"]), cell.upgraded_wires,
                      "yes" if cell.feasible else "NO")
    print(table.render())

    print(f"\nSmart NDR saves {report.smart_saving_pct:.1f}% clock power "
          f"vs the uniform all-NDR flow, at the same robustness spec.")


if __name__ == "__main__":
    main()
